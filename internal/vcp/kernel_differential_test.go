package vcp_test

// Differential guard for the batched evaluation kernel at the corpus
// level: over real lifted strands (not just generated programs), the
// batched kernel must produce byte-identical fingerprints to the scalar
// reference under every γ assignment the VCP search would try, and
// ComputeWithStats must return values and work counts identical to the
// ComputeScalar reference.

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/ivl"
	"repro/internal/lift"
	"repro/internal/smt"
	"repro/internal/strand"
	"repro/internal/vcp"
)

// corpusStrands decomposes a two-toolchain corpus into unique strands.
func corpusStrands(t *testing.T) []*strand.Strand {
	t.Helper()
	var tcs []compile.Toolchain
	for _, n := range []string{"gcc-4.9", "clang-3.5"} {
		tc, ok := compile.ByName(n)
		if !ok {
			t.Fatalf("unknown toolchain %q", n)
		}
		tcs = append(tcs, tc)
	}
	procs, err := corpus.Build(corpus.BuildConfig{Toolchains: tcs})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var out []*strand.Strand
	for _, p := range procs {
		g, err := cfg.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := lift.LiftProc(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range strand.FromProc(lp) {
			if s.NumVars() < 5 {
				continue
			}
			key := s.CanonicalKey()
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		t.Fatal("corpus produced no strands")
	}
	return out
}

// enumerateAssignments yields up to cap injective type-preserving
// assignments of q's inputs to t's slots, the γ candidates Algorithm 2
// enumerates.
func enumerateAssignments(qIn, tIn []ivl.Var, limit int, yield func([]int)) {
	assignment := make([]int, len(qIn))
	used := make([]bool, len(tIn))
	count := 0
	var rec func(i int)
	rec = func(i int) {
		if count >= limit {
			return
		}
		if i == len(qIn) {
			count++
			yield(assignment)
			return
		}
		for slot := 0; slot < len(tIn); slot++ {
			if used[slot] || tIn[slot].Type != qIn[i].Type {
				continue
			}
			used[slot] = true
			assignment[i] = slot
			rec(i + 1)
			used[slot] = false
		}
	}
	rec(0)
}

// TestKernelDifferentialCorpus compares scalar and batched fingerprints
// for every corpus strand across the γ assignments of real strand
// pairings, and asserts ComputeWithStats parity between the kernels.
func TestKernelDifferentialCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential is slow")
	}
	strands := corpusStrands(t)
	if len(strands) > 24 {
		strands = strands[:24]
	}

	// Per-strand: the compiled program must be kernel-eligible, and the
	// batched fingerprints must match the scalar reference under the γ
	// assignments of every compatible pairing (self-pairings included,
	// covering the identity assignment Prepare uses).
	progs := make([]*smt.Program, len(strands))
	for i, s := range strands {
		prog, err := smt.CompileStrand(s.Stmts, s.Inputs)
		if err != nil {
			t.Fatalf("strand %d: %v", i, err)
		}
		if !prog.BatchOK() {
			t.Fatalf("strand %d (%s): lifted strand rejected by the kernel's static typing",
				i, s.ProcName)
		}
		progs[i] = prog
	}
	const perPairCap = 16
	samples := smt.DefaultSamples
	for i, q := range strands {
		kern := progs[i].AcquireKernel(samples)
		for j, u := range strands {
			if len(q.Inputs) > len(u.Inputs) {
				continue
			}
			enumerateAssignments(q.Inputs, u.Inputs, perPairCap, func(slots []int) {
				want := progs[i].Fingerprints(slots, samples)
				got := kern.Fingerprints(slots)
				for d := range want {
					if got[d] != want[d] {
						t.Fatalf("pair (%d,%d) slots %v def %d: batch %#x scalar %#x",
							i, j, slots, d, got[d], want[d])
					}
				}
			})
		}
		progs[i].ReleaseKernel(kern)
	}

	// End-to-end VCP parity: identical values and γ counts between the
	// production path and the scalar reference, which recomputes the
	// target fingerprint sets on the interpreter too.
	var cfg vcp.Config
	prep := make([]*vcp.Prepared, len(strands))
	for i, s := range strands {
		prep[i] = vcp.Prepare(s, cfg)
		if err := prep[i].Err(); err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
	}
	for i := range strands {
		for j := range strands {
			vs, ss := vcp.ComputeScalar(prep[i], prep[j], cfg)
			vb, sb := vcp.ComputeWithStats(prep[i], prep[j], cfg)
			if vs != vb || ss.Correspondences != sb.Correspondences {
				t.Fatalf("pair (%d,%d): scalar (%v, %d γ) vs batch (%v, %d γ)",
					i, j, vs, ss.Correspondences, vb, sb.Correspondences)
			}
		}
	}
}
