package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/vcp"
)

// Esh and S-LOG read only the forward VCP direction, so a query asking
// for either skips the reverse direction that only the S-VCP baseline
// needs. That is an optimisation, not a new scoring path: forward-only
// GES and S-LOG must be Float64bits-identical to Query (all three
// methods), and an S-VCP query on a cache warmed by forward-only
// queries — which fills in the missing reverse slots — must reproduce a
// fresh database's S-VCP to the bit. This file is that differential
// harness, across every engine mode and the live write path.

// methodModes are the engine modes the method differential runs under:
// every combination of retrieval, prefilter and kernel, all at sound
// settings (bit-identical to the scan/off/batch reference). Probe mode
// takes its candidates from the retrieval table instead of the scan
// prefilter, so it runs once per kernel.
func methodModes() []struct {
	name string
	opts Options
} {
	var modes []struct {
		name string
		opts Options
	}
	for _, retr := range []string{RetrievalScan, RetrievalProbe} {
		for _, pf := range []string{PrefilterOff, PrefilterLSH} {
			if retr == RetrievalProbe && pf == PrefilterLSH {
				continue
			}
			for _, kern := range []string{vcp.KernelScalar, vcp.KernelBatch} {
				opts := Options{Retrieval: retr, Prefilter: pf}
				opts.VCP.Kernel = kern
				modes = append(modes, struct {
					name string
					opts Options
				}{retr + "/" + pf + "/" + kern, opts})
			}
		}
	}
	return modes
}

// requireForwardMatch fails unless got (a forward-only report) carries
// no S-VCP and ranks and scores Esh and S-LOG bit-identically to want.
func requireForwardMatch(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if got.HasSVCP {
		t.Fatalf("%s: forward-only report claims S-VCP", label)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		if g.Target.Name != w.Target.Name ||
			math.Float64bits(g.GES) != math.Float64bits(w.GES) ||
			math.Float64bits(g.SLOG) != math.Float64bits(w.SLOG) {
			t.Fatalf("%s: rank %d: %s GES=%x SLOG=%x, want %s GES=%x SLOG=%x", label, i,
				g.Target.Name, math.Float64bits(g.GES), math.Float64bits(g.SLOG),
				w.Target.Name, math.Float64bits(w.GES), math.Float64bits(w.SLOG))
		}
		if g.HasSVCP {
			t.Fatalf("%s: rank %d claims S-VCP", label, i)
		}
	}
	for _, m := range []stats.Method{stats.Esh, stats.SLOG} {
		if rankingNames(got, m) != rankingNames(want, m) {
			t.Fatalf("%s: %v ranking differs", label, m)
		}
	}
}

// requireAllMatch fails unless got is bit-identical to want under all
// three methods.
func requireAllMatch(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if !got.HasSVCP || !want.HasSVCP {
		t.Fatalf("%s: S-VCP missing (got %t, want %t)", label, got.HasSVCP, want.HasSVCP)
	}
	diffReports(t, label, got, want)
	if rankingNames(got, stats.SVCP) != rankingNames(want, stats.SVCP) {
		t.Fatalf("%s: S-VCP ranking differs", label)
	}
}

func methodQueries(t *testing.T) []*asm.Proc {
	t.Helper()
	qtc, ok := compile.ByName("clang-3.5")
	if !ok {
		t.Fatal("query toolchain missing")
	}
	var qs []*asm.Proc
	for _, v := range corpus.Vulns()[:2] {
		q, err := corpus.CompileVuln(v, qtc, false)
		if err != nil {
			t.Fatalf("compile query %s: %v", v.Alias, err)
		}
		qs = append(qs, q)
	}
	return qs
}

// methodCorpus is a one-toolchain compiled corpus, cut to n procedures
// (0: all) to bound the scalar-kernel runs.
func methodCorpus(t *testing.T, n int) []*asm.Proc {
	t.Helper()
	tc, ok := compile.ByName("gcc-4.9")
	if !ok {
		t.Fatal("toolchain missing")
	}
	procs, err := corpus.Build(corpus.BuildConfig{Toolchains: []compile.Toolchain{tc}})
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 && n < len(procs) {
		procs = procs[:n]
	}
	return procs
}

func TestMethodDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("method differential run is slow")
	}
	procs := methodCorpus(t, 48)
	queries := methodQueries(t)
	var err error

	ref := NewDB(Options{})
	fillDB(t, ref, procs)
	want := make([]*Report, len(queries))
	for i, q := range queries {
		if want[i], err = ref.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	for _, mode := range methodModes() {
		t.Run(mode.name, func(t *testing.T) {
			ctx := context.Background()
			full := NewDB(mode.opts)
			fillDB(t, full, procs)
			for i, q := range queries {
				rep, err := full.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				requireAllMatch(t, fmt.Sprintf("%s/full", q.Name), rep, want[i])
			}

			db := NewDB(mode.opts)
			fillDB(t, db, procs)
			for _, m := range []stats.Method{stats.Esh, stats.SLOG} {
				for i, q := range queries {
					rep, err := db.QueryCtx(ctx, q, m)
					if err != nil {
						t.Fatal(err)
					}
					requireForwardMatch(t, fmt.Sprintf("%s/%v", q.Name, m), rep, want[i])
				}
			}
			fwd := db.Stats()
			for i, q := range queries {
				rep, err := db.QueryCtx(ctx, q, stats.SVCP)
				if err != nil {
					t.Fatal(err)
				}
				requireAllMatch(t, q.Name+"/svcp-after-esh", rep, want[i])
			}
			// A cache row whose reverse slot is now filled serves both
			// methods without further verifier work.
			before := db.Stats().VerifierCalls
			for i, q := range queries {
				rep, err := db.QueryCtx(ctx, q, stats.Esh)
				if err != nil {
					t.Fatal(err)
				}
				requireForwardMatch(t, q.Name+"/esh-warm", rep, want[i])
				if rep, err = db.QueryCtx(ctx, q, stats.SVCP); err != nil {
					t.Fatal(err)
				}
				requireAllMatch(t, q.Name+"/svcp-warm", rep, want[i])
			}
			if after := db.Stats().VerifierCalls; after != before {
				t.Fatalf("warm repeats made %d verifier calls", after-before)
			}

			// Forward-only queries ran strictly less verifier work, and
			// the fill-in ran exactly the reverse directions: together
			// they add up to the work of computing both directions at
			// once, call for call and γ for γ.
			all, split := full.Stats(), db.Stats()
			if fwd.VerifierCalls >= all.VerifierCalls || fwd.VerifierCorrespondences >= all.VerifierCorrespondences {
				t.Fatalf("forward-only work %d calls / %d γ, both directions %d / %d",
					fwd.VerifierCalls, fwd.VerifierCorrespondences, all.VerifierCalls, all.VerifierCorrespondences)
			}
			if split.VerifierCalls != all.VerifierCalls ||
				split.VerifierCorrespondences != all.VerifierCorrespondences ||
				split.GammaCapped != all.GammaCapped {
				t.Fatalf("forward + fill-in = %d calls / %d γ / %d capped, both directions %d / %d / %d",
					split.VerifierCalls, split.VerifierCorrespondences, split.GammaCapped,
					all.VerifierCalls, all.VerifierCorrespondences, all.GammaCapped)
			}
		})
	}
}

// TestMethodDifferentialWrites runs the same forward-only and fill-in
// checks after live adds, tombstones and compactions, against a fresh
// rebuild of the surviving targets.
func TestMethodDifferentialWrites(t *testing.T) {
	scripts := []struct {
		name string
		ops  []wop
	}{
		{"add-del", append(synthOps(1, 2, 3), delOp("synth_2"))},
		{"compact-mid-stream", append(append(synthOps(1, 2, 3), delOp("synth_1"), compactOp()), synthOps(5, 6)...)},
		{"shared-strands", []wop{addOp(iccStyle), addOp(renameProc(iccStyle, "checksum_icc", "checksum_copy")), delOp("checksum_icc"), addOp(unrelated)}},
	}
	queries := []string{gccStyle, genProc(3), unrelated}
	for _, mode := range []string{"scan", "probe"} {
		for _, sc := range scripts {
			t.Run(mode+"/"+sc.name, func(t *testing.T) {
				ctx := context.Background()
				opts := writeTestOptions(mode)
				live := NewDB(opts)
				// Warm the cache with forward-only rows before the writes
				// too, so compaction carries NaN reverse slots along.
				applyScript(t, live, sc.ops[:len(sc.ops)/2], false)
				for _, qsrc := range queries {
					if _, err := live.QueryCtx(ctx, parse(t, qsrc), stats.Esh); err != nil {
						t.Fatal(err)
					}
				}
				applyScript(t, live, sc.ops[len(sc.ops)/2:], false)
				fresh := buildFresh(t, opts, survivors(t, sc.ops))
				for qi, qsrc := range queries {
					q := parse(t, qsrc)
					want, err := fresh.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := live.QueryCtx(ctx, q, stats.Esh)
					if err != nil {
						t.Fatal(err)
					}
					requireForwardMatch(t, fmt.Sprintf("query %d esh", qi), got, want)
					if got, err = live.QueryCtx(ctx, q, stats.SVCP); err != nil {
						t.Fatal(err)
					}
					requireAllMatch(t, fmt.Sprintf("query %d svcp", qi), got, want)
				}
				if live.Stats().VerifierCalls == 0 {
					t.Fatal("no verifier work; the harness is vacuous")
				}
			})
		}
	}
}

// TestSVCPReadPanics pins the contract that an S-VCP read from a
// forward-only report is a programming error, never a silent 0.
func TestSVCPReadPanics(t *testing.T) {
	db := buildDB(t)
	rep, err := db.QueryCtx(context.Background(), parse(t, gccStyle), stats.Esh)
	if err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func(){
		"Rank":  func() { rep.Rank(stats.SVCP) },
		"Score": func() { rep.Results[0].Score(stats.SVCP) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(stats.SVCP) on a forward-only report did not panic", name)
				}
			}()
			read()
		}()
	}
	// Esh and S-LOG reads stay legal.
	rep.Rank(stats.SLOG)
	_ = rep.Results[0].Score(stats.Esh)
}

// TestGammaCappedTelemetry checks the γ-cap counter: it repeats exactly
// for the same work on a fresh database, it agrees with the vcp span's
// gamma_capped attribute, and a capped direction is a verifier call.
func TestGammaCappedTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("compiled-corpus telemetry run is slow")
	}
	procs := methodCorpus(t, 0)
	queries := methodQueries(t)
	var counts []uint64
	for run := 0; run < 2; run++ {
		db := NewDB(Options{Workers: 2})
		fillDB(t, db, procs)
		spanSum := 0.0
		for _, q := range queries {
			ctx, root := telemetry.StartSpan(context.Background(), "query")
			if _, err := db.QueryCtx(ctx, q, stats.Esh); err != nil {
				t.Fatal(err)
			}
			root.End()
			sp := root.Snapshot().Find("vcp")
			if sp == nil {
				t.Fatal("no vcp span")
			}
			spanSum += sp.Attrs["gamma_capped"]
		}
		st := db.Stats()
		if st.GammaCapped == 0 || st.GammaCapped > st.VerifierCalls {
			t.Fatalf("run %d: %d capped directions of %d calls", run, st.GammaCapped, st.VerifierCalls)
		}
		if spanSum != float64(st.GammaCapped) {
			t.Fatalf("run %d: span gamma_capped %v, counter %d", run, spanSum, st.GammaCapped)
		}
		counts = append(counts, st.GammaCapped)
	}
	if counts[0] != counts[1] {
		t.Fatalf("gamma_capped differs between identical runs: %v", counts)
	}
}

// TestMixedMethodConcurrentQueries races forward-only and S-VCP queries
// over one cache (run it under -race): a forward-only row written back
// after an S-VCP fill-in must not erase the filled reverse slot, and
// every answer must match a fresh database bit for bit.
func TestMixedMethodConcurrentQueries(t *testing.T) {
	queries := []string{gccStyle, iccStyle, unrelated}
	ref := buildDB(t)
	want := make([]*Report, len(queries))
	for i, src := range queries {
		var err error
		if want[i], err = ref.Query(parse(t, src)); err != nil {
			t.Fatal(err)
		}
	}

	db := buildDB(t)
	type answer struct {
		qi  int
		m   stats.Method
		rep *Report
		err error
	}
	const rounds = 8
	answers := make(chan answer, rounds*len(queries)*2)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for qi, src := range queries {
			for _, m := range []stats.Method{stats.Esh, stats.SVCP} {
				wg.Add(1)
				go func(qi int, q *asm.Proc, m stats.Method) {
					defer wg.Done()
					rep, err := db.QueryCtx(context.Background(), q, m)
					answers <- answer{qi, m, rep, err}
				}(qi, parse(t, src), m)
			}
		}
	}
	wg.Wait()
	close(answers)
	for a := range answers {
		if a.err != nil {
			t.Fatal(a.err)
		}
		label := fmt.Sprintf("query %d %v", a.qi, a.m)
		if a.m == stats.SVCP {
			requireAllMatch(t, label, a.rep, want[a.qi])
		} else {
			requireForwardMatch(t, label, a.rep, want[a.qi])
		}
	}
	// Once every S-VCP query has finished, the reverse slots are filled
	// for good: repeating them does no verifier work.
	before := db.Stats().VerifierCalls
	for qi, src := range queries {
		rep, err := db.QueryCtx(context.Background(), parse(t, src), stats.SVCP)
		if err != nil {
			t.Fatal(err)
		}
		requireAllMatch(t, fmt.Sprintf("query %d repeat", qi), rep, want[qi])
	}
	if after := db.Stats().VerifierCalls; after != before {
		t.Fatalf("repeated S-VCP queries made %d verifier calls", after-before)
	}
}
