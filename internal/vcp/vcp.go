// Package vcp implements the paper's Algorithm 2: computing the Variable
// Containment Proportion between two strands by enumerating input
// correspondences γ, realizing the input-equality assumptions through
// shared sample slots, and counting query variables that have an
// equivalent counterpart in the target strand.
//
// The §5.5 engineering heuristics are implemented here as well: input
// correspondences are one-to-one, total on the query inputs and
// type-preserving; trivially small strands and grossly size-mismatched
// pairs are rejected before any verifier work; and per-strand evaluation
// vectors are computed once and reused across correspondences (the
// batched-query optimization).
package vcp

import (
	"time"

	"repro/internal/ivl"
	"repro/internal/smt"
	"repro/internal/strand"
)

// Config tunes the VCP computation. The zero value selects the paper's
// settings via Default.
type Config struct {
	// Samples is the number of evaluation vectors (verifier precision).
	Samples int
	// MinVars rejects query strands with fewer defined variables
	// (paper §5.5 uses 5).
	MinVars int
	// SizeRatio rejects target strands whose variable count is below
	// SizeRatio or above 1/SizeRatio times the query's (paper: 0.5).
	SizeRatio float64
	// MaxCorrespondences caps the γ enumeration per strand pair.
	MaxCorrespondences int
}

// GammaBatch is the γ-batch width G of the batched kernel: the γ loop
// accumulates up to G complete correspondences and evaluates them
// through one suffix execution over G×Samples lanes. Wide enough to
// amortize instruction dispatch and overlap the fingerprint fold
// chains, narrow enough that a typical pair (a handful of
// correspondences) still fills most of its final batch. Every width
// produces Float64bits-identical scores and identical Correspondences
// counts — batching changes dispatch, not semantics — which the
// package tests pin at widths 1, 2, 8 and 16.
const GammaBatch = 8

// Default returns the configuration used in the paper's experiments.
func Default() Config {
	return Config{
		Samples:            smt.DefaultSamples,
		MinVars:            5,
		SizeRatio:          0.5,
		MaxCorrespondences: 96, // role signatures order the search; see Compute
	}
}

// normalized fills in zero fields.
func (c Config) normalized() Config {
	d := Default()
	if c.Samples <= 0 {
		c.Samples = d.Samples
	}
	if c.MinVars <= 0 {
		c.MinVars = d.MinVars
	}
	if c.SizeRatio <= 0 {
		c.SizeRatio = d.SizeRatio
	}
	if c.MaxCorrespondences <= 0 {
		c.MaxCorrespondences = d.MaxCorrespondences
	}
	return c
}

// Prepared caches a strand's compiled evaluation program and — under the
// identity slot assignment, used when the strand is the target — the set
// of its variables' value-vector fingerprints. Preparation happens once
// per unique strand; VCP computations against many counterparts reuse it.
type Prepared struct {
	S *strand.Strand
	// prog is the strand compiled to flat code (query-side evaluation).
	prog *smt.Program
	// fpSet is the set of variable-vector fingerprints under the
	// identity slot assignment (target-side matching).
	fpSet map[uint64]bool
	// sigs holds one syntactic role signature per input (by input
	// index): a hash of the operator contexts the input appears in.
	// Matching inputs across strands almost always have equal
	// signatures, so the γ search tries equal-signature slots first.
	sigs []uint64
	// key is the strand's canonical structural key (for caching).
	key string
	err error
}

// roleSignatures computes a context hash per strand input. The input
// set is materialized once up front: the expression walk consults it per
// variable reference, and a linear scan there made the walk
// O(refs × inputs) on store-heavy strands.
func roleSignatures(s *strand.Strand) []uint64 {
	inputSet := make(map[string]bool, len(s.Inputs))
	for _, in := range s.Inputs {
		inputSet[in.Name] = true
	}
	sig := make(map[string]uint64, len(s.Inputs))
	for _, st := range s.Stmts {
		var walk func(e ivl.Expr, parentOp string, pos int)
		walk = func(e ivl.Expr, parentOp string, pos int) {
			switch t := e.(type) {
			case ivl.VarExpr:
				if inputSet[t.V.Name] {
					// Order-independent accumulation: sum of mixed
					// context hashes.
					h := hash64(parentOp)*31 + uint64(pos) + 1
					h ^= h >> 27
					h *= 0x94d049bb133111eb
					sig[t.V.Name] += h
				}
			case ivl.UnExpr:
				walk(t.X, "u"+t.Op.String(), 0)
			case ivl.BinExpr:
				op := t.Op.String()
				if t.Op.IsCommutative() {
					walk(t.X, op, 0)
					walk(t.Y, op, 0)
				} else {
					walk(t.X, op, 0)
					walk(t.Y, op, 1)
				}
			case ivl.IteExpr:
				walk(t.Cond, "ite", 0)
				walk(t.Then, "ite", 1)
				walk(t.Else, "ite", 2)
			case ivl.TruncExpr:
				walk(t.X, "trunc", 0)
			case ivl.SextExpr:
				walk(t.X, "sext", 0)
			case ivl.LoadExpr:
				walk(t.Mem, "load", 0)
				walk(t.Addr, "load", 1)
			case ivl.StoreExpr:
				walk(t.Mem, "store", 0)
				walk(t.Addr, "store", 1)
				walk(t.Val, "store", 2)
			case ivl.CallExpr:
				for i, a := range t.Args {
					walk(a, t.Sym, i)
				}
			}
		}
		walk(st.Rhs, "=", 0)
	}
	out := make([]uint64, len(s.Inputs))
	for i, in := range s.Inputs {
		out[i] = sig[in.Name]
	}
	return out
}

func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Prepare compiles the strand and evaluates it under its own slot
// assignment, on the batched kernel when the program allows it and on
// the scalar interpreter otherwise (the two produce bit-identical
// fingerprints).
func Prepare(s *strand.Strand, cfg Config) *Prepared {
	cfg = cfg.normalized()
	p := &Prepared{S: s, key: s.CanonicalKey()}
	prog, err := smt.CompileStrand(s.Stmts, s.Inputs)
	if err != nil {
		p.err = err
		return p
	}
	p.prog = prog
	identity := identityAssignment(len(s.Inputs))
	if prog.BatchOK() {
		kern := prog.AcquireKernel(cfg.Samples)
		p.fpSet = fingerprintSet(kern.Fingerprints(identity))
		prog.ReleaseKernel(kern)
	} else {
		p.fpSet = fingerprintSet(prog.Fingerprints(identity, cfg.Samples))
	}
	p.sigs = roleSignatures(s)
	return p
}

func identityAssignment(n int) []int {
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	return identity
}

func fingerprintSet(fps []uint64) map[uint64]bool {
	set := make(map[uint64]bool, len(fps))
	for _, h := range fps {
		set[h] = true
	}
	return set
}

// Key returns the canonical structural key of the underlying strand.
func (p *Prepared) Key() string { return p.key }

// Err returns any evaluation error captured at preparation time.
func (p *Prepared) Err() error { return p.err }

// InstrCounts returns the compiled program's γ-invariant prefix length
// and total instruction count (0, 0 when preparation failed), for the
// engine's hoisting telemetry.
func (p *Prepared) InstrCounts() (prefix, total int) {
	if p.prog == nil {
		return 0, 0
	}
	return p.prog.InstrCounts()
}

// SizeCompatible applies the §5.5 size-ratio window.
func SizeCompatible(q, t *strand.Strand, ratio float64) bool {
	nq, nt := float64(q.NumVars()), float64(t.NumVars())
	if nq == 0 || nt == 0 {
		return false
	}
	return nt >= nq*ratio && nt <= nq/ratio
}

// Stats reports the work one Compute call performed, for telemetry:
// Correspondences is the number of input correspondences γ whose
// evaluation vectors were computed and matched (each one is a
// probabilistic-verifier invocation); KernelNanos is the wall time
// spent strictly inside kernel/interpreter evaluation — batch flushes
// or scalar interpreter passes — excluding candidate ordering, the
// enumeration itself, and fpSet matching, so the metric built on it
// does not overcount. Batches counts kernel flushes and BatchRows the
// correspondences they carried; BatchRows/(width·Batches) is the
// mean batch occupancy. Capped reports that the enumeration stopped at
// MaxCorrespondences without a perfect match, so the returned VCP is a
// lower bound of the uncapped search.
type Stats struct {
	Correspondences int
	KernelNanos     int64
	Batches         int64
	BatchRows       int64
	Capped          bool
}

// Compute returns VCP(q, t): the maximal fraction of q's variables with
// an input-output-equivalent variable in t over all type-preserving,
// injective, total-on-q input correspondences. It returns 0 when no
// valid correspondence exists.
func Compute(q, t *Prepared, cfg Config) float64 {
	v, _ := ComputeWithStats(q, t, cfg)
	return v
}

// ComputeWithStats is Compute plus a work report, so call sites can
// account verifier effort without a second pass.
func ComputeWithStats(q, t *Prepared, cfg Config) (float64, Stats) {
	ev := NewEvaluator(q, cfg)
	defer ev.Close()
	return ev.Compute(t)
}

// ComputeScalar is the reference implementation of ComputeWithStats:
// the γ loop runs on the scalar interpreter, and the target's
// fingerprint set is recomputed by the interpreter as well, so no
// batched-kernel output reaches the result. It is the differential
// oracle the engine's tests hold production to — its value and
// Correspondences count must equal ComputeWithStats' bit for bit — and
// production never calls it.
func ComputeScalar(q, t *Prepared, cfg Config) (float64, Stats) {
	cfg = cfg.normalized()
	if t.err == nil && t.prog != nil {
		ref := *t
		ref.fpSet = fingerprintSet(t.prog.Fingerprints(identityAssignment(len(t.S.Inputs)), cfg.Samples))
		t = &ref
	}
	ev := newEvaluator(q, cfg, 0)
	return ev.Compute(t)
}

// Evaluator computes VCP(q, ·) for one query strand against many
// targets, holding the query's evaluation kernel — and its evaluated
// γ-invariant prefix — across pairs. One acquire per query row instead
// of one per pair; the prefix is re-evaluated only when the pooled
// kernel's shape actually changes. Not safe for concurrent use.
type Evaluator struct {
	q    *Prepared
	cfg  Config
	kern *smt.Kernel
	g    int
}

// NewEvaluator prepares a reusable evaluator for the query strand: the
// batched kernel at width GammaBatch, or the scalar interpreter for
// programs the kernel rejects (smt.Program.BatchOK). Callers must Close
// it to return the kernel to the program pool.
func NewEvaluator(q *Prepared, cfg Config) *Evaluator {
	return newEvaluator(q, cfg, GammaBatch)
}

// newEvaluator is NewEvaluator at γ-batch width g; g == 0 selects the
// scalar interpreter. Production always runs at GammaBatch; the other
// widths exist for the package's differential tests.
func newEvaluator(q *Prepared, cfg Config, g int) *Evaluator {
	cfg = cfg.normalized()
	ev := &Evaluator{q: q, cfg: cfg}
	if g > 0 && q.err == nil && q.prog != nil && q.prog.BatchOK() {
		ev.g = g
		ev.kern = q.prog.AcquireKernelBatch(cfg.Samples, g)
	}
	return ev
}

// Close releases the held kernel. The evaluator must not be used after.
func (ev *Evaluator) Close() {
	if ev.kern != nil {
		ev.q.prog.ReleaseKernel(ev.kern)
		ev.kern = nil
	}
}

// Compute returns VCP(ev.q, t) plus the work report. Scores, rankings
// and Correspondences counts are Float64bits-identical across every
// γ-batch width and the scalar interpreter: γ candidates are
// enumerated in the same order, a batch row buffered after a perfect
// match or past the MaxCorrespondences cap is discarded uncounted at
// flush — exactly the candidates the unbatched loop would never have
// evaluated — and fingerprints per row are bit-equal to a lone
// evaluation under that row's assignment.
func (ev *Evaluator) Compute(t *Prepared) (float64, Stats) {
	q, cfg := ev.q, ev.cfg
	if q.err != nil || t.err != nil || q.S.NumVars() == 0 {
		return 0, Stats{}
	}
	if len(q.S.Inputs) > len(t.S.Inputs) {
		return 0, Stats{} // γ must be injective and total on q's inputs
	}

	// Enumerate injective type-preserving assignments of q inputs to
	// target slots.
	qIn := q.S.Inputs
	tIn := t.S.Inputs
	assignment := make([]int, len(qIn)) // q input index -> target slot
	usedSlot := make([]bool, len(tIn))
	best := 0.0
	tried := 0
	var st Stats
	nVars := float64(q.S.NumVars())

	// Candidate slots per query input, equal-role-signature slots first:
	// matching inputs across real compilations almost always play the
	// same syntactic role, so the right correspondence is found within
	// the first few attempts and the cap rarely bites.
	candidates := make([][]int, len(qIn))
	for i := range qIn {
		var same, other []int
		for slot := 0; slot < len(tIn); slot++ {
			if tIn[slot].Type != qIn[i].Type {
				continue
			}
			if q.sigs[i] == t.sigs[slot] {
				same = append(same, slot)
			} else {
				other = append(other, slot)
			}
		}
		candidates[i] = append(same, other...)
	}

	// score matches one correspondence's fingerprints against the
	// target set and advances best. Counting (tried++) happens at the
	// caller so both paths charge correspondences identically.
	score := func(fps []uint64) {
		matched := 0
		for _, h := range fps {
			if t.fpSet[h] {
				matched++
			}
		}
		if v := float64(matched) / nVars; v > best {
			best = v
		}
	}

	if ev.kern == nil {
		// Scalar reference interpreter: one full pass per sample, one
		// evaluation per correspondence. Only the interpreter call is
		// timed (satellite of the overcounting fix: candidate ordering
		// and fpSet matching used to pollute KernelNanos).
		var rec func(i int)
		rec = func(i int) {
			if best >= 1.0 || tried >= cfg.MaxCorrespondences {
				return
			}
			if i == len(qIn) {
				tried++
				t0 := time.Now()
				fps := q.prog.Fingerprints(assignment, cfg.Samples)
				st.KernelNanos += time.Since(t0).Nanoseconds()
				score(fps)
				return
			}
			for _, slot := range candidates[i] {
				if usedSlot[slot] {
					continue
				}
				usedSlot[slot] = true
				assignment[i] = slot
				rec(i + 1)
				usedSlot[slot] = false
			}
		}
		rec(0)
		st.Correspondences = tried
		st.Capped = best < 1.0 && tried >= cfg.MaxCorrespondences
		return best, st
	}

	// The batched γ loop: complete assignments accumulate into kernel
	// rows and flush through ONE suffix execution over buffered·k lanes.
	kern, g := ev.kern, ev.g
	buffered := 0
	flush := func() {
		if buffered == 0 {
			return
		}
		rows := buffered
		buffered = 0
		t0 := time.Now()
		fps := kern.FingerprintsRows(rows)
		st.KernelNanos += time.Since(t0).Nanoseconds()
		st.Batches++
		st.BatchRows += int64(rows)
		nd := len(fps) / rows
		for r := 0; r < rows; r++ {
			// A perfect match or the cap mid-batch discards the
			// remaining rows uncounted: the unbatched loop would have
			// stopped before evaluating them.
			if best >= 1.0 || tried >= cfg.MaxCorrespondences {
				break
			}
			tried++
			score(fps[r*nd : (r+1)*nd])
		}
	}
	var rec func(i int)
	rec = func(i int) {
		// Count buffered rows against the cap so enumeration halts at
		// exactly the candidate where the unbatched loop would.
		if best >= 1.0 || tried+buffered >= cfg.MaxCorrespondences {
			return
		}
		if i == len(qIn) {
			kern.BindRow(buffered, assignment)
			buffered++
			if buffered == g {
				flush()
			}
			return
		}
		for _, slot := range candidates[i] {
			if usedSlot[slot] {
				continue
			}
			usedSlot[slot] = true
			assignment[i] = slot
			rec(i + 1)
			usedSlot[slot] = false
		}
	}
	rec(0)
	flush() // partial final batch
	st.Correspondences = tried
	st.Capped = best < 1.0 && tried >= cfg.MaxCorrespondences
	return best, st
}
