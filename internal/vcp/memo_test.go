package vcp

// Edge cases of the row-scoped fingerprint memo on the six-permutation
// strands of gamma_edge_test.go, whose enumeration order is plain slot
// order: [0 1 2], [0 2 1], [1 0 2], [1 2 0], [2 0 1], [2 1 0]. The memo
// is seeded with chosen permutations so a hit lands exactly where each
// case needs it; every run must match ComputeScalar bit for bit.

import (
	"math"
	"testing"
)

var gammaPerms = [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// seededMemo returns a memo holding q's fingerprints under the given
// permutations (indices into gammaPerms), computed by the interpreter.
func seededMemo(q *Prepared, samples int, perms ...int) *Memo {
	m := &Memo{}
	for _, p := range perms {
		a := gammaPerms[p]
		fps := q.prog.Fingerprints(a, samples)
		m.insertRows(len(fps), len(a), fps, a, []uint64{hashAssignment(a)})
	}
	return m
}

// memoRun computes VCP(q, t) at width g with memo m attached, asserting
// value, Correspondences and Capped parity with the scalar reference.
func memoRun(t *testing.T, qp, tp *Prepared, g int, base Config, m *Memo) Stats {
	t.Helper()
	ev := newEvaluator(qp, base, g)
	defer ev.Close()
	ev.ShareMemo(m)
	v, st := ev.Compute(tp)
	vs, ss := ComputeScalar(qp, tp, base)
	if math.Float64bits(v) != math.Float64bits(vs) || st.Correspondences != ss.Correspondences || st.Capped != ss.Capped {
		t.Fatalf("G=%d: VCP %v / %d γ / capped %v, scalar %v / %d γ / capped %v",
			g, v, st.Correspondences, st.Capped, vs, ss.Correspondences, ss.Capped)
	}
	return st
}

// TestMemoHitBehindBufferedMisses: hits on permutations 2 and 4 arrive
// while kernel rows are staged, so they queue behind them and are
// scored in enumeration order at the single flush.
func TestMemoHitBehindBufferedMisses(t *testing.T) {
	base := Config{MinVars: 1}
	qp, tp := Prepare(gammaQuery(), base), Prepare(gammaTarget(3), base)
	st := memoRun(t, qp, tp, 8, base, seededMemo(qp, base.normalized().Samples, 1, 3))
	if st.Correspondences != 6 || st.MemoHits != 2 || st.BatchRows != 4 || st.Batches != 1 {
		t.Errorf("got %d γ, %d memo hits, %d rows in %d batches; want 6, 2, 4, 1",
			st.Correspondences, st.MemoHits, st.BatchRows, st.Batches)
	}
}

// TestMemoHitAtCap: with MaxCorrespondences = 3 the third candidate is
// the last one scored; as a memo hit it must count against the cap
// whether it queues behind staged rows (G = 8) or is scored at once
// (G = 1, empty queue), and the search reports Capped.
func TestMemoHitAtCap(t *testing.T) {
	base := Config{MinVars: 1, MaxCorrespondences: 3}
	qp, tp := Prepare(gammaQuery(), base), Prepare(gammaTarget(3), base)
	for _, g := range []int{0, 1, 8} {
		st := memoRun(t, qp, tp, g, base, seededMemo(qp, base.normalized().Samples, 2))
		if st.Correspondences != 3 || st.MemoHits != 1 || !st.Capped {
			t.Errorf("G=%d: %d γ, %d memo hits, capped %v; want 3, 1, true",
				g, st.Correspondences, st.MemoHits, st.Capped)
		}
		if g > 0 && st.BatchRows != 2 {
			t.Errorf("G=%d: %d kernel rows, want 2 (none past the cap)", g, st.BatchRows)
		}
	}
}

// TestMemoPerfectMatchWithHitsQueued: the perfect correspondence is the
// fourth candidate. Queued behind it are two memo hits (permutations 5
// and 6), which must be discarded uncounted; and when the perfect match
// is itself a queued hit, the kernel rows staged after it are
// discarded too.
func TestMemoPerfectMatchWithHitsQueued(t *testing.T) {
	base := Config{MinVars: 1}
	qp, tp := Prepare(gammaQuery(), base), Prepare(gammaTarget(2), base)
	samples := base.normalized().Samples

	st := memoRun(t, qp, tp, 8, base, seededMemo(qp, samples, 4, 5))
	if st.Correspondences != 4 || st.MemoHits != 0 || st.BatchRows != 4 {
		t.Errorf("hits after the match: %d γ, %d memo hits, %d rows; want 4, 0, 4",
			st.Correspondences, st.MemoHits, st.BatchRows)
	}
	st = memoRun(t, qp, tp, 8, base, seededMemo(qp, samples, 3))
	if st.Correspondences != 4 || st.MemoHits != 1 || st.BatchRows != 5 {
		t.Errorf("match is a hit: %d γ, %d memo hits, %d rows; want 4, 1, 5",
			st.Correspondences, st.MemoHits, st.BatchRows)
	}
}

// TestMemoEntryBound: a memo bounded at two entries keeps the first two
// evaluated assignments and drops the rest, and a second pass hits
// exactly those two while evaluating the other four — exact both times.
func TestMemoEntryBound(t *testing.T) {
	base := Config{MinVars: 1}
	qp, tp := Prepare(gammaQuery(), base), Prepare(gammaTarget(3), base)
	for _, g := range []int{0, 1, 8} {
		m := &Memo{limit: 2}
		first := memoRun(t, qp, tp, g, base, m)
		if first.MemoHits != 0 || m.Len() != 2 {
			t.Errorf("G=%d: first pass %d memo hits, %d entries; want 0, 2", g, first.MemoHits, m.Len())
		}
		second := memoRun(t, qp, tp, g, base, m)
		if second.MemoHits != 2 || m.Len() != 2 {
			t.Errorf("G=%d: second pass %d memo hits, %d entries; want 2, 2", g, second.MemoHits, m.Len())
		}
		if g > 0 && second.BatchRows != 4 {
			t.Errorf("G=%d: second pass evaluated %d rows, want 4", g, second.BatchRows)
		}
	}
}
