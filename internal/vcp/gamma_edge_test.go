package vcp

// Edge-case coverage for the batched γ loop: partial final batches,
// a perfect match in the middle of a batch, and the MaxCorrespondences
// cap landing inside a batch. The strands are built so that every input
// has the same role signature (each appears exactly once as the left
// and once as the right operand of a subtraction), which forces the
// candidate order to plain slot order and makes the enumeration
// sequence — all 3! = 6 permutations — fully predictable.

import (
	"math"
	"testing"

	"repro/internal/ivl"
	"repro/internal/strand"
)

// gammaQuery builds q over inputs (x, y, z):
//
//	v1 = x - y; v2 = y - z; v3 = z - x; v4 = v1 * 2
func gammaQuery() *strand.Strand {
	return mkStrand([]string{"x", "y", "z"},
		ivl.Assign(iv("v1"), ivl.Bin(ivl.Sub, ivl.IntVar("x"), ivl.IntVar("y"))),
		ivl.Assign(iv("v2"), ivl.Bin(ivl.Sub, ivl.IntVar("y"), ivl.IntVar("z"))),
		ivl.Assign(iv("v3"), ivl.Bin(ivl.Sub, ivl.IntVar("z"), ivl.IntVar("x"))),
		ivl.Assign(iv("v4"), ivl.Bin(ivl.Mul, ivl.IntVar("v1"), ivl.C(2))),
	)
}

// gammaTarget builds q's image under the correspondence x→b, y→c, z→a
// (assignment [1 2 0], the fourth of the six permutations the search
// tries), with the final multiplier as given: scale 2 makes that
// correspondence perfect, any other scale caps every match at 3/4.
func gammaTarget(scale uint64) *strand.Strand {
	return mkStrand([]string{"a", "b", "c"},
		ivl.Assign(iv("w1"), ivl.Bin(ivl.Sub, ivl.IntVar("b"), ivl.IntVar("c"))),
		ivl.Assign(iv("w2"), ivl.Bin(ivl.Sub, ivl.IntVar("c"), ivl.IntVar("a"))),
		ivl.Assign(iv("w3"), ivl.Bin(ivl.Sub, ivl.IntVar("a"), ivl.IntVar("b"))),
		ivl.Assign(iv("w4"), ivl.Bin(ivl.Mul, ivl.IntVar("w1"), ivl.C(scale))),
	)
}

// gammaRun computes VCP(q, t) under the width, asserting score parity
// with the scalar reference inline.
func gammaRun(t *testing.T, q, tgt *strand.Strand, g int, base Config) (float64, Stats) {
	t.Helper()
	qp, tp := Prepare(q, base), Prepare(tgt, base)
	ev := newEvaluator(qp, base, g)
	defer ev.Close()
	v, st := ev.Compute(tp)

	vs, ss := ComputeScalar(qp, tp, base)
	if math.Float64bits(v) != math.Float64bits(vs) {
		t.Fatalf("G=%d: VCP %v != scalar %v", g, v, vs)
	}
	if st.Correspondences != ss.Correspondences {
		t.Fatalf("G=%d: %d γ != scalar %d γ", g, st.Correspondences, ss.Correspondences)
	}
	return v, st
}

// TestGammaBatchPartialFlush: six candidates and no early exit, so the
// final flush is partial whenever 6 mod G ≠ 0. Every width evaluates
// exactly ceil(6/G) batches carrying exactly the six counted rows.
func TestGammaBatchPartialFlush(t *testing.T) {
	q, tgt := gammaQuery(), gammaTarget(3) // no perfect correspondence
	base := Config{MinVars: 1}
	for _, g := range []int{1, 2, 3, 8, 16} {
		v, st := gammaRun(t, q, tgt, g, base)
		if v != 0.75 {
			t.Errorf("G=%d: VCP = %v, want 0.75", g, v)
		}
		if st.Correspondences != 6 {
			t.Errorf("G=%d: tried %d γ, want all 6", g, st.Correspondences)
		}
		wantBatches := int64((6 + g - 1) / g)
		if st.Batches != wantBatches || st.BatchRows != 6 {
			t.Errorf("G=%d: %d batches / %d rows, want %d / 6",
				g, st.Batches, st.BatchRows, wantBatches)
		}
	}
}

// TestGammaBatchEarlyExit: the perfect correspondence is the fourth
// candidate, so at G ≥ 3 it lands mid-batch and the rows buffered after
// it are flushed but discarded uncounted — Correspondences stays at 4,
// exactly where the scalar loop stops.
func TestGammaBatchEarlyExit(t *testing.T) {
	q, tgt := gammaQuery(), gammaTarget(2) // assignment [1 2 0] is perfect
	base := Config{MinVars: 1}
	wantRows := map[int]int64{1: 4, 2: 4, 3: 6, 8: 6, 16: 6}
	for _, g := range []int{1, 2, 3, 8, 16} {
		v, st := gammaRun(t, q, tgt, g, base)
		if v != 1.0 {
			t.Errorf("G=%d: VCP = %v, want 1.0", g, v)
		}
		if st.Correspondences != 4 {
			t.Errorf("G=%d: tried %d γ, want 4 (early exit)", g, st.Correspondences)
		}
		if st.BatchRows != wantRows[g] {
			t.Errorf("G=%d: %d batch rows, want %d", g, st.BatchRows, wantRows[g])
		}
		if extra := st.BatchRows - int64(st.Correspondences); g >= 3 && extra != 2 {
			t.Errorf("G=%d: %d rows discarded after the perfect match, want 2", g, extra)
		}
	}
}

// TestGammaBatchCapMidBatch: MaxCorrespondences = 3 is not a multiple
// of most widths, so the cap lands inside a batch. The enumeration must
// stop buffering at exactly the cap — never evaluating a correspondence
// the unbatched loop would not have — and charge exactly cap rows.
func TestGammaBatchCapMidBatch(t *testing.T) {
	q, tgt := gammaQuery(), gammaTarget(3)
	base := Config{MinVars: 1, MaxCorrespondences: 3}
	wantBatches := map[int]int64{1: 3, 2: 2, 8: 1, 16: 1}
	for _, g := range []int{1, 2, 8, 16} {
		v, st := gammaRun(t, q, tgt, g, base)
		if v != 0.75 {
			t.Errorf("G=%d: VCP = %v, want 0.75", g, v)
		}
		if st.Correspondences != 3 {
			t.Errorf("G=%d: tried %d γ, want the cap (3)", g, st.Correspondences)
		}
		if st.Batches != wantBatches[g] || st.BatchRows != 3 {
			t.Errorf("G=%d: %d batches / %d rows, want %d / 3 (no work past the cap)",
				g, st.Batches, st.BatchRows, wantBatches[g])
		}
	}
}
