package vcp_test

// Differential guard for the row-scoped fingerprint memo at the corpus
// level: a query strand's evaluators sharing one Memo across every
// target — concurrently, at production's width, a partial width and on
// the scalar interpreter, and with the memo bounded small enough to
// fill — must return the VCP values, Correspondences and Capped flags
// of a fresh ComputeScalar per target, bit for bit.

import (
	"math"
	"sync"
	"testing"

	"repro/internal/vcp"
)

// TestMemoDifferential runs each query strand over every target strand
// twice through evaluators sharing one memo. The first pass fills it,
// so later targets already hit assignments earlier ones evaluated; the
// second pass must then be answered from the memo alone (no kernel row)
// unless the memo was bounded below the row's distinct assignments.
func TestMemoDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential is slow")
	}
	strands := corpusStrands(t)
	if len(strands) > 24 {
		strands = strands[:24]
	}
	var cfg vcp.Config
	prep := make([]*vcp.Prepared, len(strands))
	for i, s := range strands {
		prep[i] = vcp.Prepare(s, cfg)
	}
	type ref struct {
		v      float64
		n      int
		capped bool
	}
	refs := make([][]ref, len(prep))
	for i := range prep {
		refs[i] = make([]ref, len(prep))
		for j := range prep {
			v, st := vcp.ComputeScalar(prep[i], prep[j], cfg)
			refs[i][j] = ref{v, st.Correspondences, st.Capped}
		}
	}

	const workers = 3
	var hits, scored int
	for _, g := range []int{vcp.GammaBatch, 3, 0} {
		for _, limit := range []int{0, 5} {
			for i := range prep {
				memo := &vcp.Memo{}
				if limit > 0 {
					memo = vcp.NewMemoLimit(limit)
				}
				for pass := 0; pass < 2; pass++ {
					// Targets are dealt round-robin to concurrent
					// evaluators, the way core's chunks share a row.
					stats := make([]vcp.Stats, len(prep))
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							ev := vcp.NewEvaluatorWidth(prep[i], cfg, g)
							defer ev.Close()
							ev.ShareMemo(memo)
							for j := w; j < len(prep); j += workers {
								v, st := ev.Compute(prep[j])
								want := refs[i][j]
								if math.Float64bits(v) != math.Float64bits(want.v) ||
									st.Correspondences != want.n || st.Capped != want.capped {
									t.Errorf("G=%d limit=%d pass %d pair (%d,%d): VCP %v / %d γ / capped %v, scalar %v / %d γ / capped %v",
										g, limit, pass, i, j, v, st.Correspondences, st.Capped, want.v, want.n, want.capped)
								}
								stats[j] = st
							}
						}(w)
					}
					wg.Wait()
					for j, st := range stats {
						if g > 0 && st.BatchRows+int64(st.MemoHits) < int64(st.Correspondences) {
							t.Fatalf("G=%d pair (%d,%d): %d rows + %d hits < %d γ",
								g, i, j, st.BatchRows, st.MemoHits, st.Correspondences)
						}
						if pass == 1 && limit == 0 && (st.MemoHits != st.Correspondences || st.BatchRows != 0) {
							t.Fatalf("G=%d pair (%d,%d): second pass %d hits of %d γ, %d kernel rows; want all hits",
								g, i, j, st.MemoHits, st.Correspondences, st.BatchRows)
						}
						if pass == 0 {
							hits += st.MemoHits
							scored += st.Correspondences
						}
					}
				}
				if limit > 0 && memo.Len() > limit {
					t.Fatalf("G=%d: memo holds %d entries past its bound %d", g, memo.Len(), limit)
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("first passes never hit the memo across targets")
	}
	t.Logf("first passes: %d of %d γ answered by the memo (%.1f%%)", hits, scored, 100*float64(hits)/float64(scored))
}
