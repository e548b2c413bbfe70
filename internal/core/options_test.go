package core

import (
	"testing"

	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/vcp"
)

// Additional engine-level behaviours: the sigmoid-k option, cache
// coherence across repeated and interleaved queries, and ranking.

func TestSigmoidKChangesEshOnly(t *testing.T) {
	build := func(k float64) *Report {
		db := NewDB(Options{VCP: vcp.Config{MinVars: 3}, SigmoidK: k})
		for _, src := range []string{iccStyle, unrelated} {
			if err := db.AddTarget(parse(t, src)); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := db.Query(parse(t, gccStyle))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r10 := build(0) // default k = 10
	r2 := build(2)
	for i := range r10.Results {
		// S-VCP and S-LOG ignore the sigmoid entirely.
		var match *TargetScore
		for j := range r2.Results {
			if r2.Results[j].Target.Name == r10.Results[i].Target.Name {
				match = &r2.Results[j]
			}
		}
		if match == nil {
			t.Fatal("target sets differ")
		}
		if match.SVCP != r10.Results[i].SVCP || match.SLOG != r10.Results[i].SLOG {
			t.Error("sub-method scores changed with k")
		}
		if match.GES == r10.Results[i].GES {
			t.Errorf("GES of %s identical under k=2 and k=10", match.Target.Name)
		}
	}
}

func TestCacheCoherentAcrossQueries(t *testing.T) {
	db := buildDB(t)
	// Query A, then B, then A again: the third result must equal the
	// first exactly (the memo cache may only cache, never corrupt).
	a1, err := db.Query(parse(t, gccStyle))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(parse(t, unrelated)); err != nil {
		t.Fatal(err)
	}
	a2, err := db.Query(parse(t, gccStyle))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Results {
		if a1.Results[i].GES != a2.Results[i].GES ||
			a1.Results[i].SVCP != a2.Results[i].SVCP ||
			a1.Results[i].SLOG != a2.Results[i].SLOG {
			t.Fatalf("cache changed result %d: %+v vs %+v", i, a1.Results[i], a2.Results[i])
		}
	}
}

func TestRankOrdering(t *testing.T) {
	db := buildDB(t)
	rep, err := db.Query(parse(t, gccStyle))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []stats.Method{stats.SVCP, stats.SLOG, stats.Esh} {
		ranked := rep.Rank(m)
		if len(ranked) != len(rep.Results) {
			t.Fatal("Rank changed length")
		}
		for i := 1; i < len(ranked); i++ {
			if ranked[i].Score(m) > ranked[i-1].Score(m) {
				t.Errorf("%v: not sorted at %d", m, i)
			}
		}
	}
	// Rank must not mutate the receiver (Results stays GES-sorted).
	for i := 1; i < len(rep.Results); i++ {
		if rep.Results[i].GES > rep.Results[i-1].GES {
			t.Error("Results order mutated by Rank")
		}
	}
}

func TestQueryAgainstEmptyDB(t *testing.T) {
	db := NewDB(Options{VCP: vcp.Config{MinVars: 3}})
	rep, err := db.Query(parse(t, gccStyle))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Errorf("results from empty DB: %d", len(rep.Results))
	}
}

func TestWorkersOption(t *testing.T) {
	// Worker count must not change results.
	mk := func(workers int) *Report {
		db := NewDB(Options{VCP: vcp.Config{MinVars: 3}, Workers: workers})
		for _, src := range []string{iccStyle, unrelated} {
			if err := db.AddTarget(parse(t, src)); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := db.Query(parse(t, gccStyle))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r4 := mk(1), mk(4)
	for i := range r1.Results {
		if r1.Results[i].GES != r4.Results[i].GES {
			t.Fatal("worker count changed scores")
		}
	}
}

// TestBandCollisionTableBuiltEagerly: turning the band-collision tier on
// at serve time, or changing the sketch geometry while it is on, builds
// the retrieval table before ConfigurePrefilter returns — the first
// query must not build it under the configuration write lock, stalling
// every concurrent query — and turning the tier off drops it.
func TestBandCollisionTableBuiltEagerly(t *testing.T) {
	db := buildDB(t)
	if st := db.Stats(); st.RetrievalTableBuckets != 0 {
		t.Fatalf("retrieval table resident with the tier off (%d buckets)", st.RetrievalTableBuckets)
	}
	db.ConfigurePrefilter(0, 0, sketch.SuggestedMinContainment)
	if st := db.Stats(); st.RetrievalTableBuckets == 0 {
		t.Fatal("enabling the tier left the retrieval table unbuilt")
	}
	db.ConfigurePrefilter(12, 6, -1)
	st := db.Stats()
	if st.RetrievalTableBuckets == 0 || st.LSHBands != 12 || st.LSHRows != 6 {
		t.Fatalf("geometry change left %d buckets at %dx%d", st.RetrievalTableBuckets, st.LSHBands, st.LSHRows)
	}
	builds := db.hRetrBuild.Count()
	if _, err := db.Query(parse(t, gccStyle)); err != nil {
		t.Fatal(err)
	}
	if got := db.hRetrBuild.Count(); got != builds {
		t.Fatalf("the first query built the retrieval table (%d builds, %d before)", got, builds)
	}
	if db.Stats().RetrievalProbes == 0 {
		t.Fatal("the query did not probe the retrieval table")
	}
	db.ConfigurePrefilter(0, 0, 0)
	if st := db.Stats(); st.RetrievalTableBuckets != 0 {
		t.Fatalf("turning the tier off left the retrieval table resident (%d buckets)", st.RetrievalTableBuckets)
	}
}
