package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/sketch"
	"repro/internal/stats"
)

// The band-collision tier is the one opt-in that changes rankings: it
// trades recall for candidate lookup whose cost does not grow with the
// corpus. Its candidate sets are pinned exactly (against the
// brute-force rule), and its top-k agreement with the exhaustive oracle
// is pinned above a floor, so a regression shows up as a test failure,
// not as a silent recall cliff in production.

// heuristicFixture is the differential corpus indexed with the
// band-collision tier on, with the differential queries answered by it.
type heuristicFixture struct {
	db  *DB
	got []*Report
}

var (
	heurOnce sync.Once
	heurFix  *heuristicFixture
)

func loadHeuristicFixture(t *testing.T) (*diffFixture, *heuristicFixture) {
	t.Helper()
	fx := loadDiffFixture(t)
	heurOnce.Do(func() {
		hf := &heuristicFixture{db: NewDB(Options{LSHMinContainment: sketch.SuggestedMinContainment})}
		fillDB(t, hf.db, fx.procs)
		for _, q := range fx.queries {
			rep, err := hf.db.Query(q)
			if err != nil {
				t.Fatalf("query %s (band-collision tier): %v", q.Name, err)
			}
			hf.got = append(hf.got, rep)
		}
		heurFix = hf
	})
	if heurFix == nil {
		t.Fatal("band-collision fixture failed to build")
	}
	return fx, heurFix
}

// TestRetrievalDifferential pins the band-collision tier's candidate
// sets: for every unique query strand the retrieval table must return
// exactly the brute-force set (band collision ∩ injectability), the
// engine must score exactly those candidates (the retrieved-candidate
// counter equals the brute-force total), and the tier must do no more
// verifier work than the exhaustive path.
func TestRetrievalDifferential(t *testing.T) {
	fx, hf := loadHeuristicFixture(t)
	db := hf.db
	cfg := db.SketchConfig()
	rx := db.RetrievalIndex()
	scratch := make([]bool, rx.Len())
	want := 0
	for _, q := range fx.queries {
		kept, _, err := decompose(q, db.opts)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, s := range kept {
			key := s.CanonicalKey()
			if seen[key] {
				continue
			}
			seen[key] = true
			qSum := sketch.Summarize(s, cfg)
			brute := map[int32]bool{}
			for j, u := range db.sums {
				if !qSum.Injects(u) && !u.Injects(qSum) {
					continue
				}
				for b := 0; b < cfg.Bands; b++ {
					if slices.Equal(qSum.Sig[b*cfg.Rows:(b+1)*cfg.Rows], u.Sig[b*cfg.Rows:(b+1)*cfg.Rows]) {
						brute[int32(j)] = true
						break
					}
				}
			}
			ids, _ := rx.Probe(qSum, scratch, nil)
			if len(ids) != len(brute) {
				t.Errorf("query %s: probe returned %d candidates, brute force finds %d", q.Name, len(ids), len(brute))
			}
			for _, id := range ids {
				if !brute[id] {
					t.Errorf("query %s: probe returned strand %d, which shares no band or cannot inject", q.Name, id)
				}
			}
			want += len(brute)
		}
	}
	st := db.Stats()
	if st.RetrievalCandidates != uint64(want) {
		t.Errorf("engine retrieved %d candidates, brute force finds %d", st.RetrievalCandidates, want)
	}
	if st.RetrievalProbes == 0 || st.RetrievalTableBuckets == 0 {
		t.Errorf("probe counters did not move: probes=%d buckets=%d", st.RetrievalProbes, st.RetrievalTableBuckets)
	}
	exact := fx.db.Stats().VerifierCalls
	if st.VerifierCalls > exact {
		t.Errorf("the band-collision tier made more verifier calls than the exhaustive path: %d vs %d", st.VerifierCalls, exact)
	}
	t.Logf("verifier calls: exact=%d band-collision=%d (%.1f%% saved); %d probes, %d candidates of %d live",
		exact, st.VerifierCalls, 100*(1-float64(st.VerifierCalls)/float64(exact)),
		st.RetrievalProbes, st.RetrievalCandidates, st.RetrievalSoundCandidates)
}

// TestRetrievalHeuristicRecall pins the recall of the band-collision
// tier against the exhaustive oracle: band-bucket retrieval drops pairs
// with no band collision, so top-k is not guaranteed identical — but it
// must stay close, and any change to the banding or probe rule that
// craters it fails here first.
func TestRetrievalHeuristicRecall(t *testing.T) {
	fx, hf := loadHeuristicFixture(t)
	const topK = 10
	const minRecall = 0.7
	for i, q := range fx.queries {
		truth := map[string]bool{}
		for r, ts := range fx.want[i].Rank(stats.Esh) {
			if r >= topK {
				break
			}
			truth[ts.Target.Name] = true
		}
		hits := 0
		for r, ts := range hf.got[i].Rank(stats.Esh) {
			if r >= topK {
				break
			}
			if truth[ts.Target.Name] {
				hits++
			}
		}
		recall := float64(hits) / float64(len(truth))
		t.Logf("query %s: band-collision top-%d recall %.2f (%d/%d)", q.Name, topK, recall, hits, len(truth))
		if recall < minRecall {
			t.Errorf("query %s: band-collision top-%d recall %.2f below %.2f", q.Name, topK, recall, minRecall)
		}
	}
}

// TestProbeScalingSmoke is the sublinearity check behind the whole
// exercise, sized for CI: growing the corpus by a decoy factor must
// grow band-collision verifier work per query by much less. The full 8×
// curve lives in BenchmarkQueryScale; this smoke asserts the shape.
func TestProbeScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling smoke builds two corpora")
	}
	var tcs []compile.Toolchain
	for _, n := range []string{"gcc-4.9", "clang-3.5"} {
		tc, ok := compile.ByName(n)
		if !ok {
			t.Fatalf("unknown toolchain %q", n)
		}
		tcs = append(tcs, tc)
	}
	build := func(synth int) *DB {
		procs, err := corpus.Build(corpus.BuildConfig{
			Toolchains:     tcs,
			IncludePatched: true,
			SynthVariants:  synth,
		})
		if err != nil {
			t.Fatal(err)
		}
		db := NewDB(Options{
			LSHBands:          12,
			LSHRows:           6,
			LSHMinContainment: sketch.SuggestedMinContainment,
		})
		fillDB(t, db, procs)
		return db
	}
	small := build(4)
	big := build(32)

	qtc, _ := compile.ByName("clang-3.5")
	q, err := corpus.CompileVuln(corpus.Vulns()[0], qtc, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := big.Query(q); err != nil {
		t.Fatal(err)
	}

	smallCalls := float64(small.Stats().VerifierCalls)
	bigCalls := float64(big.Stats().VerifierCalls)
	strandRatio := float64(big.NumUniqueStrands()) / float64(small.NumUniqueStrands())
	callRatio := bigCalls / smallCalls
	t.Logf("strands %d -> %d (%.2fx); probe verifier calls %v -> %v (%.2fx)",
		small.NumUniqueStrands(), big.NumUniqueStrands(), strandRatio,
		smallCalls, bigCalls, callRatio)
	if smallCalls == 0 {
		t.Fatal("small-corpus query made no verifier calls; harness is vacuous")
	}
	if strandRatio < 1.5 {
		t.Fatalf("corpus did not grow (ratio %.2f); adjust SynthVariants", strandRatio)
	}
	if callRatio > 0.75*strandRatio {
		t.Errorf("probe verifier calls grew near-linearly with the corpus: %.2fx calls for %.2fx strands", callRatio, strandRatio)
	}
}
