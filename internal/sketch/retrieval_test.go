package sketch

import (
	"reflect"
	"testing"
)

// synthSummaries derives a deterministic summary set from a byte
// string: every 4 bytes become one strand's typed input counts and a
// small synthetic feature set. Shared by the unit tests and the fuzz
// target so corpus entries shrink meaningfully.
func synthSummaries(data []byte, cfg Config) []Summary {
	cfg = cfg.Normalized()
	var sums []Summary
	for i := 0; i+4 <= len(data) && len(sums) < 64; i += 4 {
		nInt := int(data[i] % 5)
		nMem := int(data[i+1] % 3)
		nf := int(data[i+2]%29) + 1
		seed := splitmix64(uint64(data[i+3]) + 1)
		feats := make([]uint64, nf)
		for k := range feats {
			seed = splitmix64(seed)
			feats[k] = seed
		}
		sums = append(sums, Summary{
			Sig:  FromFeatures(feats, cfg),
			NInt: nInt,
			NMem: nMem,
		})
	}
	return sums
}

// soundSet is the injectability-live set: every strand whose typed
// counts inject into the query's or vice versa.
func soundSet(sums []Summary, q Summary) map[int32]bool {
	set := map[int32]bool{}
	for id := range sums {
		if q.Injects(sums[id]) || sums[id].Injects(q) {
			set[int32(id)] = true
		}
	}
	return set
}

// bruteCandidate is the reference probe rule, pair by pair: t is a
// candidate of q when the two share a band bucket under cfg and are
// injectability-live in at least one direction.
func bruteCandidate(cfg Config, q, t Summary) bool {
	cfg = cfg.Normalized()
	if !q.Injects(t) && !t.Injects(q) {
		return false
	}
	for b := 0; b < cfg.Bands; b++ {
		if bandKeyFor(q.Sig, cfg.Rows, b) == bandKeyFor(t.Sig, cfg.Rows, b) {
			return true
		}
	}
	return false
}

func checkProbe(t *testing.T, rx *RetrievalIndex, sums []Summary, self int) {
	t.Helper()
	q := sums[self]
	scratch := make([]bool, rx.Len())
	ids, sound := rx.Probe(q, scratch, nil)

	for _, v := range scratch {
		if v {
			t.Fatal("Probe left scratch dirty")
		}
	}
	want := soundSet(sums, q)
	if sound != len(want) {
		t.Fatalf("Probe reports %d sound candidates, brute force finds %d", sound, len(want))
	}
	got := map[int32]bool{}
	for i, id := range ids {
		if id < 0 || int(id) >= rx.Len() {
			t.Fatalf("candidate id %d out of range [0,%d)", id, rx.Len())
		}
		if i > 0 && ids[i-1] >= id {
			t.Fatal("candidate ids are not sorted and unique")
		}
		got[id] = true
	}
	if !got[int32(self)] {
		t.Fatalf("strand %d does not retrieve itself", self)
	}
	// Exactly the brute-force set: a live strand sharing any band
	// bucket with the query is retrieved, and nothing else is.
	for id := range sums {
		if want := bruteCandidate(rx.Config(), q, sums[id]); got[int32(id)] != want {
			t.Fatalf("strand %d: retrieved=%v, brute-force candidate=%v", id, got[int32(id)], want)
		}
	}
}

func checkRoundTrip(t *testing.T, rx *RetrievalIndex, sums []Summary) {
	t.Helper()
	tab := rx.Table()
	rt, err := FromTable(tab, sums, rx.Config())
	if err != nil {
		t.Fatalf("FromTable rejected the table Table() produced: %v", err)
	}
	if rt.Checksum() != rx.Checksum() {
		t.Fatalf("round-tripped checksum %016x, built %016x", rt.Checksum(), rx.Checksum())
	}
	scratch := make([]bool, rx.Len())
	for id := range sums {
		a, as := rx.Probe(sums[id], scratch, nil)
		b, bs := rt.Probe(sums[id], scratch, nil)
		if as != bs || !reflect.DeepEqual(a, b) {
			t.Fatalf("strand %d probes differently through the adopted table", id)
		}
	}
}

func fuzzConfigs() []Config {
	return []Config{
		{Bands: 4, Rows: 2},
		{Bands: 6, Rows: 3},
		{},
	}
}

// FuzzRetrieval asserts the probe-table invariants for arbitrary
// summary sets: deterministic builds, self-retrieval, sorted unique
// candidate sets that equal the brute-force rule (band collision ∩
// injectability) exactly, an exact injectability-live count, a clean
// scratch buffer after every probe, and Table→FromTable round-trips
// that preserve checksum and probe results.
func FuzzRetrieval(f *testing.F) {
	f.Add([]byte{1, 0, 20, 7, 2, 1, 3, 9, 1, 0, 20, 7})
	f.Add([]byte{0, 0, 1, 1})
	f.Add([]byte{4, 2, 28, 255, 4, 2, 28, 255, 0, 1, 14, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return // bound build cost, not a correctness limit
		}
		for _, cfg := range fuzzConfigs() {
			sums := synthSummaries(data, cfg)
			if len(sums) == 0 {
				return
			}
			rx := BuildRetrieval(sums, cfg)
			if again := BuildRetrieval(sums, cfg); again.Checksum() != rx.Checksum() {
				t.Fatal("BuildRetrieval is not deterministic")
			}
			for id := range sums {
				checkProbe(t, rx, sums, id)
			}
			checkRoundTrip(t, rx, sums)
		}
	})
}

func TestRetrievalProbeMatchesCandidates(t *testing.T) {
	// The probe must return exactly the brute-force candidate set (band
	// collision ∩ injectability), for the same summaries in the same
	// order, and the data must exercise both sides of each test.
	cfg := Config{Bands: 4, Rows: 2}
	data := []byte{
		1, 0, 20, 7, 2, 1, 3, 9, 1, 0, 20, 8, 0, 0, 1, 1,
		3, 2, 25, 77, 1, 1, 9, 4, 2, 0, 17, 5, 4, 1, 28, 6,
	}
	sums := synthSummaries(data, cfg)
	rx := BuildRetrieval(sums, cfg)
	scratch := make([]bool, len(sums))
	var live, dead, kept, cut int
	for qi, q := range sums {
		ids, _ := rx.Probe(q, scratch, nil)
		probed := make([]bool, len(sums))
		for _, id := range ids {
			probed[id] = true
		}
		for id, ts := range sums {
			want := bruteCandidate(cfg, q, ts)
			if probed[id] != want {
				t.Errorf("query %d, strand %d: probed=%v, brute-force candidate=%v", qi, id, probed[id], want)
			}
			switch {
			case !q.Injects(ts) && !ts.Injects(q):
				dead++
			case want:
				kept++
			default:
				cut++
			}
			if q.Injects(ts) || ts.Injects(q) {
				live++
			}
		}
	}
	if dead == 0 || kept == 0 || cut == 0 || live == 0 {
		t.Fatalf("test data is degenerate: %d dead pairs, %d live pairs, %d kept, %d cut by banding", dead, live, kept, cut)
	}
}

func TestFromTableRejectsCorruption(t *testing.T) {
	cfg := Config{Bands: 4, Rows: 2}
	sums := synthSummaries([]byte{1, 0, 20, 7, 2, 1, 3, 9, 1, 0, 18, 8, 3, 1, 22, 2}, cfg)
	rx := BuildRetrieval(sums, cfg)
	base := rx.Table()

	clone := func() RetrievalTable {
		t := base
		t.BandDir = append([]int32(nil), base.BandDir...)
		t.BandKeys = append([]uint64(nil), base.BandKeys...)
		t.BandOffs = append([]int32(nil), base.BandOffs...)
		t.BandIDs = append([]int32(nil), base.BandIDs...)
		return t
	}

	if _, err := FromTable(clone(), sums, cfg); err != nil {
		t.Fatalf("pristine table rejected: %v", err)
	}
	cases := map[string]func(*RetrievalTable){
		"banding mismatch":  func(tb *RetrievalTable) { tb.Bands = 8 },
		"strand count":      func(tb *RetrievalTable) { tb.N++ },
		"truncated dir":     func(tb *RetrievalTable) { tb.BandDir = tb.BandDir[:len(tb.BandDir)-1] },
		"id out of range":   func(tb *RetrievalTable) { tb.BandIDs[0] = int32(tb.N) },
		"flipped id":        func(tb *RetrievalTable) { tb.BandIDs[0], tb.BandIDs[1] = tb.BandIDs[1], tb.BandIDs[0] },
		"stale checksum":    func(tb *RetrievalTable) { tb.Checksum ^= 1 },
		"missing sentinel":  func(tb *RetrievalTable) { tb.BandOffs = tb.BandOffs[:len(tb.BandOffs)-1] },
		"unsorted bandkeys": func(tb *RetrievalTable) { tb.BandKeys[0], tb.BandKeys[1] = tb.BandKeys[1], tb.BandKeys[0] },
	}
	for name, corrupt := range cases {
		tb := clone()
		corrupt(&tb)
		if _, err := FromTable(tb, sums, cfg); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

// TestProbeDelta pins the delta-overlay contract: a table built over a
// prefix of the corpus, probed and then extended with ProbeDelta over
// the full summary slice, must return exactly what a table over the
// whole corpus would (minus zero-count tombstone remnants), sorted and
// duplicate-free.
func TestProbeDelta(t *testing.T) {
	cfg := Config{}.Normalized()
	data := []byte("probe-delta-corpus-material-0123456789abcdefghijklmnop")
	sums := synthSummaries(data, cfg)
	if len(sums) < 8 {
		t.Fatalf("synth corpus too small: %d", len(sums))
	}
	built := len(sums) - 3 // last 3 strands arrive after the build
	rx := BuildRetrieval(sums[:built], cfg)
	counts := make([]int, len(sums))
	for i := range counts {
		counts[i] = 1
	}
	counts[built+1] = 0 // a tombstoned delta strand

	full := BuildRetrieval(sums, cfg)
	deltaHits := 0
	for self := range sums {
		q := sums[self]
		scratch := make([]bool, rx.Len())
		ids, sound := rx.Probe(q, scratch, nil)
		ids, deltaSound := rx.ProbeDelta(q, sums, counts, ids)

		want := map[int32]bool{}
		fullIDs, _ := full.Probe(q, make([]bool, full.Len()), nil)
		for _, id := range fullIDs {
			if counts[id] != 0 {
				want[id] = true
				if int(id) >= built {
					deltaHits++
				}
			}
		}
		got := map[int32]bool{}
		for i, id := range ids {
			if i > 0 && ids[i-1] >= id {
				t.Fatalf("query %d: ids not sorted/unique at %d: %v", self, i, ids)
			}
			got[id] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: overlaid candidates = %v, want %v", self, ids, want)
		}
		_ = sound
		if deltaSound > 2 {
			t.Fatalf("query %d: %d delta sound candidates from a 2-strand live delta", self, deltaSound)
		}
	}
	if deltaHits == 0 {
		t.Fatal("no query retrieved a delta strand; the overlay went untested")
	}

	if rx.Stale(len(sums), 3) {
		t.Fatal("delta of 3 with maxDelta 3 reported stale")
	}
	if !rx.Stale(len(sums), 2) {
		t.Fatal("delta of 3 with maxDelta 2 not reported stale")
	}
	if rx.Stale(len(sums), -1) {
		t.Fatal("negative maxDelta must never report stale")
	}
}
