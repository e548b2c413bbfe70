// Retrieval index: the band-collision tier's candidate source. Posting
// lists keyed by LSH band bucket are built once over all target strands,
// and a query strand probes them for its candidate set without touching
// the rest of the corpus.
//
// A probe returns exactly the injectability-live strands that share at
// least one band bucket with the query. An identical target strand
// always self-retrieves — identical signatures collide in every band —
// and the recall gap against the exhaustive walk is pinned by the
// differential harness in internal/core. The table also keeps the
// typed-input classes (one per distinct (ints, mems) pair), so a probe
// can report the size of the injectability-live set it drew from
// without enumerating it.
//
// All posting lists live in flat slabs ([]int32 id runs addressed by
// offset) rather than per-bucket map slices: the table is immutable
// after build, cheap to persist, and probe touches contiguous memory.
package sketch

import (
	"fmt"
	"sort"
)

// retrClass is one typed-input class: the n strands whose inputs are
// exactly nInt bitvectors and nMem memories.
type retrClass struct {
	nInt, nMem, n int32
}

// RetrievalIndex is an immutable probe table over strand summaries.
// Build it with BuildRetrieval (or adopt a persisted table with
// FromTable); Probe is safe for concurrent use.
type RetrievalIndex struct {
	cfg Config
	n   int

	// Typed-input classes, in no particular order.
	classes []retrClass

	// Per-band sorted bucket directories over one flat id slab. Band
	// b's buckets are bandKeys[bandDir[b]:bandDir[b+1]] (sorted,
	// unique); bucket i's posting run is
	// bandIDs[bandOffs[i]:bandOffs[i+1]] (bandOffs has a final
	// sentinel).
	bandDir  []int32
	bandKeys []uint64
	bandOffs []int32
	bandIDs  []int32

	// Typed counts in SoA form for the probe's liveness filter.
	nInt, nMem []int32

	checksum uint64
}

// bandKeyFor hashes one band's rows of a signature.
func bandKeyFor(sig Signature, rows, b int) uint64 {
	h := uint64(14695981039346656037) ^ uint64(b)<<32
	for _, v := range sig[b*rows : (b+1)*rows] {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// BuildRetrieval constructs the probe table over sums under cfg. It is
// deterministic: the same summaries in the same order always produce
// the same table (and checksum), which is what lets a persisted table
// and a load-time rebuild be used interchangeably.
func BuildRetrieval(sums []Summary, cfg Config) *RetrievalIndex {
	cfg = cfg.Normalized()
	k := cfg.Len()
	rx := &RetrievalIndex{cfg: cfg, n: len(sums)}
	for _, s := range sums {
		if len(s.Sig) != k {
			panic(fmt.Sprintf("sketch: signature length %d does not match config %dx%d",
				len(s.Sig), cfg.Bands, cfg.Rows))
		}
	}
	rx.setCounts(sums)

	// Band buckets: sort (key, id) pairs per band, then cut runs into
	// the shared slab.
	type pair struct {
		key uint64
		id  int32
	}
	pairs := make([]pair, len(sums))
	rx.bandDir = make([]int32, cfg.Bands+1)
	rx.bandIDs = make([]int32, 0, len(sums)*cfg.Bands)
	for b := 0; b < cfg.Bands; b++ {
		for id, s := range sums {
			pairs[id] = pair{key: bandKeyFor(s.Sig, cfg.Rows, b), id: int32(id)}
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].key != pairs[j].key {
				return pairs[i].key < pairs[j].key
			}
			return pairs[i].id < pairs[j].id
		})
		for i := 0; i < len(pairs); {
			j := i
			for j < len(pairs) && pairs[j].key == pairs[i].key {
				j++
			}
			rx.bandKeys = append(rx.bandKeys, pairs[i].key)
			rx.bandOffs = append(rx.bandOffs, int32(len(rx.bandIDs)))
			for ; i < j; i++ {
				rx.bandIDs = append(rx.bandIDs, pairs[i].id)
			}
		}
		rx.bandDir[b+1] = int32(len(rx.bandKeys))
	}
	rx.bandOffs = append(rx.bandOffs, int32(len(rx.bandIDs))) // sentinel
	rx.checksum = rx.computeChecksum()
	return rx
}

// Len returns the number of indexed strands.
func (rx *RetrievalIndex) Len() int { return rx.n }

// Stale reports whether the table has fallen too far behind a corpus
// that now holds total strands. The table is immutable — live writes
// cannot batch-append into its sorted slabs — so the engine overlays
// written-since-build strands onto every probe (ProbeDelta) and
// rebuilds the table once the overlay exceeds maxDelta strands, the
// point where per-probe overlay work starts to erode the table's
// sublinearity. maxDelta < 0 means never (the overlay runs until
// compaction rebuilds the table anyway).
func (rx *RetrievalIndex) Stale(total, maxDelta int) bool {
	return maxDelta >= 0 && total-rx.n > maxDelta
}

// ProbeDelta extends a Probe result with the delta overlay: strands
// with ids in [Len(), len(sums)) — written live after the table was
// built; the corpus arrays are append-only within a generation — pass
// by the same rule the table applies (injectability-live and sharing a
// band bucket with the query), skipping ids whose counts entry is zero
// (tombstoned remnants). A live-written corpus therefore retrieves
// exactly what a table rebuilt over it would. ids must be a Probe
// result over this table, so the returned slice stays sorted and
// duplicate-free (all delta ids are larger than any table id). Returns
// the extended ids and the number of injectability-live delta strands.
func (rx *RetrievalIndex) ProbeDelta(sum Summary, sums []Summary, counts []int, ids []int32) ([]int32, int) {
	if len(sums) <= rx.n {
		return ids, 0
	}
	keys := make([]uint64, rx.cfg.Bands)
	for b := range keys {
		keys[b] = bandKeyFor(sum.Sig, rx.cfg.Rows, b)
	}
	sound := 0
	for j := rx.n; j < len(sums); j++ {
		if counts[j] == 0 || !(sum.Injects(sums[j]) || sums[j].Injects(sum)) {
			continue
		}
		sound++
		for b, key := range keys {
			if bandKeyFor(sums[j].Sig, rx.cfg.Rows, b) == key {
				ids = append(ids, int32(j))
				break
			}
		}
	}
	return ids, sound
}

// Config returns the banding configuration the table was built under.
func (rx *RetrievalIndex) Config() Config { return rx.cfg }

// Checksum returns the table checksum (a pure function of the band
// structures and dimensions).
func (rx *RetrievalIndex) Checksum() uint64 { return rx.checksum }

func (rx *RetrievalIndex) computeChecksum() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
		h = splitmix64(h)
	}
	mix(uint64(rx.n))
	mix(uint64(rx.cfg.Bands))
	mix(uint64(rx.cfg.Rows))
	for _, v := range rx.bandDir {
		mix(uint64(uint32(v)))
	}
	for _, v := range rx.bandKeys {
		mix(v)
	}
	for _, v := range rx.bandOffs {
		mix(uint64(uint32(v)))
	}
	for _, v := range rx.bandIDs {
		mix(uint64(uint32(v)))
	}
	return h
}

func (rx *RetrievalIndex) live(sum Summary, id int32) bool {
	ti, tm := rx.nInt[id], rx.nMem[id]
	return (int32(sum.NInt) <= ti && int32(sum.NMem) <= tm) ||
		(ti <= int32(sum.NInt) && tm <= int32(sum.NMem))
}

// Probe appends the candidate ids for the query strand summarized by
// sum to out — the injectability-live strands sharing at least one band
// bucket with it — and returns the (sorted, duplicate-free) result
// along with the size of the injectability-live set the candidates are
// drawn from (candidates/sound is the engine's recall proxy). scratch
// must be at least Len() long and all-false; it is restored to
// all-false before returning.
func (rx *RetrievalIndex) Probe(sum Summary, scratch []bool, out []int32) (ids []int32, sound int) {
	if len(sum.Sig) != rx.cfg.Len() {
		panic(fmt.Sprintf("sketch: signature length %d does not match config %dx%d",
			len(sum.Sig), rx.cfg.Bands, rx.cfg.Rows))
	}
	qi, qm := int32(sum.NInt), int32(sum.NMem)
	for _, c := range rx.classes {
		if (qi <= c.nInt && qm <= c.nMem) || (c.nInt <= qi && c.nMem <= qm) {
			sound += int(c.n)
		}
	}
	// Band-bucket collisions, deduplicated through scratch and filtered
	// to the live set.
	start := len(out)
	collect := func(id int32) {
		if !scratch[id] {
			scratch[id] = true
			if rx.live(sum, id) {
				out = append(out, id)
			}
		}
	}
	for b := 0; b < rx.cfg.Bands; b++ {
		key := bandKeyFor(sum.Sig, rx.cfg.Rows, b)
		lo, hi := rx.bandDir[b], rx.bandDir[b+1]
		keys := rx.bandKeys[lo:hi]
		i := sort.Search(len(keys), func(i int) bool { return keys[i] >= key })
		if i == len(keys) || keys[i] != key {
			continue
		}
		bi := int(lo) + i
		for _, id := range rx.bandIDs[rx.bandOffs[bi]:rx.bandOffs[bi+1]] {
			collect(id)
		}
	}
	// Un-mark everything touched: live hits are in out, the dead ones
	// must be rediscovered by re-walking the same buckets. Cheaper than
	// clearing all of scratch when candidate sets are small.
	for b := 0; b < rx.cfg.Bands; b++ {
		key := bandKeyFor(sum.Sig, rx.cfg.Rows, b)
		lo, hi := rx.bandDir[b], rx.bandDir[b+1]
		keys := rx.bandKeys[lo:hi]
		i := sort.Search(len(keys), func(i int) bool { return keys[i] >= key })
		if i == len(keys) || keys[i] != key {
			continue
		}
		bi := int(lo) + i
		for _, id := range rx.bandIDs[rx.bandOffs[bi]:rx.bandOffs[bi+1]] {
			scratch[id] = false
		}
	}
	cands := out[start:]
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	return out, sound
}

// RetrievalStats summarizes the table's shape for operators: degenerate
// banding (one giant bucket) shows up as posting-list skew long before
// it shows up as query latency.
type RetrievalStats struct {
	Strands     int
	Bands       int
	Rows        int
	Classes     int     // distinct typed-input classes
	Buckets     int     // non-empty band buckets
	MaxPosting  int     // longest posting list
	MeanPosting float64 // mean posting-list length
	Skew        float64 // MaxPosting / MeanPosting (1 = perfectly even)
	Checksum    uint64
}

// Stats returns the table's shape summary.
func (rx *RetrievalIndex) Stats() RetrievalStats {
	st := RetrievalStats{
		Strands:  rx.n,
		Bands:    rx.cfg.Bands,
		Rows:     rx.cfg.Rows,
		Classes:  len(rx.classes),
		Buckets:  len(rx.bandKeys),
		Checksum: rx.checksum,
	}
	for i := range rx.bandKeys {
		n := int(rx.bandOffs[i+1] - rx.bandOffs[i])
		if n > st.MaxPosting {
			st.MaxPosting = n
		}
	}
	if st.Buckets > 0 {
		st.MeanPosting = float64(len(rx.bandIDs)) / float64(st.Buckets)
		st.Skew = float64(st.MaxPosting) / st.MeanPosting
	}
	return st
}

// RetrievalTable is the persistable form of the band structures: plain
// slices with no behavior, encoded into snapshot format v4 by
// internal/index. The typed-input classes are NOT part of the table —
// they are an O(n) derivation of the summaries, which the snapshot
// already persists, and FromTable rebuilds them on adopt.
type RetrievalTable struct {
	Bands, Rows int
	N           int
	BandDir     []int32
	BandKeys    []uint64
	BandOffs    []int32
	BandIDs     []int32
	Checksum    uint64
}

// Table returns the index's persistable band structures. The slices
// alias the index; treat them as read-only.
func (rx *RetrievalIndex) Table() RetrievalTable {
	return RetrievalTable{
		Bands:    rx.cfg.Bands,
		Rows:     rx.cfg.Rows,
		N:        rx.n,
		BandDir:  rx.bandDir,
		BandKeys: rx.bandKeys,
		BandOffs: rx.bandOffs,
		BandIDs:  rx.bandIDs,
		Checksum: rx.checksum,
	}
}

// FromTable adopts a persisted band table, skipping the build-time
// sort, and rebuilds the summary-derived parts (typed counts and
// classes) from sums. The table is validated structurally and
// against its checksum; any mismatch — including a table persisted
// under a different banding than cfg — is an error, and the caller
// should fall back to BuildRetrieval.
func FromTable(tab RetrievalTable, sums []Summary, cfg Config) (*RetrievalIndex, error) {
	cfg = cfg.Normalized()
	if tab.Bands != cfg.Bands || tab.Rows != cfg.Rows {
		return nil, fmt.Errorf("sketch: retrieval table banding %dx%d does not match config %dx%d",
			tab.Bands, tab.Rows, cfg.Bands, cfg.Rows)
	}
	if tab.N != len(sums) {
		return nil, fmt.Errorf("sketch: retrieval table covers %d strands, have %d summaries", tab.N, len(sums))
	}
	if len(tab.BandDir) != tab.Bands+1 || tab.BandDir[0] != 0 || int(tab.BandDir[tab.Bands]) != len(tab.BandKeys) {
		return nil, fmt.Errorf("sketch: retrieval table band directory is malformed")
	}
	if len(tab.BandOffs) != len(tab.BandKeys)+1 || len(tab.BandIDs) != tab.N*tab.Bands ||
		(len(tab.BandOffs) > 0 && int(tab.BandOffs[len(tab.BandOffs)-1]) != len(tab.BandIDs)) {
		return nil, fmt.Errorf("sketch: retrieval table posting slab is malformed")
	}
	for b := 0; b < tab.Bands; b++ {
		lo, hi := tab.BandDir[b], tab.BandDir[b+1]
		if lo > hi || int(hi) > len(tab.BandKeys) {
			return nil, fmt.Errorf("sketch: retrieval table band %d directory out of range", b)
		}
		for i := lo + 1; i < hi; i++ {
			if tab.BandKeys[i-1] >= tab.BandKeys[i] {
				return nil, fmt.Errorf("sketch: retrieval table band %d keys are not sorted", b)
			}
		}
	}
	for i := 1; i < len(tab.BandOffs); i++ {
		if tab.BandOffs[i-1] > tab.BandOffs[i] {
			return nil, fmt.Errorf("sketch: retrieval table posting offsets are not monotonic")
		}
	}
	for _, id := range tab.BandIDs {
		if id < 0 || int(id) >= tab.N {
			return nil, fmt.Errorf("sketch: retrieval table posting id %d out of range [0,%d)", id, tab.N)
		}
	}

	// Rebuild the summary-derived parts: O(n), where the band sort the
	// adopt skips is the O(n·B·log n) part.
	for id, s := range sums {
		if len(s.Sig) != cfg.Len() {
			return nil, fmt.Errorf("sketch: summary %d signature length %d does not match config %dx%d",
				id, len(s.Sig), cfg.Bands, cfg.Rows)
		}
	}
	rx := &RetrievalIndex{
		cfg:      cfg,
		n:        tab.N,
		bandDir:  tab.BandDir,
		bandKeys: tab.BandKeys,
		bandOffs: tab.BandOffs,
		bandIDs:  tab.BandIDs,
	}
	rx.setCounts(sums)
	rx.checksum = rx.computeChecksum()
	if tab.Checksum != 0 && rx.checksum != tab.Checksum {
		return nil, fmt.Errorf("sketch: retrieval table checksum mismatch: table says %016x, content hashes to %016x",
			tab.Checksum, rx.checksum)
	}
	return rx, nil
}

// setCounts fills the typed counts and the typed-input classes from
// the summaries (shared by BuildRetrieval and FromTable's adopt path).
func (rx *RetrievalIndex) setCounts(sums []Summary) {
	type classKey struct{ nInt, nMem int32 }
	rx.nInt = make([]int32, len(sums))
	rx.nMem = make([]int32, len(sums))
	counts := map[classKey]int32{}
	for id, s := range sums {
		rx.nInt[id], rx.nMem[id] = int32(s.NInt), int32(s.NMem)
		counts[classKey{rx.nInt[id], rx.nMem[id]}]++
	}
	rx.classes = make([]retrClass, 0, len(counts))
	for ck, n := range counts {
		rx.classes = append(rx.classes, retrClass{nInt: ck.nInt, nMem: ck.nMem, n: n})
	}
}
