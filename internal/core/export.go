package core

import (
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/sketch"
	"repro/internal/strand"
	"repro/internal/vcp"
)

// Export is the serializable state of an indexed DB: everything needed
// to rebuild a database that answers queries identically, without
// re-running the disassemble→lift→strand pipeline over the corpus.
// Verifier preparations (compiled programs, fingerprints) are derived
// deterministically from the strands at import time, so they are not
// part of the exported state.
type Export struct {
	Opts Options
	// Shard identifies this snapshot's slice of a split corpus (zero
	// value: unsharded). Counts and multiplicities below are local to
	// the shard; the manifest carries the union view.
	Shard ShardInfo
	// Strands holds the unique strands in index order with their corpus
	// multiplicity; index order is significant (targets reference
	// strands by position, and reports must be reproducible).
	Strands []ExportStrand
	Targets []ExportTarget
	// Retrieval, when non-nil, is the probe table's persistable band
	// structure (snapshot format v4). Nil means "not built" — an
	// importer that needs the table rebuilds it from the strands, which
	// is deterministic and yields an identical table.
	Retrieval *sketch.RetrievalTable
	// Generation is the compaction generation of the exported corpus
	// and WALSeq its journal high-water mark: a snapshot at (g, s)
	// already contains every write with sequence <= s, so startup replay
	// skips them (snapshot format v5; both zero before).
	Generation uint64
	WALSeq     uint64
}

// ExportStrand is one unique strand, its corpus multiplicity, and its
// MinHash signature (may be nil on import — e.g. a version-1 snapshot —
// in which case it is recomputed).
type ExportStrand struct {
	S     *strand.Strand
	Count int
	Sig   sketch.Signature
}

// ExportTarget mirrors Target with the strand index list exported.
type ExportTarget struct {
	Name       string
	Source     asm.Provenance
	NumBlocks  int
	NumStrands int
	StrandIdx  []int
	// StrandMult[k] is the target's multiplicity of StrandIdx[k]. Nil on
	// import (a pre-v3 snapshot) defaults every multiplicity to 1 —
	// which only skews a direct query's H0 weighting on that snapshot,
	// never a gateway merge (the manifest carries the union counts).
	StrandMult []int
}

// Export captures the database state for serialization. The returned
// value aliases the DB's strands and targets; treat it as read-only.
// With tombstones or uncompacted live writes present it exports the
// remapped live view — the corpus a from-scratch rebuild of the
// surviving targets would hold — because Export's invariants (counts
// == per-target multiplicity sums, every strand owned) only hold for
// that view. It takes the write lock, so it serializes against live
// writes but never against queries.
func (db *DB) Export() *Export {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	return db.exportLocked()
}

// exportLocked is Export's body; callers hold writeMu.
func (db *DB) exportLocked() *Export {
	db.cfgMu.RLock()
	defer db.cfgMu.RUnlock()
	lv := db.buildLiveView()
	ex := &Export{
		Opts: db.opts, Shard: db.shard,
		Generation: db.generation, WALSeq: db.walSeq,
	}
	ex.Strands = make([]ExportStrand, len(lv.uniq))
	for i, p := range lv.uniq {
		ex.Strands[i] = ExportStrand{S: p.S, Count: lv.counts[i], Sig: lv.sums[i].Sig}
	}
	if lv.identity && db.retr != nil && db.retr.Len() == len(lv.sums) {
		// The resident probe table only describes the unremapped index;
		// a dirty export leaves Retrieval nil and importers rebuild it
		// deterministically from the strands.
		tab := db.retr.Table()
		ex.Retrieval = &tab
	}
	ex.Targets = make([]ExportTarget, len(lv.targets))
	for i, t := range lv.targets {
		ex.Targets[i] = ExportTarget{
			Name:       t.Name,
			Source:     t.Source,
			NumBlocks:  t.NumBlocks,
			NumStrands: t.NumStrands,
			StrandIdx:  t.strandIdx,
			StrandMult: t.strandMult,
		}
	}
	return ex
}

// FromExport rebuilds a queryable DB from exported state, re-preparing
// every strand (compilation + fingerprints are deterministic, so the
// rebuilt DB produces reports identical to the original). Preparation
// runs in parallel under Opts.Workers.
func FromExport(ex *Export) (*DB, error) {
	db := NewDB(ex.Opts)
	if ex.Shard.Sharded() && (ex.Shard.ID < 0 || ex.Shard.ID >= ex.Shard.Count) {
		return nil, fmt.Errorf("core: import: shard id %d out of range [0,%d)", ex.Shard.ID, ex.Shard.Count)
	}
	db.shard = ex.Shard
	db.generation = ex.Generation
	db.walSeq = ex.WALSeq
	db.uniq = make([]*vcp.Prepared, len(ex.Strands))
	db.counts = make([]int, len(ex.Strands))

	var wg sync.WaitGroup
	sem := make(chan struct{}, db.opts.Workers)
	for i, es := range ex.Strands {
		wg.Add(1)
		go func(i int, s *strand.Strand) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			db.uniq[i] = vcp.Prepare(s, db.opts.VCP)
		}(i, es.S)
	}
	wg.Wait()

	for i, es := range ex.Strands {
		prep := db.uniq[i]
		if err := prep.Err(); err != nil {
			return nil, fmt.Errorf("core: import strand %d: %w", i, err)
		}
		pre, tot := prep.InstrCounts()
		db.mPrefixInstrs.Add(uint64(pre))
		db.mKernelInstrs.Add(uint64(tot))
		if es.Count < 1 {
			return nil, fmt.Errorf("core: import strand %d: multiplicity %d", i, es.Count)
		}
		key := prep.Key()
		if prev, dup := db.byKey[key]; dup {
			return nil, fmt.Errorf("core: import strand %d: duplicate canonical key with strand %d", i, prev)
		}
		db.byKey[key] = i
		db.counts[i] = es.Count
		db.total += es.Count
	}

	// Adopt persisted sketch signatures when they match the configured
	// geometry; recompute otherwise (deterministic, so equivalent).
	sigs := make([]sketch.Signature, len(ex.Strands))
	for i, es := range ex.Strands {
		sigs[i] = es.Sig
	}
	db.rebuildSketches(sigs)

	// With the band-collision tier on, adopt the persisted probe table
	// when present and consistent with the summaries just rebuilt, and
	// fall back to rebuilding it (pre-v4 snapshots, or a corrupt table)
	// — either way before the DB serves its first query. Without the
	// tier nothing reads the table, so a persisted one is left unloaded.
	if db.sketchCfg.MinContainment > 0 {
		if ex.Retrieval != nil {
			if rx, err := sketch.FromTable(*ex.Retrieval, db.sums, db.sketchCfg); err == nil {
				db.retr = rx
			}
		}
		db.ensureRetrievalLocked()
	}

	// Per-target multiplicities: all-or-nothing per snapshot (the v3
	// writer always emits them). When present they must reproduce the
	// per-strand counts exactly — the invariant a shard split relies on.
	haveMults := len(ex.Targets) > 0
	for _, et := range ex.Targets {
		if et.StrandMult == nil {
			haveMults = false
			break
		}
	}
	multSum := make([]int, len(db.uniq))
	for ti, et := range ex.Targets {
		t := &Target{
			Name:       et.Name,
			Source:     et.Source,
			NumBlocks:  et.NumBlocks,
			NumStrands: et.NumStrands,
		}
		if et.StrandMult != nil && len(et.StrandMult) != len(et.StrandIdx) {
			return nil, fmt.Errorf("core: import target %d (%s): %d multiplicities for %d strand indices",
				ti, et.Name, len(et.StrandMult), len(et.StrandIdx))
		}
		seen := make(map[int]bool, len(et.StrandIdx))
		for k, idx := range et.StrandIdx {
			if idx < 0 || idx >= len(db.uniq) {
				return nil, fmt.Errorf("core: import target %d (%s): strand index %d out of range [0,%d)",
					ti, et.Name, idx, len(db.uniq))
			}
			if seen[idx] {
				return nil, fmt.Errorf("core: import target %d (%s): duplicate strand index %d", ti, et.Name, idx)
			}
			seen[idx] = true
			m := 1
			if et.StrandMult != nil {
				m = et.StrandMult[k]
				if m < 1 {
					return nil, fmt.Errorf("core: import target %d (%s): multiplicity %d for strand %d", ti, et.Name, m, idx)
				}
			}
			t.strandMult = append(t.strandMult, m)
			multSum[idx] += m
		}
		t.strandIdx = append(t.strandIdx, et.StrandIdx...)
		db.targets = append(db.targets, t)
	}
	if haveMults {
		for j, want := range db.counts {
			if multSum[j] != want {
				return nil, fmt.Errorf("core: import: strand %d multiplicities sum to %d, count is %d", j, multSum[j], want)
			}
		}
	}
	return db, nil
}
