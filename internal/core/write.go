package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/sketch"
	"repro/internal/vcp"
)

// This file is the live write path: durable, crash-safe corpus mutation
// under a serving daemon. The concurrency contract is two locks with a
// fixed order:
//
//   - writeMu serializes writers (ApplyAdd, ApplyRemove, Replay*,
//     Compact, Export, the Configure* calls). Validation, journaling and
//     sketch building all happen under writeMu alone, so queries keep
//     flowing through the expensive part of a write.
//   - cfgMu (held second, briefly) publishes the new state. Everything a
//     query reads is snapshotted once at entry under cfgMu.RLock; writers
//     install fresh slices (copy-on-write) or append beyond the lengths
//     snapshotted readers hold, so an in-flight query's view stays
//     internally consistent for its whole lifetime.
//
// Durability is write-ahead: a write is acknowledged only after its
// journal record is on disk (per the journal's fsync policy) AND applied
// in memory. The in-memory apply step is infallible by construction —
// every fallible operation (decompose, prepare, summarize, journal I/O)
// runs before it — so an acknowledged write can never be half-applied.

// Journal is the write-ahead log the DB appends to before applying a
// write in memory. Implemented by an adapter over internal/wal; kept as
// an interface so core carries no dependency on the log format and tests
// can inject failures. Both methods return the record's sequence number;
// on error nothing may have been written and the write is not applied.
type Journal interface {
	LogAdd(name, body string) (uint64, error)
	LogRemove(name string) (uint64, error)
}

// ErrDuplicateTarget is returned by ApplyAdd when a live target with the
// same name is already indexed (the server maps it to 409).
var ErrDuplicateTarget = errors.New("core: duplicate target name")

// ErrTargetNotFound is returned by ApplyRemove when no live target has
// the given name (the server maps it to 404).
var ErrTargetNotFound = errors.New("core: target not found")

// ErrJournal wraps write-ahead-log append failures (the server maps it
// to 500: the write was valid but could not be made durable, and was
// not applied).
var ErrJournal = errors.New("core: journal append failed")

// SetJournal installs the write-ahead journal acknowledged writes are
// logged to. A nil journal (the default) makes writes memory-only —
// the replay path and tests use that.
func (db *DB) SetJournal(j Journal) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.journal = j
}

// ApplyAdd indexes one procedure through the live write path: validate
// and prepare, journal, then apply in memory. On any error the corpus is
// unchanged and nothing was acknowledged. Safe to call concurrently with
// Query; concurrent writers serialize.
func (db *DB) ApplyAdd(p *asm.Proc) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	_, err := db.applyAdd(p, true, 0)
	return err
}

// ReplayAdd re-applies a journaled add during startup replay: identical
// in-memory effect to the ApplyAdd that produced the record, minus the
// journaling. seq becomes the new high-water mark.
func (db *DB) ReplayAdd(p *asm.Proc, seq uint64) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	_, err := db.applyAdd(p, false, seq)
	return err
}

// ApplyRemove tombstones every live target with the given name and
// returns how many it removed. The targets' strands stay resident until
// the next compaction but stop contributing to candidates, scores and
// the H0 normalisation immediately — post-remove scores are
// bit-identical to a from-scratch rebuild of the surviving corpus.
func (db *DB) ApplyRemove(name string) (int, error) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	return db.applyRemove(name, true, 0)
}

// ReplayRemove re-applies a journaled tombstone during startup replay.
func (db *DB) ReplayRemove(name string, seq uint64) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	_, err := db.applyRemove(name, false, seq)
	return err
}

// applyAdd is the shared body of ApplyAdd and ReplayAdd; callers hold
// writeMu. Ordering is the durability argument: (1) reject duplicates,
// (2) run every fallible step (decompose, prepare, summarize), (3)
// journal, (4) apply in memory — step 4 cannot fail, so a journaled
// write is always fully applied before it is acknowledged.
func (db *DB) applyAdd(p *asm.Proc, journal bool, replaySeq uint64) (uint64, error) {
	for ti, t := range db.targets {
		if t.Name == p.Name && (db.live == nil || db.live[ti]) {
			return 0, fmt.Errorf("%w: %s", ErrDuplicateTarget, p.Name)
		}
	}

	kept, nBlocks, err := decompose(p, db.opts)
	if err != nil {
		return 0, fmt.Errorf("core: add %s: %w", p.Name, err)
	}

	// Prepare and summarize every novel strand up front. newByKey maps
	// a novel canonical key to its position in the pending slices; keys
	// already indexed resolve through byKey (stable under writeMu).
	type pending struct {
		prep *vcp.Prepared
		sum  sketch.Summary
	}
	var news []pending
	newByKey := map[string]int{}
	keys := make([]string, len(kept))
	for i, s := range kept {
		key := s.CanonicalKey()
		keys[i] = key
		if _, ok := db.byKey[key]; ok {
			continue
		}
		if _, ok := newByKey[key]; ok {
			continue
		}
		prep := vcp.Prepare(s, db.opts.VCP)
		if prep.Err() != nil {
			return 0, fmt.Errorf("core: add %s: prepare strand: %w", p.Name, prep.Err())
		}
		skStart := time.Now()
		sum := sketch.Summarize(s, db.sketchCfg)
		db.hSketchBuild.Observe(time.Since(skStart).Seconds())
		newByKey[key] = len(news)
		news = append(news, pending{prep: prep, sum: sum})
	}

	// Heavy shared-structure rebuilds, still outside cfgMu: a
	// stale-enough probe table is rebuilt eagerly rather than growing
	// the per-query delta overlay without bound.
	var (
		newUniq  []*vcp.Prepared
		newSums  []sketch.Summary
		newRetr  *sketch.RetrievalIndex
		haveRetr bool
	)
	if len(news) > 0 {
		newUniq = make([]*vcp.Prepared, 0, len(db.uniq)+len(news))
		newUniq = append(newUniq, db.uniq...)
		newSums = make([]sketch.Summary, 0, len(db.sums)+len(news))
		newSums = append(newSums, db.sums...)
		for _, pd := range news {
			newUniq = append(newUniq, pd.prep)
			newSums = append(newSums, pd.sum)
		}
		if db.retr != nil {
			maxDelta := db.opts.RetrievalMaxDelta
			if maxDelta == 0 {
				maxDelta = DefaultRetrievalMaxDelta
			}
			if db.retr.Stale(len(newSums), maxDelta) {
				newRetr = db.buildRetrieval(newSums, db.sketchCfg)
				haveRetr = true
			}
		}
	}

	seq := replaySeq
	if journal && db.journal != nil {
		seq, err = db.journal.LogAdd(p.Name, p.String())
		if err != nil {
			return 0, fmt.Errorf("%w: add %s: %v", ErrJournal, p.Name, err)
		}
	}

	// Infallible in-memory apply. counts is cloned (readers hold the old
	// slice); uniq/sums swap to the extended copies built above.
	db.cfgMu.Lock()
	newCounts := make([]int, len(db.counts), len(db.counts)+len(news))
	copy(newCounts, db.counts)
	if len(news) > 0 {
		newCounts = newCounts[:len(db.counts)+len(news)]
		base := len(db.uniq)
		for key, k := range newByKey {
			db.byKey[key] = base + k
		}
		db.uniq = newUniq
		db.sums = newSums
		if haveRetr {
			db.retr = newRetr
		}
		for _, pd := range news {
			pre, tot := pd.prep.InstrCounts()
			db.mPrefixInstrs.Add(uint64(pre))
			db.mKernelInstrs.Add(uint64(tot))
		}
	}
	t := &Target{
		Name:       p.Name,
		Source:     p.Source,
		NumBlocks:  nBlocks,
		NumStrands: len(kept),
	}
	pos := map[int]int{}
	for _, key := range keys {
		idx := db.byKey[key]
		newCounts[idx]++
		db.total++
		if k, dup := pos[idx]; dup {
			t.strandMult[k]++
		} else {
			pos[idx] = len(t.strandIdx)
			t.strandIdx = append(t.strandIdx, idx)
			t.strandMult = append(t.strandMult, 1)
		}
	}
	db.counts = newCounts
	db.targets = append(db.targets, t)
	if db.live != nil {
		db.live = append(db.live, true)
		db.h0Order = db.computeH0Order()
	}
	db.pendingWrites++
	if seq != 0 {
		db.walSeq = seq
	}
	db.cfgMu.Unlock()
	db.mWritesAdd.Inc()
	return seq, nil
}

// applyRemove is the shared body of ApplyRemove and ReplayRemove;
// callers hold writeMu. Same ordering as applyAdd: journal first, then
// an infallible in-memory apply.
func (db *DB) applyRemove(name string, journal bool, replaySeq uint64) (int, error) {
	var hits []int
	for ti, t := range db.targets {
		if t.Name == name && (db.live == nil || db.live[ti]) {
			hits = append(hits, ti)
		}
	}
	if len(hits) == 0 {
		return 0, fmt.Errorf("%w: %s", ErrTargetNotFound, name)
	}

	seq := replaySeq
	if journal && db.journal != nil {
		var err error
		seq, err = db.journal.LogRemove(name)
		if err != nil {
			return 0, fmt.Errorf("%w: remove %s: %v", ErrJournal, name, err)
		}
	}

	db.cfgMu.Lock()
	newLive := make([]bool, len(db.targets))
	if db.live == nil {
		for i := range newLive {
			newLive[i] = true
		}
	} else {
		copy(newLive, db.live)
	}
	newCounts := make([]int, len(db.counts))
	copy(newCounts, db.counts)
	for _, ti := range hits {
		newLive[ti] = false
		t := db.targets[ti]
		for k, j := range t.strandIdx {
			newCounts[j] -= t.strandMult[k]
			db.total -= t.strandMult[k]
		}
	}
	db.counts = newCounts
	db.live = newLive
	db.tombstones += len(hits)
	db.h0Order = db.computeH0Order()
	db.pendingWrites++
	if seq != 0 {
		db.walSeq = seq
	}
	db.cfgMu.Unlock()
	db.mWritesDel.Inc()
	return len(hits), nil
}

// computeH0Order derives the H0 accumulation permutation for the
// current tombstone state: the surviving strands in the first-seen order
// a from-scratch rebuild of the live targets (in add order) would assign
// them. Within a target, strandIdx is already first-occurrence order, so
// walking live targets in order and taking each strand's first
// appearance reproduces the rebuild's AddTarget order exactly. Returns
// nil when no tombstones exist (index order is already the rebuild
// order). Callers hold writeMu; the result is a fresh slice, installed
// under cfgMu by the caller-side apply step.
func (db *DB) computeH0Order() []int32 {
	if db.live == nil {
		return nil
	}
	order := make([]int32, 0, len(db.uniq))
	seen := make([]bool, len(db.uniq))
	for ti, t := range db.targets {
		if !db.live[ti] {
			continue
		}
		for _, j := range t.strandIdx {
			if !seen[j] {
				seen[j] = true
				order = append(order, int32(j))
			}
		}
	}
	return order
}

// liveView is the remapped, rebuild-equivalent form of a possibly-dirty
// corpus: dead targets dropped, dead strands dropped, surviving strands
// renumbered into the first-seen order a from-scratch rebuild would use.
// identity reports that no remapping was needed (no tombstones) and the
// slices alias the DB's own.
type liveView struct {
	identity bool
	uniq     []*vcp.Prepared
	counts   []int
	sums     []sketch.Summary
	byKey    map[string]int
	targets  []*Target
	total    int
}

// buildLiveView computes the live view; callers hold writeMu (which
// freezes every field read here).
func (db *DB) buildLiveView() liveView {
	if db.live == nil {
		return liveView{
			identity: true,
			uniq:     db.uniq, counts: db.counts, sums: db.sums,
			byKey: db.byKey, targets: db.targets, total: db.total,
		}
	}
	order := db.computeH0Order() // old index of the k-th surviving strand
	newIdx := make([]int, len(db.uniq))
	for i := range newIdx {
		newIdx[i] = -1
	}
	for k, j := range order {
		newIdx[j] = k
	}
	lv := liveView{
		uniq:   make([]*vcp.Prepared, len(order)),
		counts: make([]int, len(order)),
		sums:   make([]sketch.Summary, len(order)),
		byKey:  make(map[string]int, len(order)),
	}
	for k, j := range order {
		lv.uniq[k] = db.uniq[j]
		lv.counts[k] = db.counts[j]
		lv.sums[k] = db.sums[j]
		lv.byKey[lv.uniq[k].Key()] = k
		lv.total += lv.counts[k]
	}
	lv.targets = make([]*Target, 0, len(db.targets)-db.tombstones)
	for ti, t := range db.targets {
		if !db.live[ti] {
			continue
		}
		nt := &Target{
			Name:       t.Name,
			Source:     t.Source,
			NumBlocks:  t.NumBlocks,
			NumStrands: t.NumStrands,
			strandIdx:  make([]int, len(t.strandIdx)),
			strandMult: append([]int(nil), t.strandMult...),
		}
		for k, j := range t.strandIdx {
			nt.strandIdx[k] = newIdx[j]
		}
		lv.targets = append(lv.targets, nt)
	}
	return lv
}

// Compact folds the uncompacted writes and tombstones into a new
// snapshot generation: remap the corpus to its rebuild-equivalent live
// view, persist it (persist is typically index.SaveExportFile — an
// atomic temp+rename), atomically swap the in-memory state to the
// remapped form, then let cleanup truncate the journal up to the
// persisted high-water mark (typically wal.Log.Rewrite). Queries never
// block: in-flight ones finish on the old state, later ones snapshot the
// new. Writers stall for the duration (writeMu is held throughout,
// which is also what keeps journal appends from racing the truncation).
//
// Crash safety, window by window: before persist's rename the old
// snapshot plus a full journal replay reproduce everything; after the
// rename but before cleanup the new snapshot's recorded high-water mark
// makes startup replay skip the already-folded records. Either way no
// acknowledged write is lost.
//
// Returns the new generation and the folded high-water mark. With
// nothing to compact it returns immediately without bumping the
// generation. A persist error aborts the compaction with the in-memory
// state untouched; a cleanup error is returned but the swap has already
// happened (harmless: stale journal records are skipped on replay).
func (db *DB) Compact(persist func(*Export) error, cleanup func(hwm uint64) error) (gen, hwm uint64, err error) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()

	db.cfgMu.RLock()
	pending, tombs := db.pendingWrites, db.tombstones
	gen, hwm = db.generation, db.walSeq
	db.cfgMu.RUnlock()
	if pending == 0 && tombs == 0 {
		return gen, hwm, nil
	}
	start := time.Now()
	gen++

	lv := db.buildLiveView()
	if persist != nil {
		ex := &Export{
			Opts: db.opts, Shard: db.shard,
			Generation: gen, WALSeq: hwm,
		}
		ex.Strands = make([]ExportStrand, len(lv.uniq))
		for i, p := range lv.uniq {
			ex.Strands[i] = ExportStrand{S: p.S, Count: lv.counts[i], Sig: lv.sums[i].Sig}
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
		if err := persist(ex); err != nil {
			return gen - 1, hwm, fmt.Errorf("core: compact: persist: %w", err)
		}
	}

	// Rebuild the probe table over the remapped corpus (outside cfgMu —
	// queries keep running on the old state). It depends on strand
	// numbering, so a non-identity remap invalidates it.
	newRetr := db.retr
	if !lv.identity {
		newRetr = nil
	}
	if (db.retr != nil || db.sketchCfg.MinContainment > 0) &&
		(newRetr == nil || newRetr.Len() != len(lv.sums)) {
		newRetr = db.buildRetrieval(lv.sums, db.sketchCfg)
	}

	db.cfgMu.Lock()
	db.uniq = lv.uniq
	db.counts = lv.counts
	db.sums = lv.sums
	db.byKey = lv.byKey
	db.targets = lv.targets
	db.total = lv.total
	db.retr = newRetr
	db.sketchGen++ // stale snapshots must not adopt a remapped table
	db.live = nil
	db.h0Order = nil
	db.tombstones = 0
	db.pendingWrites = 0
	db.generation = gen
	db.cfgMu.Unlock()

	db.mCompactions.Inc()
	db.hCompact.Observe(time.Since(start).Seconds())
	if cleanup != nil {
		if err := cleanup(hwm); err != nil {
			return gen, hwm, fmt.Errorf("core: compact: journal cleanup (state already swapped): %w", err)
		}
	}
	return gen, hwm, nil
}
