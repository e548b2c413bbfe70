package vcp

import (
	"sync"
	"sync/atomic"
)

// Row-scoped fingerprint memo.
//
// A query strand's fingerprint vector under a correspondence γ is a pure
// function of (its compiled program, the slot-index vector γ assigns to
// its inputs, the sample count): the sample values of a slot
// (smt.FillSlotBits, smt.SlotMemSeed) depend on the slot index and the
// sample alone, never on which target strand the slot belongs to. The
// target contributes only the candidate order and the fpSet the vector
// is matched against. So one query strand evaluated against thousands
// of target strands keeps revisiting the same few assignments — the
// paper-scale cold search scores 3.6M γ over about 45k distinct
// (query strand, assignment) pairs — and a memo keyed by the assignment
// vector turns every revisit into a lookup.
//
// Memo is that memo for one query strand within one query. Concurrent
// evaluators (one per work-queue chunk of the row) share it: lookups are
// lock-free (an atomic load of the published table, then atomic slot
// loads), inserts batch one kernel flush's rows under one mutex
// acquisition, and growth publishes a doubled copy of the table, so a
// reader holding the old table merely misses entries added since.
// Entries are immutable once published.

// memoEntries bounds the entries one Memo holds. Past it the γ loop
// simply evaluates every miss, which stays exact. An entry costs 8 bytes
// per definition and per input plus a small header — ~420 bytes for a
// 40-definition, 6-input strand — so a full memo is under 2 MB and lives
// only as long as its query.
const memoEntries = 4096

// memoInitSlots is the first table's size (a power of two); the table
// doubles whenever it would pass half full.
const memoInitSlots = 64

// Memo holds one query strand's fingerprint vectors by slot assignment.
// The zero value is an empty memo that allocates nothing until its first
// insert. A Memo is bound to one query strand and one sample count: it
// must be shared only among Evaluators of the same Prepared and Config.
type Memo struct {
	mu  sync.Mutex // serializes inserts and growth
	tab atomic.Pointer[memoTable]
	// limit overrides memoEntries when positive; only the package's
	// tests set it, to reach the bound on small inputs.
	limit int
}

type memoTable struct {
	slots []atomic.Pointer[memoEntry] // open addressing, linear probing
	mask  uint64
	n     int // entries; read and written under Memo.mu only
}

// memoEntry is one assignment's fingerprints: vals holds the fingerprint
// vector followed by the assignment's slot indices (the key).
type memoEntry struct {
	hash uint64
	nfp  int
	vals []uint64
}

// hashAssignment mixes a slot-index vector into the memo's probe hash.
func hashAssignment(a []int) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, s := range a {
		h ^= uint64(s) + 1
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// lookup returns the memoized fingerprints of assignment a (with hash
// h), or nil. It takes no lock.
func (m *Memo) lookup(h uint64, a []int) []uint64 {
	tab := m.tab.Load()
	if tab == nil {
		return nil
	}
	for i := h & tab.mask; ; i = (i + 1) & tab.mask {
		e := tab.slots[i].Load()
		if e == nil {
			return nil
		}
		if e.hash == h && e.keyEquals(a) {
			return e.vals[:e.nfp]
		}
	}
}

func (e *memoEntry) keyEquals(a []int) bool {
	key := e.vals[e.nfp:]
	if len(key) != len(a) {
		return false
	}
	for i, s := range a {
		if key[i] != uint64(s) {
			return false
		}
	}
	return true
}

// insertRows memoizes len(hashes) fingerprint vectors of nfp entries
// each, row-major in fps, under the assignments keys[r*nIn:(r+1)*nIn]
// with hashes[r]. The vectors are copied, so fps may be kernel scratch.
// An assignment already present (another chunk got there first) is left
// alone; once the memo is full the rest are dropped.
func (m *Memo) insertRows(nfp, nIn int, fps []uint64, keys []int, hashes []uint64) {
	limit := memoEntries
	if m.limit > 0 {
		limit = m.limit
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	tab := m.tab.Load()
	for r, h := range hashes {
		if tab != nil && tab.n >= limit {
			return
		}
		key := keys[r*nIn : (r+1)*nIn]
		if m.lookup(h, key) != nil {
			continue
		}
		if tab == nil || 2*(tab.n+1) > len(tab.slots) {
			tab = m.grow(tab)
		}
		vals := make([]uint64, nfp+nIn)
		copy(vals, fps[r*nfp:(r+1)*nfp])
		for i, s := range key {
			vals[nfp+i] = uint64(s)
		}
		tab.put(&memoEntry{hash: h, nfp: nfp, vals: vals})
		tab.n++
	}
}

// grow publishes a table of twice the size (or the first table) holding
// old's entries. Callers hold m.mu.
func (m *Memo) grow(old *memoTable) *memoTable {
	size := memoInitSlots
	if old != nil {
		size = 2 * len(old.slots)
	}
	tab := &memoTable{slots: make([]atomic.Pointer[memoEntry], size), mask: uint64(size - 1)}
	if old != nil {
		for i := range old.slots {
			if e := old.slots[i].Load(); e != nil {
				tab.put(e)
			}
		}
		tab.n = old.n
	}
	m.tab.Store(tab)
	return tab
}

// put stores e in the first free slot of its probe sequence. Callers
// hold the owning Memo's mu and have checked there is room.
func (tab *memoTable) put(e *memoEntry) {
	i := e.hash & tab.mask
	for tab.slots[i].Load() != nil {
		i = (i + 1) & tab.mask
	}
	tab.slots[i].Store(e)
}
