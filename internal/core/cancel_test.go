package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

// chunkCountingCtx is a context whose Err reports cancellation from its
// limit-th call on (never, when limit < 0). Stage 3 consults ctx once
// per work-queue chunk, so with one worker the limit picks exactly how
// many chunks run before the query is cut; onCancel, when set, fires
// once at that call.
type chunkCountingCtx struct {
	context.Context
	limit    int64
	calls    atomic.Int64
	onCancel func()
	once     sync.Once
}

func (c *chunkCountingCtx) Err() error {
	n := c.calls.Add(1)
	if c.limit >= 0 && n > c.limit {
		if c.onCancel != nil {
			c.once.Do(c.onCancel)
		}
		return context.Canceled
	}
	return nil
}

// cacheSnapshot copies the DB's VCP cache.
func cacheSnapshot(db *DB) map[string]map[string][2]float64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make(map[string]map[string][2]float64, len(db.vcpCache))
	for q, row := range db.vcpCache {
		cp := make(map[string][2]float64, len(row))
		for u, v := range row {
			cp[u] = v
		}
		out[q] = cp
	}
	return out
}

// TestQueryCancelMidStage3 cuts a cold query halfway through its
// stage-3 chunks. The query must return the cancellation error, and the
// VCP cache must hold only rows that completed: each cached row equal,
// entry for entry and bit for bit, to the same row after an uncut query
// on a fresh DB — no half-computed row reaches the cache.
func TestQueryCancelMidStage3(t *testing.T) {
	fx := loadDiffFixture(t)
	q := fx.queries[0]

	full := NewDB(Options{Workers: 1})
	fillDB(t, full, fx.procs)
	count := &chunkCountingCtx{Context: context.Background(), limit: -1}
	if _, err := full.QueryCtx(count, q, stats.Esh); err != nil {
		t.Fatal(err)
	}
	chunks := count.calls.Load()
	want := cacheSnapshot(full)
	if chunks < 4 || len(want) < 2 {
		t.Fatalf("query too small to cut: %d ctx checks, %d cached rows", chunks, len(want))
	}

	cut := NewDB(Options{Workers: 1})
	fillDB(t, cut, fx.procs)
	ctx := &chunkCountingCtx{Context: context.Background(), limit: chunks / 2}
	rep, err := cut.QueryCtx(ctx, q, stats.Esh)
	if !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("cut query returned (%v, %v), want the cancellation error", rep, err)
	}
	got := cacheSnapshot(cut)
	if len(got) == 0 || len(got) >= len(want) {
		t.Fatalf("cut query cached %d rows, uncut %d: want some but not all", len(got), len(want))
	}
	for qKey, row := range got {
		wrow, ok := want[qKey]
		if !ok || len(wrow) != len(row) {
			t.Fatalf("cached row %.40q has %d entries, the uncut row %d", qKey, len(row), len(wrow))
		}
		for uKey, v := range row {
			w := wrow[uKey]
			for d := range v {
				if math.Float64bits(v[d]) != math.Float64bits(w[d]) {
					t.Fatalf("cached pair differs from the uncut run: %v vs %v", v, w)
				}
			}
		}
	}
	if st, fst := cut.Stats(), full.Stats(); st.VerifierCalls >= fst.VerifierCalls {
		t.Errorf("cut query made %d verifier calls, uncut %d", st.VerifierCalls, fst.VerifierCalls)
	}
	t.Logf("cut after %d of %d ctx checks: %d of %d rows cached", chunks/2, chunks, len(got), len(want))
}

// TestQueryCancelReturnsPromptly cancels a real context partway through
// a multi-worker cold query: the query must return the cancellation
// error soon after — the running chunks finish, no new one starts —
// and leave no stage-3 worker goroutine behind.
func TestQueryCancelReturnsPromptly(t *testing.T) {
	fx := loadDiffFixture(t)
	db := NewDB(Options{Workers: 4})
	fillDB(t, db, fx.procs)
	before := runtime.NumGoroutine()

	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelled time.Time
	ctx := &chunkCountingCtx{Context: base, limit: 6, onCancel: func() {
		cancelled = time.Now()
		cancel()
	}}
	start := time.Now()
	_, err := db.QueryCtx(ctx, fx.queries[0], stats.Esh)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query returned %v, want the cancellation error", err)
	}
	if cancelled.IsZero() {
		t.Fatal("the query finished before stage 3 reached the cancellation point")
	}
	wait := time.Since(cancelled)
	t.Logf("returned %v after cancellation (%v total)", wait, time.Since(start))
	if wait > 5*time.Second {
		t.Errorf("query kept running %v after cancellation", wait)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the cancelled query, %d before", n, before)
	}
}
