package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the bucket-assignment rule: a value
// lands in the first bucket whose upper bound is >= the value (Prometheus
// le semantics), and values above every bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0, 1, 1.0001, 5, 7, 10, 10.5, 1e9} {
		h.Observe(v)
	}
	bounds, counts := h.Snapshot()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("snapshot shape: %v %v", bounds, counts)
	}
	// <=1: {0, 1}; <=5: {1.0001, 5}; <=10: {7, 10}; +Inf: {10.5, 1e9}.
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d: count %d, want %d (bounds %v counts %v)", i, counts[i], w, bounds, counts)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count %d, want 8", h.Count())
	}
	if got, want := h.Sum(), 0.0+1+1.0001+5+7+10+10.5+1e9; got != want {
		t.Errorf("sum %v, want %v", got, want)
	}
}

// TestObserveBucketsMatchesObserve: publishing locally bucketed counts
// leaves the histogram exactly as observing each value would.
func TestObserveBucketsMatchesObserve(t *testing.T) {
	vals := []float64{0, 1, 3, 5, 7, 10, 12, 96}
	one, batch := newHistogram([]float64{1, 5, 10}), newHistogram([]float64{1, 5, 10})
	counts := make([]uint64, 4)
	sum := 0.0
	for _, v := range vals {
		one.Observe(v)
		switch {
		case v <= 1:
			counts[0]++
		case v <= 5:
			counts[1]++
		case v <= 10:
			counts[2]++
		default:
			counts[3]++
		}
		sum += v
	}
	batch.ObserveBuckets(counts, sum)
	_, want := one.Snapshot()
	_, got := batch.Snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets %v, want %v", got, want)
		}
	}
	if batch.Count() != one.Count() || batch.Sum() != one.Sum() {
		t.Fatalf("count/sum %d/%v, want %d/%v", batch.Count(), batch.Sum(), one.Count(), one.Sum())
	}
	defer func() {
		if recover() == nil {
			t.Error("ObserveBuckets accepted a mismatched bucket slice")
		}
	}()
	batch.ObserveBuckets(counts[:3], 0)
}

// TestWriteTextGolden pins the Prometheus text exposition byte for byte.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("esh_queries_total", "Completed queries.", "status", "ok")
	c.Add(3)
	r.Counter("esh_queries_total", "Completed queries.", "status", "error").Inc()
	g := r.Gauge("esh_inflight", "Queries executing now.")
	g.Set(2)
	r.GaugeFunc("esh_cache_ratio", "Hit ratio.", func() float64 { return 0.5 })
	h := r.Histogram("esh_query_seconds", "Query latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP esh_queries_total Completed queries.
# TYPE esh_queries_total counter
esh_queries_total{status="ok"} 3
esh_queries_total{status="error"} 1
# HELP esh_inflight Queries executing now.
# TYPE esh_inflight gauge
esh_inflight 2
# HELP esh_cache_ratio Hit ratio.
# TYPE esh_cache_ratio gauge
esh_cache_ratio 0.5
# HELP esh_query_seconds Query latency.
# TYPE esh_query_seconds histogram
esh_query_seconds_bucket{le="0.1"} 1
esh_query_seconds_bucket{le="1"} 2
esh_query_seconds_bucket{le="+Inf"} 3
esh_query_seconds_sum 5.55
esh_query_seconds_count 3
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestLabelEscaping checks backslash, quote and newline escaping in
// label values.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", "k", "a\\b\"c\nd").Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "m{k=\"a\\\\b\\\"c\\nd\"} 1\n"
	if !strings.Contains(b.String(), want) {
		t.Errorf("got %q, want it to contain %q", b.String(), want)
	}
}

// TestGetOrCreate checks that re-registration returns the same metric.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	b := r.Counter("x_total", "")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	l1 := r.Counter("y_total", "", "a", "1")
	l2 := r.Counter("y_total", "", "a", "2")
	if l1 == l2 {
		t.Fatal("distinct labels returned the same counter")
	}
}

// TestConcurrentCounters hammers a shared counter, gauge and histogram
// from many goroutines; run under -race this doubles as a data-race
// check, and the totals must still be exact.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Concurrent get-or-create exercises the registry lock too.
			c := r.Counter("c_total", "")
			g := r.Gauge("g", "")
			h := r.Histogram("h", "", []float64{0.5})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "").Value(); got != workers*perWorker {
		t.Errorf("counter %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g", "").Value(); got != workers*perWorker {
		t.Errorf("gauge %v, want %d", got, workers*perWorker)
	}
	h := r.Histogram("h", "", []float64{0.5})
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count %d, want %d", got, workers*perWorker)
	}
	_, counts := h.Snapshot()
	if counts[0] != workers*perWorker {
		t.Errorf("bucket 0 count %d, want %d", counts[0], workers*perWorker)
	}
}
