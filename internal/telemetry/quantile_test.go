package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// trueQuantile returns the empirical quantile of the sorted data.
func trueQuantile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// rankOf returns the fraction of data at or below v.
func rankOf(sorted []float64, v float64) float64 {
	return float64(sort.SearchFloat64s(sorted, v)) / float64(len(sorted))
}

// TestQuantileAccuracy feeds the P² estimator streams from several
// distributions and checks the estimate against a sorted reference:
// the estimate's *rank* in the true data must land within a small
// window of the target quantile. Rank error is the right yardstick for
// a marker estimator — heavy tails make absolute error meaningless at
// p99 — and a 3-point window is far tighter than the histogram buckets
// the estimator complements.
func TestQuantileAccuracy(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() float64{
		"uniform": func() float64 { return rng.Float64() },
		// Lognormal-ish latencies: most fast, a heavy slow tail.
		"lognormal": func() float64 { return math.Exp(rng.NormFloat64()) },
		// Bimodal: cache hits vs misses.
		"bimodal": func() float64 {
			if rng.Float64() < 0.7 {
				return 0.001 + 0.0002*rng.NormFloat64()
			}
			return 0.05 + 0.01*rng.NormFloat64()
		},
	}
	for name, draw := range dists {
		q := NewQuantiles(0.5, 0.95, 0.99)
		data := make([]float64, n)
		for i := range data {
			data[i] = draw()
			q.Observe(data[i])
		}
		sort.Float64s(data)
		for _, p := range []float64{0.5, 0.95, 0.99} {
			est := q.Quantile(p)
			if math.IsNaN(est) {
				t.Fatalf("%s p%g: NaN estimate", name, p*100)
			}
			gotRank := rankOf(data, est)
			if d := math.Abs(gotRank - p); d > 0.03 {
				t.Errorf("%s p%g: estimate %g sits at rank %.4f (%.4f off; true value %g)",
					name, p*100, est, gotRank, d, trueQuantile(data, p))
			}
		}
		if q.Count() != n {
			t.Fatalf("%s: count = %d, want %d", name, q.Count(), n)
		}
	}
}

func TestQuantileSmallStreams(t *testing.T) {
	q := NewQuantiles(0.5, 0.99)
	if !math.IsNaN(q.Quantile(0.5)) || !math.IsNaN(q.Max()) {
		t.Fatal("empty estimator must report NaN")
	}
	if !math.IsNaN(q.Quantile(0.25)) {
		t.Fatal("untracked quantile must report NaN")
	}
	q.Observe(3)
	q.Observe(1)
	q.Observe(2)
	// Below five observations the estimate is the exact sample quantile.
	if got := q.Quantile(0.5); got != 2 {
		t.Fatalf("median of {1,2,3} = %g, want 2", got)
	}
	if got := q.Max(); got != 3 {
		t.Fatalf("max = %g, want 3", got)
	}
}

// TestQuantileSmallStreamTail checks the small-n readout: a stream of
// samples 1..n-1 plus one 1000 has nearest-rank p99 = 1000, which five
// P² markers miss entirely, and p50 is the exact nearest-rank median.
// The readout stays exact up to the P² handover and stays bounded by
// the sample range after it.
func TestQuantileSmallStreamTail(t *testing.T) {
	for _, n := range []int{5, 20, exactQuantileN - 1} {
		q := NewQuantiles(0.5, 0.95, 0.99)
		var data []float64
		for i := 1; i < n; i++ {
			q.Observe(float64(i))
			data = append(data, float64(i))
		}
		q.Observe(1000)
		data = append(data, 1000)
		sort.Float64s(data)
		if got := q.Quantile(0.99); got != 1000 {
			t.Errorf("n=%d: p99 = %g, want 1000", n, got)
		}
		for _, p := range []float64{0.5, 0.95} {
			if got, want := q.Quantile(p), trueQuantile(data, p); got != want {
				t.Errorf("n=%d: p%g = %g, nearest rank %g", n, p*100, got, want)
			}
		}
	}
	q := NewQuantiles(0.5, 0.99)
	for i := 0; i < 4*exactQuantileN; i++ {
		q.Observe(float64(i % 10))
		if got := q.Quantile(0.99); got < 0 || got > 9 {
			t.Fatalf("after %d observations p99 = %g, outside the sample range", i+1, got)
		}
	}
}

func TestQuantileMonotoneAcrossTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := NewQuantiles(0.5, 0.95, 0.99)
	for i := 0; i < 5000; i++ {
		q.Observe(math.Exp(rng.NormFloat64()))
	}
	p50, p95, p99 := q.Quantile(0.5), q.Quantile(0.95), q.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantile estimates not monotone: p50=%g p95=%g p99=%g", p50, p95, p99)
	}
	if max := q.Max(); p99 > max {
		t.Fatalf("p99 %g above observed max %g", p99, max)
	}
}

// TestQuantileConcurrent exercises the mutex path under -race.
func TestQuantileConcurrent(t *testing.T) {
	q := NewQuantiles(0.5, 0.99)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				q.Observe(rng.Float64())
				if i%100 == 0 {
					q.Quantile(0.99)
				}
			}
		}(w)
	}
	wg.Wait()
	if q.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", q.Count())
	}
}
