package main

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Open-loop validity bounds: a run whose generator woke this late, or
// left this many due requests unstarted, measured its scheduler rather
// than the daemon, and is marked invalid.
const (
	maxLatenessP99 = 20 * time.Millisecond
	maxBacklog     = 32
)

// nearestRank returns the p-th percentile of xs by nearest rank over the
// raw samples (xs need not be sorted).
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	r := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(r, 1), len(s))-1]
}

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 97.5, 95, 90, 80, 75}

// tail returns the highest percentile in tailPercentiles that leaves at
// least ten samples beyond its nearest-rank position, and its value; ok
// is false when the sample is too small for any of them.
func tail(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	for _, p := range tailPercentiles {
		r := int(math.Ceil(p / 100 * float64(n)))
		if r >= 1 && n-r >= 10 {
			return p, nearestRank(xs, p), true
		}
	}
	return 0, 0, false
}

// arrivals returns n due offsets for an open loop at rate per second:
// a Poisson process conditioned on n arrivals in n/rate seconds, i.e.
// sorted uniform times, so every seed offers the same load.
func arrivals(rng *rand.Rand, n int, rate float64) []time.Duration {
	span := float64(n) / rate
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * span * float64(time.Second))
	}
	slices.Sort(out)
	return out
}

// loopStats describes how well the generator kept its schedule.
type loopStats struct {
	LatenessMS []float64 // generator wake-up minus due time, per request
	BacklogMax int       // most requests due but not yet started
	BacklogEnd int       // requests due but not yet started at the last due time
}

// openLoop issues request i at t0+due[i], whatever the state of earlier
// requests, through conns workers. run(i, dueAt) sends it; latency is to
// be measured from dueAt. openLoop returns once every request finished.
func openLoop(t0 time.Time, due []time.Duration, conns int, run func(i int, dueAt time.Time)) loopStats {
	queue := make(chan int, len(due)) // sized to the number of sends
	var started atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				started.Add(1)
				run(i, t0.Add(due[i]))
			}
		}()
	}
	st := loopStats{LatenessMS: make([]float64, len(due))}
	for i, d := range due {
		at := t0.Add(d)
		if w := time.Until(at); w > 0 {
			time.Sleep(w)
		}
		st.LatenessMS[i] = float64(time.Since(at).Nanoseconds()) / 1e6
		queue <- i
		backlog := i + 1 - int(started.Load())
		st.BacklogMax = max(st.BacklogMax, backlog)
		st.BacklogEnd = backlog
	}
	close(queue)
	wg.Wait()
	return st
}

// valid reports whether the generator kept to its schedule.
func (st loopStats) valid() bool {
	return time.Duration(nearestRank(st.LatenessMS, 99)*1e6) <= maxLatenessP99 && st.BacklogMax <= maxBacklog
}

// zipfTheta is YCSB's Zipfian constant (Cooper et al., "Benchmarking
// Cloud Serving Systems with YCSB", SoCC 2010), the popularity skew of
// its core workloads.
const zipfTheta = 0.99

// zipfPicker draws pool ranks with YCSB's Zipfian popularity,
// P(k) ∝ (k+1)^-zipfTheta: over eight ranks, rank 0 takes about 37% of
// the requests.
func zipfPicker(rng *rand.Rand, n int) func() int {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -zipfTheta)
		cdf[k] = sum
	}
	return func() int { return min(sort.SearchFloat64s(cdf, rng.Float64()*sum), n-1) }
}

// closedLoop calls run(i) for i = 0, 1, ... from conns workers, each
// starting its next call as soon as its last one returned, until d has
// passed or n calls have started. It returns the time from its start to
// the last completion.
func closedLoop(conns, n int, d time.Duration, run func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
