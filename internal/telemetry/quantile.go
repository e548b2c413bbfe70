package telemetry

import (
	"math"
	"sort"
	"strconv"
	"sync"
)

// FormatQuantile renders a quantile target as a metric label value
// ("0.5", "0.95", "0.99") — the conventional `quantile` label format.
func FormatQuantile(q float64) string { return strconv.FormatFloat(q, 'g', -1, 64) }

// Quantiles is a streaming quantile estimator: it tracks a fixed set of
// quantiles (p50/p95/p99 for latency gauges) over an unbounded
// observation stream in O(1) memory per quantile, using the P² algorithm
// (Jain & Chlamtac, 1985). Unlike the cumulative histograms, which bucket
// into fixed bounds chosen up front, the markers adapt to the observed
// distribution, so the estimates stay meaningful whether a query takes
// 200µs or 20s. Five markers cannot see a tail in a short stream (with
// samples 1..19 plus one 1000, P² reads p99 as 17), so the first
// exactQuantileN observations are also kept raw and answered by exact
// nearest rank; the readout hands over to P² once that many have
// arrived. Observe takes a mutex — quantile updates are a few dozen
// float ops per call, far off the per-pair hot path, and the estimator
// is only fed once per completed query.
type Quantiles struct {
	mu   sync.Mutex
	qs   []float64
	est  []p2
	raw  []float64 // every observation while n < exactQuantileN, then nil
	n    uint64
	max  float64
	seen bool
}

// exactQuantileN is the stream length below which Quantiles answers by
// exact nearest rank over the raw observations instead of P².
const exactQuantileN = 64

// NewQuantiles returns an estimator tracking the given quantiles (each
// in (0, 1), e.g. 0.5, 0.95, 0.99).
func NewQuantiles(qs ...float64) *Quantiles {
	e := &Quantiles{qs: append([]float64(nil), qs...), est: make([]p2, len(qs))}
	for i, p := range qs {
		e.est[i].p = p
	}
	return e
}

// Observe feeds one value to every tracked quantile.
func (e *Quantiles) Observe(v float64) {
	e.mu.Lock()
	e.n++
	if !e.seen || v > e.max {
		e.max, e.seen = v, true
	}
	if e.n < exactQuantileN {
		e.raw = append(e.raw, v)
	} else {
		e.raw = nil
	}
	for i := range e.est {
		e.est[i].observe(v)
	}
	e.mu.Unlock()
}

// Quantile returns the current estimate for q, which must be one of the
// tracked quantiles; it returns NaN for an untracked q or before any
// observation.
func (e *Quantiles) Quantile(q float64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, p := range e.qs {
		if p != q {
			continue
		}
		switch {
		case e.n == 0:
			return math.NaN()
		case e.n < exactQuantileN:
			return nearestRank(e.raw, p)
		}
		return e.est[i].q[2]
	}
	return math.NaN()
}

// nearestRank returns the exact nearest-rank p-quantile of the samples:
// the smallest value with at least p of the samples at or below it.
func nearestRank(samples []float64, p float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// Count returns the number of observations so far.
func (e *Quantiles) Count() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// Max returns the largest observation so far (NaN before any).
func (e *Quantiles) Max() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.seen {
		return math.NaN()
	}
	return e.max
}

// p2 is one P² marker set: five marker heights q whose positions n chase
// the desired positions np; the middle marker's height q[2] estimates
// the p-quantile (read only once exactQuantileN observations arrived).
type p2 struct {
	p   float64
	cnt int
	q   [5]float64 // marker heights
	n   [5]float64 // actual marker positions (1-based)
	np  [5]float64 // desired marker positions
	dn  [5]float64 // desired-position increments per observation
}

func (e *p2) observe(x float64) {
	if e.cnt < 5 {
		e.q[e.cnt] = x
		e.cnt++
		if e.cnt == 5 {
			s := e.q[:]
			sort.Float64s(s)
			e.n = [5]float64{1, 2, 3, 4, 5}
			e.np = [5]float64{1, 1 + 2*e.p, 1 + 4*e.p, 3 + 2*e.p, 5}
			e.dn = [5]float64{0, e.p / 2, e.p, (1 + e.p) / 2, 1}
		}
		return
	}
	e.cnt++

	// Locate the cell k holding x, extending the extreme markers if x
	// falls outside the current range.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x < e.q[1]:
		k = 0
	case x < e.q[2]:
		k = 1
	case x < e.q[3]:
		k = 2
	case x <= e.q[4]:
		k = 3
	default:
		e.q[4] = x
		k = 3
	}
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := range e.np {
		e.np[i] += e.dn[i]
	}

	// Nudge the three interior markers toward their desired positions,
	// adjusting heights by the piecewise-parabolic (P²) prediction, with
	// a linear fallback when the parabola would break monotonicity.
	for i := 1; i <= 3; i++ {
		d := e.np[i] - e.n[i]
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			qn := e.parabolic(i, s)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.n[i] += s
		}
	}
}

func (e *p2) parabolic(i int, s float64) float64 {
	return e.q[i] + s/(e.n[i+1]-e.n[i-1])*
		((e.n[i]-e.n[i-1]+s)*(e.q[i+1]-e.q[i])/(e.n[i+1]-e.n[i])+
			(e.n[i+1]-e.n[i]-s)*(e.q[i]-e.q[i-1])/(e.n[i]-e.n[i-1]))
}

func (e *p2) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.n[j]-e.n[i])
}
