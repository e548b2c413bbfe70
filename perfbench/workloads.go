package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/minic"
)

const (
	// setupReps is how often a run builds the snapshot and starts the
	// daemon; setup_s is the median.
	setupReps = 3
	// poolSize is the number of corpus procedures warm queries draw from:
	// the size of the paper's query set (Table 1, eight CVEs).
	poolSize = 8
	// queryTop is the result depth of warm and live queries (the
	// daemon's default).
	queryTop = 20
	// coldTop is the depth of cold-search answers: deep enough to see
	// every true positive for the false-positive check.
	coldTop = 1000
	// warmRate is the offered query rate of warm-serve's measured window,
	// about an eighth of the 150-190/s its capacity step measures on a
	// 2-vCPU Xeon: a light load, at which a query seldom queues behind
	// another, so the median shows service time and queueing does not
	// amplify machine noise into it.
	warmRate = 20.0
	// liveRate is the offered operation rate of live-writes: warmRate, so
	// the open-loop windows of the two workloads differ by the writes
	// alone.
	liveRate = warmRate
	// writeEvery: one operation in writeEvery of the live-writes mix is a
	// write, the 95/5 read/write split of YCSB's workload B (Cooper et
	// al., "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010).
	// Adds and deletes alternate, so the live corpus keeps its size.
	writeEvery = 20
	// capacitySeconds is the length of the closed-loop step that measures
	// throughput_qps on warm-serve and live-writes.
	capacitySeconds = 5.0
	// capacityOps bounds the calls of a capacity step, well above the
	// ~900 that two connections complete in capacitySeconds on a 2-vCPU
	// Xeon; it sizes the held-out adds live-writes prepares.
	capacityOps = 1600
	// settleSeconds of unmeasured warm load precede a measured window, so
	// it starts after the daemon has absorbed the garbage of priming.
	settleSeconds = 3.0
	// coldToolchain compiles the cold-search queries: the query toolchain
	// of the paper's Table 1.
	coldToolchain = "clang-3.5"
	// corpusSynth is eshcorpus's default number of generated decoy
	// packages; held-out adds come from the variants beyond it.
	corpusSynth = 40
)

//go:embed cold_fp.json
var coldFPJSON []byte

// setup builds the snapshot and starts the daemon setupReps times and
// returns the last daemon, fresh with an empty VCP cache.
func (e *env) setup(o *outcome, l layers, extra ...string) (*daemon, []string, error) {
	defer e.rec.phase("setup")()
	snap := filepath.Join(e.dir, "corpus.eshidx")
	args := append([]string{"-index", snap}, extra...)
	var total, build, load, rss []float64
	var d *daemon
	for rep := range setupReps {
		if d != nil {
			d.stop()
		}
		if err := clearState(e.dir); err != nil {
			return nil, nil, err
		}
		wall, b, err := buildIndex(e.bin, snap)
		if err != nil {
			return nil, nil, err
		}
		var ready time.Duration
		d, ready, err = startDaemon(e.bin, filepath.Join(e.dir, fmt.Sprintf("eshd-setup%d.log", rep)), args...)
		if err != nil {
			return nil, nil, err
		}
		total = append(total, (wall + ready).Seconds())
		build = append(build, b.Seconds())
		mb, err := d.rssPeakMB()
		if err != nil {
			d.kill()
			return nil, nil, err
		}
		rss = append(rss, mb)
		if e.trace {
			c := newClient(d.base, 1, e.rec)
			pm, err := c.prom()
			c.close()
			if err != nil {
				d.kill()
				return nil, nil, err
			}
			load = append(load, pm["esh_index_load_seconds_sum"])
		}
	}
	o.set("setup_s", "s", nearestRank(total, 50))
	o.set("rss_loaded_mb", "MB", nearestRank(rss, 50))
	o.note("setup: eshcorpus -save + eshd ready, %d reps: %.3f s", setupReps, total)
	l["index.build_s"] = nearestRank(build, 50)
	l["index.load_s"] = nearestRank(load, 50)
	return d, args, nil
}

// clearState removes the snapshot and WAL a previous setup left behind.
func clearState(dir string) error {
	for _, f := range []string{"corpus.eshidx", "corpus.wal"} {
		if err := os.Remove(filepath.Join(dir, f)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// finish reports the daemon's peak memory over the run and, for a traced
// run, the per-layer metrics in place of the end-to-end ones.
func (e *env) finish(o *outcome, l layers, d *daemon) error {
	rss, err := d.rssPeakMB()
	if err != nil {
		return err
	}
	o.note("rss_peak_mb %.1f (VmHWM at the end of the run)", rss)
	if e.trace {
		o.metrics = nil
		l.emit(o)
	}
	return nil
}

// ---- cold-search ----------------------------------------------------

type coldQuery struct {
	id   int
	sym  string
	asm  string
	name string
}

// coldQueries compiles the eight Table-1 CVE procedures with
// coldToolchain, in an order the seed picks.
func (e *env) coldQueries() ([]coldQuery, error) {
	tc, ok := compile.ByName(coldToolchain)
	if !ok {
		return nil, fmt.Errorf("unknown toolchain %s", coldToolchain)
	}
	vulns := corpus.Vulns()
	var out []coldQuery
	for _, i := range e.rng.Perm(len(vulns)) {
		v := vulns[i]
		var p *asm.Proc
		err := e.rec.timed("corpus.CompileVuln", func() (err error) {
			p, err = corpus.CompileVuln(v, tc, false)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, coldQuery{id: v.ID, sym: v.FuncName, asm: p.String(), name: p.Name})
	}
	return out, nil
}

// falsePositives counts the negatives ranked above the lowest-ranked
// positive, plus those tied with it (the paper's FP measure), and the
// positives visible in the answer.
func falsePositives(rs []result, sym string) (fp, visible int) {
	last := -1
	for i, r := range rs {
		if sourceSym(r.Target) == sym {
			last, visible = i, visible+1
		}
	}
	if last < 0 {
		return 0, 0
	}
	for i, r := range rs {
		if sourceSym(r.Target) != sym && (i < last || r.Score == rs[last].Score) {
			fp++
		}
	}
	return fp, visible
}

// coldPass runs the eight CVE queries, closed loop on one connection,
// against a fresh daemon. It returns the replies (nil where a query
// failed), the latencies of the queries that answered, their spans and
// the pass wall time.
func (e *env) coldPass(o *outcome, c *client, qs []coldQuery) ([]*queryReply, []float64, []*span, time.Duration) {
	defer e.rec.phase("cold pass")()
	replies := make([]*queryReply, len(qs))
	var lats []float64
	var spans []*span
	start := time.Now()
	for i, q := range qs {
		o.attempted++
		t := time.Now()
		r, sp, err := c.query(q.asm, coldTop, e.trace)
		if err != nil {
			o.fail("cold query %s: %v", q.name, err)
			continue
		}
		lats = append(lats, float64(time.Since(t).Nanoseconds())/1e6)
		replies[i] = r
		spans = append(spans, sp)
	}
	return replies, lats, spans, time.Since(start)
}

func coldSearch(e *env) (*outcome, error) {
	o, l := &outcome{}, layers{}
	d, _, err := e.setup(o, l)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c := newClient(d.base, 1, e.rec)
	defer c.close()
	qs, err := e.coldQueries()
	if err != nil {
		return nil, err
	}
	tg, err := c.targets()
	if err != nil {
		return nil, err
	}
	positives := map[string]int{}
	for _, t := range tg {
		positives[sourceSym(t.Name)]++
	}
	var recorded struct {
		Toolchain string         `json:"toolchain"`
		FP        map[string]int `json:"fp"`
	}
	if err := json.Unmarshal(coldFPJSON, &recorded); err != nil {
		return nil, fmt.Errorf("cold_fp.json: %w", err)
	}
	if recorded.Toolchain != coldToolchain {
		return nil, fmt.Errorf("cold_fp.json records %s, queries use %s", recorded.Toolchain, coldToolchain)
	}

	var before *counters
	if e.trace {
		if before, err = readCounters(c, d); err != nil {
			return nil, err
		}
	}
	replies, lats, spans, wall := e.coldPass(o, c, qs)
	for i, q := range qs {
		r := replies[i]
		if r == nil {
			continue
		}
		want, ok := recorded.FP[strconv.Itoa(q.id)]
		fp, visible := falsePositives(r.Results, q.sym)
		switch {
		case len(r.Results) == 0 || sourceSym(r.Results[0].Target) != q.sym:
			o.fail("cold query %s: rank 1 is not a compilation of %s", q.name, q.sym)
		case !ok:
			o.fail("cold query %s: no recorded false-positive count", q.name)
		case want >= 0 && (visible < positives[q.sym] || fp > want):
			o.fail("cold query %s: %d false positives (%d of %d positives in the top %d), recorded %d",
				q.name, fp, visible, positives[q.sym], coldTop, want)
		}
		o.note("cold %-48s FP %d (recorded %d)", q.name, fp, want)
	}
	o.set("query_p50_ms", "ms", nearestRank(lats, 50))
	o.set("throughput_qps", "1/s", float64(len(lats))/wall.Seconds())
	o.note("cold pass: %d queries in %.2f s (n=%d, too few for a tail)", len(qs), wall.Seconds(), len(lats))
	if e.trace {
		after, err := readCounters(c, d)
		if err != nil {
			return nil, err
		}
		l.queryLayers(engineSpans(spans), before, after)
	}
	return o, e.finish(o, l, d)
}

// ---- warm pool -------------------------------------------------------

// pooled is one corpus procedure of the warm query pool and the answer
// its priming query returned.
type pooled struct {
	name    string
	strands int
	asm     string
	ref     []result
}

// warmPool draws poolSize served procedures. Slot k holds a procedure
// the seed picks among those whose strand count is the corpus's
// quantile 0.25+0.5(k+0.5)/poolSize, so the pool spans the interquartile
// sizes, and Zipf rank follows the slot's distance from the median:
// every seed gets the same popularity-weighted size mix, which sets warm
// latency, and only the procedures change.
func (e *env) warmPool(c *client) ([]*pooled, error) {
	tg, err := c.targets()
	if err != nil {
		return nil, err
	}
	sort.Slice(tg, func(i, j int) bool {
		if tg[i].NumStrands != tg[j].NumStrands {
			return tg[i].NumStrands < tg[j].NumStrands
		}
		return tg[i].Name < tg[j].Name
	})
	var procs []*asm.Proc
	err = e.rec.timed("corpus.Build", func() (err error) {
		procs, err = corpus.Build(corpus.BuildConfig{IncludePatched: true, SynthVariants: corpusSynth})
		return err
	})
	if err != nil {
		return nil, err
	}
	text := make(map[string]string, len(procs))
	for _, p := range procs {
		text[p.Name] = p.String()
	}
	slots := make([]int, poolSize)
	for k := range slots {
		slots[k] = k
	}
	quantile := func(k int) float64 { return 0.25 + 0.5*(float64(k)+0.5)/poolSize }
	dist := func(k int) float64 { return math.Abs(quantile(k) - 0.5) }
	sort.SliceStable(slots, func(i, j int) bool { return dist(slots[i]) < dist(slots[j]) })
	used := map[string]bool{}
	var pool []*pooled
	for _, k := range slots {
		want := tg[int(quantile(k)*float64(len(tg)))].NumStrands
		var cands []targetInfo
		for _, t := range tg {
			if t.NumStrands == want && !used[t.Name] {
				cands = append(cands, t)
			}
		}
		t := cands[e.rng.Intn(len(cands))]
		used[t.Name] = true
		src, ok := text[t.Name]
		if !ok {
			return nil, fmt.Errorf("served target %s is not in the default eshcorpus corpus", t.Name)
		}
		pool = append(pool, &pooled{name: t.Name, strands: t.NumStrands, asm: src})
	}
	return pool, nil
}

// prime queries every pool procedure once, closed loop, and keeps the
// answers as the reference for later checks.
func (e *env) prime(o *outcome, c *client, pool []*pooled) error {
	defer e.rec.phase("prime")()
	start := time.Now()
	for _, p := range pool {
		o.attempted++
		r, _, err := c.query(p.asm, queryTop, false)
		if err != nil {
			return fmt.Errorf("prime %s: %w", p.name, err)
		}
		p.ref = r.Results
	}
	o.note("primed %d pool procedures in %.2f s", len(pool), time.Since(start).Seconds())
	return nil
}

// window is what one open-loop phase of queries measured.
type window struct {
	lats, tracedLats, plainLats []float64 // from due time, ms
	byPick                      map[int][]float64
	spans                       []*span // traced queries
	loop                        loopStats
}

// queryWindow offers n pool queries at rate per second, Zipf-picked, as
// the phase named label, and checks every answer against the priming
// answer bit for bit. In a traced run every other query asks for the
// engine trace.
func (e *env) queryWindow(o *outcome, c *client, label string, pool []*pooled, rate float64, n int) *window {
	defer e.rec.phase(label)()
	pick := zipfPicker(e.rng, len(pool))
	picks := make([]int, n)
	for i := range picks {
		picks[i] = pick()
	}
	due := arrivals(e.rng, n, rate)
	w := &window{byPick: map[int][]float64{}}
	var mu sync.Mutex
	w.loop = openLoop(time.Now(), due, e.conns, func(i int, dueAt time.Time) {
		p := pool[picks[i]]
		traced := e.trace && i%2 == 0
		r, sp, err := c.query(p.asm, queryTop, traced)
		end := time.Now()
		mu.Lock()
		defer mu.Unlock()
		o.attempted++
		switch {
		case err != nil:
			o.fail("warm query %s: %v", p.name, err)
			return
		case !sameAnswer(r.Results, p.ref):
			o.fail("warm query %s: answer differs from its priming answer", p.name)
		}
		lat := float64(end.Sub(dueAt).Nanoseconds()) / 1e6
		w.lats = append(w.lats, lat)
		w.byPick[picks[i]] = append(w.byPick[picks[i]], lat)
		if traced {
			w.tracedLats = append(w.tracedLats, lat)
			w.spans = append(w.spans, sp)
		} else {
			w.plainLats = append(w.plainLats, lat)
		}
	})
	return w
}

// reportWindow adds a query window's end-to-end metrics and report rows.
func (e *env) reportWindow(o *outcome, l layers, label string, w *window, rate float64) {
	o.set("query_p50_ms", "ms", nearestRank(w.lats, 50))
	if p, v, ok := tail(w.lats); ok {
		o.note("%s query_tail_ms p%g %.3f ms (n=%d)", label, p, v, len(w.lats))
	}
	late := w.loop.LatenessMS
	o.note("%s offered %.0f/s: lateness p50 %.3f ms p99 %.3f ms, backlog max %d end %d",
		label, rate, nearestRank(late, 50), nearestRank(late, 99), w.loop.BacklogMax, w.loop.BacklogEnd)
	if !w.loop.valid() {
		o.invalid = append(o.invalid, fmt.Sprintf("%s: generator lateness p99 %.1f ms or backlog %d over bounds (%s, %d)",
			label, nearestRank(late, 99), w.loop.BacklogMax, maxLatenessP99, maxBacklog))
	}
	l["loadgen.lateness_p99_ms"] = nearestRank(late, 99)
	l["loadgen.backlog_max"] = float64(w.loop.BacklogMax)
	if e.trace {
		l["trace.overhead_ratio"] = ratio(nearestRank(w.tracedLats, 50), nearestRank(w.plainLats, 50))
	}
}

// capacity runs Zipf-picked pool queries closed loop on e.conns
// connections for capacitySeconds, checks every answer against its
// priming answer, and sets throughput_qps to the correct answers per
// second: what the daemon sustains, where an open-loop window completes
// only what it is offered.
func (e *env) capacity(o *outcome, c *client, pool []*pooled) {
	defer e.rec.phase("capacity")()
	pick := zipfPicker(e.rng, len(pool))
	picks := make([]int, capacityOps)
	for i := range picks {
		picks[i] = pick()
	}
	var mu sync.Mutex
	done := 0
	wall := closedLoop(e.conns, len(picks), time.Duration(capacitySeconds*float64(time.Second)), func(i int) {
		p := pool[picks[i]]
		r, _, err := c.query(p.asm, queryTop, false)
		mu.Lock()
		defer mu.Unlock()
		o.attempted++
		switch {
		case err != nil:
			o.fail("capacity query %s: %v", p.name, err)
		case !sameAnswer(r.Results, p.ref):
			o.fail("capacity query %s: answer differs from its priming answer", p.name)
		default:
			done++
		}
	})
	o.set("throughput_qps", "1/s", float64(done)/wall.Seconds())
	o.note("warm capacity: %d correct answers in %.2f s, closed loop on %d connections", done, wall.Seconds(), e.conns)
}

// ---- warm-serve ------------------------------------------------------

func warmServe(e *env) (*outcome, error) {
	o, l := &outcome{}, layers{}
	d, _, err := e.setup(o, l)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c := newClient(d.base, e.conns, e.rec)
	defer c.close()
	pool, err := e.warmPool(c)
	if err != nil {
		return nil, err
	}
	if err := e.prime(o, c, pool); err != nil {
		return nil, err
	}

	e.queryWindow(o, c, "settle", pool, warmRate, int(warmRate*settleSeconds))
	var before *counters
	if e.trace {
		if before, err = readCounters(c, d); err != nil {
			return nil, err
		}
	}
	w := e.queryWindow(o, c, "window", pool, warmRate, int(warmRate*e.seconds))
	if e.trace {
		after, err := readCounters(c, d)
		if err != nil {
			return nil, err
		}
		l.queryLayers(engineSpans(w.spans), before, after)
	}
	e.reportWindow(o, l, "warm", w, warmRate)
	for i, p := range pool {
		o.note("pool rank %d: %-44s %2d strands, p50 %.2f ms (n=%d)", i, p.name, p.strands, nearestRank(w.byPick[i], 50), len(w.byPick[i]))
	}
	e.capacity(o, c, pool)
	return o, e.finish(o, l, d)
}

// ---- live-writes -----------------------------------------------------

// heldOut compiles n procedures from the generated decoy variants beyond
// those in the corpus, each package with a toolchain the seed picks, so
// every add brings novel strands.
func (e *env) heldOut(n int) ([]*asm.Proc, error) {
	var pkgs []corpus.Package
	_ = e.rec.timed("corpus.GeneratedVariants", func() error {
		pkgs = corpus.GeneratedVariants(corpusSynth + n)[corpusSynth:]
		return nil
	})
	tcs := compile.Toolchains()
	var out []*asm.Proc
	for _, pkg := range pkgs {
		tc := tcs[e.rng.Intn(len(tcs))]
		var procs []*asm.Proc
		err := e.rec.timed("compile.CompileAll", func() error {
			prog, err := minic.Parse(pkg.Src)
			if err != nil {
				return err
			}
			procs, err = compile.CompileAll(prog, tc, compile.O2())
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, p := range procs {
			p.Source = asm.Provenance{Package: pkg.Name, SourceSym: p.Name, Toolchain: tc.Name(), OptLevel: "-O2"}
			p.Name = p.Source.Key()
			out = append(out, p)
			if len(out) == n {
				return out, nil
			}
		}
	}
	return out, nil
}

// Operation kinds of the live-writes mix.
const (
	opQuery = iota
	opAdd
	opDelete
	opCompact
)

// liveOp is one operation of the live-writes mix. idx indexes the pool
// for a query, the held-out procedures for an add and the victims for a
// delete.
type liveOp struct{ kind, idx int }

// liveMix returns n operations in a seeded order: one in writeEvery a
// write, adds and deletes alternating, the rest Zipf-picked pool
// queries. next counts the adds and the deletes handed out so far, so
// each add gets its own held-out procedure and each delete its own
// victim.
func liveMix(rng *rand.Rand, n int, pick func() int, next *[2]int) []liveOp {
	ops := make([]liveOp, n)
	for i := range ops {
		ops[i] = liveOp{opQuery, pick()}
	}
	for i := range n / writeEvery {
		ops[i].kind = opAdd + i%2
	}
	rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i, op := range ops {
		if op.kind != opQuery {
			ops[i].idx = next[op.kind-opAdd]
			next[op.kind-opAdd]++
		}
	}
	return ops
}

// victims returns n served targets to delete, in a seeded order: first
// those in the pool's priming answers, so the check that a deleted
// target never appears has teeth, then the others; never a pool
// procedure.
func (e *env) victims(c *client, pool []*pooled, n int) ([]string, error) {
	tg, err := c.targets()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, p := range pool {
		seen[p.name] = true
	}
	var answered, others []string
	for _, p := range pool {
		for _, r := range p.ref {
			if !seen[r.Target] {
				seen[r.Target] = true
				answered = append(answered, r.Target)
			}
		}
	}
	for _, t := range tg {
		if !seen[t.Name] {
			seen[t.Name] = true
			others = append(others, t.Name)
		}
	}
	e.rng.Shuffle(len(answered), func(i, j int) { answered[i], answered[j] = answered[j], answered[i] })
	e.rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	out := append(answered, others...)
	if len(out) < n {
		return nil, fmt.Errorf("live mix needs %d victims, the corpus has %d", n, len(out))
	}
	return out[:n], nil
}

func liveWrites(e *env) (*outcome, error) {
	o, l := &outcome{}, layers{}
	d, args, err := e.setup(o, l, "-wal", filepath.Join(e.dir, "corpus.wal"), "-fsync", "always")
	if err != nil {
		return nil, err
	}
	c := newClient(d.base, e.conns, e.rec)
	defer func() { c.close(); d.stop() }()
	pool, err := e.warmPool(c)
	if err != nil {
		return nil, err
	}
	if err := e.prime(o, c, pool); err != nil {
		return nil, err
	}
	e.queryWindow(o, c, "settle", pool, warmRate, int(warmRate*settleSeconds))

	// The open-loop window's mix, then the capacity step's in blocks of
	// 2*writeEvery, so whatever prefix the closed loop reaches keeps the
	// mix. In the window, queries and writes run as two open loops on one
	// connection each, so a write never holds up a query in the client
	// (they meet only inside the daemon), and one compaction runs half
	// way.
	pick := zipfPicker(e.rng, len(pool))
	var next [2]int
	winOps := liveMix(e.rng, int(liveRate*e.seconds), pick, &next)
	var capOps []liveOp
	for range capacityOps / (2 * writeEvery) {
		capOps = append(capOps, liveMix(e.rng, 2*writeEvery, pick, &next)...)
	}
	adds, err := e.heldOut(next[0])
	if err != nil {
		return nil, err
	}
	if len(adds) < next[0] {
		return nil, fmt.Errorf("live mix needs %d held-out procedures, have %d", next[0], len(adds))
	}
	victims, err := e.victims(c, pool, next[1])
	if err != nil {
		return nil, err
	}
	var qOps, wOps []liveOp
	var qDue, wDue []time.Duration
	for i, at := range arrivals(e.rng, len(winOps), liveRate) {
		if winOps[i].kind == opQuery {
			qOps, qDue = append(qOps, winOps[i]), append(qDue, at)
		} else {
			wOps, wDue = append(wOps, winOps[i]), append(wDue, at)
		}
	}
	compactAt := time.Duration(e.seconds / 2 * float64(time.Second))
	k, _ := slices.BinarySearch(wDue, compactAt)
	wOps, wDue = slices.Insert(wOps, k, liveOp{opCompact, 0}), slices.Insert(wDue, k, compactAt)

	stats0, err := c.stats()
	if err != nil {
		return nil, err
	}
	var before *counters
	if e.trace {
		if before, err = readCounters(c, d); err != nil {
			return nil, err
		}
	}

	var (
		mu                      sync.Mutex
		w                       = &window{}
		addLat, delLat, walAdd  []float64
		compactMS               float64
		deletedAt               = map[string]time.Time{}
		acked                   []string // added names, in ack order
		ackedAtCompact, nWrites int
	)
	walBytes := func() float64 {
		st, err := c.stats()
		if err != nil {
			return math.NaN()
		}
		k := counters{stats: st}
		v, _ := k.stat("writes", "wal", "bytes")
		return v
	}
	// run performs one operation and checks it, and returns its span
	// (queries), its completion time and whether it succeeded. A traced
	// query asks for the engine trace; a traced add measures the WAL
	// bytes it wrote, which holds only while a single connection writes.
	run := func(op liveOp, traced bool) (*span, time.Time, bool) {
		sent := time.Now()
		var (
			r     *queryReply
			sp    *span
			err   error
			bytes = math.NaN()
		)
		switch op.kind {
		case opQuery:
			r, sp, err = c.query(pool[op.idx].asm, queryTop, traced)
		case opAdd:
			b0 := math.NaN()
			if traced {
				b0 = walBytes()
			}
			_, err = c.add(adds[op.idx].String())
			if traced && err == nil {
				bytes = walBytes() - b0
			}
		case opDelete:
			_, err = c.remove(victims[op.idx])
		case opCompact:
			_, err = c.call("POST", "/v1/compact", nil, nil)
		}
		end := time.Now()
		mu.Lock()
		defer mu.Unlock()
		o.attempted++
		if err != nil {
			o.fail("live operation %+v: %v", op, err)
			return sp, end, false
		}
		switch op.kind {
		case opQuery:
			for _, res := range r.Results {
				if at, ok := deletedAt[res.Target]; ok && at.Before(sent) {
					o.fail("live query %s: deleted target %s in the answer", pool[op.idx].name, res.Target)
					return sp, end, false
				}
			}
		case opAdd:
			acked = append(acked, adds[op.idx].Name)
			nWrites++
			if !math.IsNaN(bytes) {
				walAdd = append(walAdd, bytes)
			}
		case opDelete:
			deletedAt[victims[op.idx]] = end
			nWrites++
		case opCompact:
			ackedAtCompact = len(acked)
		}
		return sp, end, true
	}
	endWindow := e.rec.phase("window")
	t0 := time.Now()
	var qLoop, wLoop loopStats
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		qLoop = openLoop(t0, qDue, 1, func(i int, dueAt time.Time) {
			sp, end, ok := run(qOps[i], e.trace && i%2 == 0)
			if !ok {
				return
			}
			lat := float64(end.Sub(dueAt).Nanoseconds()) / 1e6
			mu.Lock()
			defer mu.Unlock()
			w.lats = append(w.lats, lat)
			if sp.Engine != nil {
				w.tracedLats = append(w.tracedLats, lat)
				w.spans = append(w.spans, sp)
			} else {
				w.plainLats = append(w.plainLats, lat)
			}
		})
	}()
	go func() {
		defer wg.Done()
		wLoop = openLoop(t0, wDue, 1, func(i int, dueAt time.Time) {
			_, end, ok := run(wOps[i], e.trace)
			if !ok {
				return
			}
			lat := float64(end.Sub(dueAt).Nanoseconds()) / 1e6
			mu.Lock()
			defer mu.Unlock()
			switch wOps[i].kind {
			case opAdd:
				addLat = append(addLat, lat)
			case opDelete:
				delLat = append(delLat, lat)
			case opCompact:
				compactMS = lat
			}
		})
	}()
	wg.Wait()
	endWindow()
	w.loop = loopStats{LatenessMS: append(qLoop.LatenessMS, wLoop.LatenessMS...),
		BacklogMax: max(qLoop.BacklogMax, wLoop.BacklogMax), BacklogEnd: max(qLoop.BacklogEnd, wLoop.BacklogEnd)}
	if e.trace {
		after, err := readCounters(c, d)
		if err != nil {
			return nil, err
		}
		l.queryLayers(engineSpans(w.spans), before, after)
		wr, err := writeRecords(c, "write")
		if err != nil {
			return nil, err
		}
		l["write.engine_ms"] = nearestRank(wr, 50)
		l["wal.bytes_per_add"] = nearestRank(walAdd, 50)
		l["index.compact_s"] = after.prom["esh_compaction_seconds_sum"] - before.prom["esh_compaction_seconds_sum"]
	}
	e.reportWindow(o, l, "live", w, liveRate)
	if p, v, ok := tail(addLat); ok {
		o.note("add_tail_ms p%g %.3f ms (n=%d)", p, v, len(addLat))
	}
	o.note("add_p50_ms %.3f (n=%d)  delete_p50_ms %.3f (n=%d)  compact_s %.3f",
		nearestRank(addLat, 50), len(addLat), nearestRank(delLat, 50), len(delLat), compactMS/1000)

	// Capacity: the mix closed loop on every connection; throughput_qps
	// counts the correct query answers per second beside the writes.
	endCapacity := e.rec.phase("capacity")
	answered, written := 0, nWrites
	wall := closedLoop(e.conns, len(capOps), time.Duration(capacitySeconds*float64(time.Second)), func(i int) {
		if _, _, ok := run(capOps[i], false); ok && capOps[i].kind == opQuery {
			mu.Lock()
			answered++
			mu.Unlock()
		}
	})
	endCapacity()
	o.set("throughput_qps", "1/s", float64(answered)/wall.Seconds())
	o.note("live capacity: %d correct answers beside %d writes in %.2f s, closed loop on %d connections",
		answered, nWrites-written, wall.Seconds(), e.conns)

	// An added target ranks itself first: one add folded by the
	// compaction and the last one, still only in the WAL.
	var checks []string // asm of the queries re-checked after the restart
	var names []string
	if len(acked) > 0 {
		byName := map[string]*asm.Proc{}
		for _, p := range adds {
			byName[p.Name] = p
		}
		for _, nm := range []string{acked[max(ackedAtCompact-1, 0)], acked[len(acked)-1]} {
			checks, names = append(checks, byName[nm].String()), append(names, nm)
		}
	}
	checks, names = append(checks, pool[0].asm), append(names, pool[0].name)
	endChecks := e.rec.phase("pre-kill checks")
	preKill := make([][]result, len(checks))
	for i, q := range checks {
		o.attempted++
		r, _, err := c.query(q, queryTop, false)
		if err != nil {
			o.fail("pre-kill query %s: %v", names[i], err)
			continue
		}
		preKill[i] = r.Results
		if i < len(checks)-1 && (len(r.Results) == 0 || !ranksFirst(r.Results, names[i])) {
			o.fail("added target %s does not rank itself first", names[i])
		}
	}
	liveBefore, err := c.targets()
	if err != nil {
		return nil, err
	}
	statsK, err := c.stats()
	if err != nil {
		return nil, err
	}
	s0, s1 := counters{stats: stats0}, counters{stats: statsK}
	syncs0, _ := s0.stat("writes", "wal", "syncs")
	syncs1, ok := s1.stat("writes", "wal", "syncs")
	o.attempted++
	if ok && syncs1-syncs0 < float64(nWrites) {
		o.fail("wal syncs %v below the %d acknowledged writes at -fsync always", syncs1-syncs0, nWrites)
	}
	l["wal.syncs"] = syncs1 - syncs0
	l["write.acked"] = float64(nWrites)
	endChecks()
	if err := e.finish(o, l, d); err != nil {
		return nil, err
	}

	// SIGKILL, restart on the same snapshot and WAL, and check that the
	// answers and the live target set survived.
	c.close()
	defer e.rec.phase("restart")()
	killAt := time.Now()
	d.kill()
	d2, _, err := startDaemon(e.bin, filepath.Join(e.dir, "eshd-restart.log"), args...)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	d = d2
	recovered := time.Since(killAt)
	o.note("recover_s %.3f (SIGKILL to /readyz 200)", recovered.Seconds())
	c = newClient(d.base, e.conns, e.rec)
	if e.trace {
		pm, err := c.prom()
		if err != nil {
			return nil, err
		}
		l["index.replay_s"] = recovered.Seconds() - pm["esh_index_load_seconds_sum"]
		l.emit(o)
	}
	liveAfter, err := c.targets()
	if err != nil {
		return nil, err
	}
	o.attempted++
	if !sameTargets(liveBefore, liveAfter) {
		o.fail("live targets after restart differ from before the kill")
	}
	after := map[string]bool{}
	for _, t := range liveAfter {
		after[t.Name] = true
	}
	for _, nm := range acked {
		if !after[nm] {
			o.fail("acknowledged add %s lost in the crash", nm)
		}
	}
	for nm := range deletedAt {
		if after[nm] {
			o.fail("acknowledged delete of %s lost in the crash", nm)
		}
	}
	for i, q := range checks {
		o.attempted++
		r, _, err := c.query(q, queryTop, false)
		if err != nil {
			o.fail("post-restart query %s: %v", names[i], err)
			continue
		}
		if preKill[i] != nil && !sameAnswer(r.Results, preKill[i]) {
			o.fail("post-restart answer for %s differs from before the kill", names[i])
		}
	}
	return o, nil
}

// ranksFirst reports whether name holds the top score of the answer.
func ranksFirst(rs []result, name string) bool {
	for _, r := range rs {
		if r.Score != rs[0].Score {
			return false
		}
		if r.Target == name {
			return true
		}
	}
	return false
}

func sameTargets(a, b []targetInfo) bool {
	if len(a) != len(b) {
		return false
	}
	set := map[string]bool{}
	for _, t := range a {
		set[t.Name] = true
	}
	for _, t := range b {
		if !set[t.Name] {
			return false
		}
	}
	return true
}
