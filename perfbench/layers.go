package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/telemetry"
)

// counters is one reading of the daemon's own counters, taken before and
// after a measured phase of a traced run.
type counters struct {
	stats map[string]any
	prom  map[string]float64
	cpu   float64 // daemon CPU seconds
	at    time.Time
}

func readCounters(c *client, d *daemon) (*counters, error) {
	st, err := c.stats()
	if err != nil {
		return nil, err
	}
	pm, err := c.prom()
	if err != nil {
		return nil, err
	}
	cpu, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	return &counters{stats: st, prom: pm, cpu: cpu, at: time.Now()}, nil
}

// stat reads a number from /v1/stats by its JSON path. Counters a later
// version of the daemon no longer reports read as absent.
func (k *counters) stat(path ...string) (float64, bool) {
	var v any = k.stats
	for _, p := range path {
		m, ok := v.(map[string]any)
		if !ok {
			return 0, false
		}
		v = m[p]
	}
	f, ok := v.(float64)
	return f, ok
}

// layers accumulates the per-layer metrics of one traced run.
type layers map[string]float64

// delta sets name to the change of a /v1/stats counter between two
// readings, or to 0 (with a note) when the daemon does not report it.
func (l layers) delta(name string, a, b *counters, path ...string) float64 {
	x, ok1 := a.stat(path...)
	y, ok2 := b.stat(path...)
	if !ok1 || !ok2 {
		fmt.Fprintf(os.Stderr, "perfbench: /v1/stats has no %v; %s reported as 0\n", path, name)
		l[name] = 0
		return 0
	}
	l[name] = y - x
	return y - x
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// queryLayers derives the read-path layer metrics from the engine span
// trees of the traced queries (grafted under the benchmark's HTTP spans)
// and from counter deltas over the measured phase. Every count of engine
// work (strands, pairs, verifier calls, γ, kernel time, sketch skips) is
// summed over the traced queries' spans, so the counts and their ratios
// share one base; the counters the spans do not carry (server
// rejections and timeouts, batch occupancy, CPU) come from /v1/stats,
// /metrics and /proc.
func (l layers) queryLayers(traced []*span, a, b *counters) {
	var self, dec, prep, vcp, score, fin []float64
	var sumRoot, sumVCP, strands, unique float64
	var pairs, pruned, hits, misses, calls, gamma, kernelNS, skipped, dead float64
	for _, sp := range traced {
		root := sp.Engine
		if root == nil {
			continue
		}
		self = append(self, sp.ms()-root.DurationMS)
		stages := 0.0
		for _, ch := range root.Children {
			stages += ch.DurationMS
		}
		fin = append(fin, root.DurationMS-stages)
		sumRoot += root.DurationMS
		if s := root.Find("decompose"); s != nil {
			dec = append(dec, s.DurationMS)
			strands += s.Attrs["strands"]
		}
		if s := root.Find("prepare"); s != nil {
			prep = append(prep, s.DurationMS)
			unique += s.Attrs["unique_strands"]
		}
		if s := root.Find("vcp"); s != nil {
			vcp = append(vcp, s.DurationMS)
			sumVCP += s.DurationMS
			pairs += s.Attrs["pairs"]
			pruned += s.Attrs["pairs_pruned"]
			hits += s.Attrs["cache_hits"]
			misses += s.Attrs["cache_misses"]
			calls += s.Attrs["verifier_calls"]
			gamma += s.Attrs["correspondences"]
			kernelNS += s.Attrs["kernel_nanos"]
			skipped += s.Attrs["lsh_skipped"]
			dead += s.Attrs["dead_directions"]
		}
		if s := root.Find("score"); s != nil {
			score = append(score, s.DurationMS)
		}
	}
	l["server.self_ms"] = nearestRank(self, 50)
	l["decompose.ms"] = nearestRank(dec, 50)
	l["decompose.strands"] = strands
	l["prepare.ms"] = nearestRank(prep, 50)
	l["prepare.unique_strands"] = unique
	l["stage3.ms"] = nearestRank(vcp, 50)
	l["stage3.share"] = ratio(sumVCP, sumRoot)
	l["stage3.pairs"] = pairs
	l["stage3.pairs_pruned"] = pruned
	l["stage3.cache_hit_rate"] = ratio(hits, hits+misses)
	l["score.ms"] = nearestRank(score, 50)
	l["finalize.ms"] = nearestRank(fin, 50)
	wall := b.at.Sub(a.at).Seconds()
	l["stage3.cpu_util"] = ratio(b.cpu-a.cpu, wall*float64(runtime.NumCPU()))

	l["vcp.verifier_calls"] = calls
	l["vcp.gamma"] = gamma
	l["vcp.gamma_per_call"] = ratio(gamma, calls)
	l["smt.kernel_s"] = kernelNS / 1e9
	l["smt.ns_per_gamma"] = ratio(kernelNS, gamma)
	l["sketch.pairs_skipped"] = skipped
	l["sketch.dead_directions"] = dead
	l["sketch.skip_ratio"] = ratio(skipped, pairs)

	l.delta("server.rejected", a, b, "queries", "rejected")
	l.delta("server.timeouts", a, b, "queries", "timeouts")
	const occ = "esh_kernel_gamma_batch_occupancy"
	l["smt.batch_occupancy"] = ratio(b.prom[occ+"_sum"]-a.prom[occ+"_sum"], b.prom[occ+"_count"]-a.prom[occ+"_count"])
}

// engineSpans returns the spans among sps that carry an engine trace.
func engineSpans(sps []*span) []*span {
	var out []*span
	for _, sp := range sps {
		if sp != nil && sp.Engine != nil {
			out = append(out, sp)
		}
	}
	return out
}

// writeRecords returns the durations of the flight-recorder entries of
// the given kind (write, delete, compact) from GET /debug/queries.
func writeRecords(c *client, kind string) ([]float64, error) {
	var r struct {
		Records []*telemetry.QueryRecord `json:"records"`
	}
	if _, err := c.call("GET", "/debug/queries?n=100000", nil, &r); err != nil {
		return nil, err
	}
	var out []float64
	for _, rec := range r.Records {
		if rec.Kind == kind && rec.Outcome == "completed" {
			out = append(out, rec.DurationMS)
		}
	}
	return out, nil
}

// perLayerNames lists every per-layer metric with its unit; a traced run
// reports all of them, 0 where the workload does not exercise the layer.
var perLayerNames = [][2]string{
	{"server.self_ms", "ms"}, {"server.rejected", "count"}, {"server.timeouts", "count"},
	{"decompose.ms", "ms"}, {"decompose.strands", "count"},
	{"prepare.ms", "ms"}, {"prepare.unique_strands", "count"},
	{"stage3.ms", "ms"}, {"stage3.share", "ratio"}, {"stage3.pairs", "count"}, {"stage3.pairs_pruned", "count"},
	{"stage3.cpu_util", "ratio"}, {"stage3.cache_hit_rate", "ratio"},
	{"vcp.verifier_calls", "count"}, {"vcp.gamma", "count"}, {"vcp.gamma_per_call", "count"},
	{"smt.kernel_s", "s"}, {"smt.ns_per_gamma", "ns"}, {"smt.batch_occupancy", "ratio"},
	{"sketch.pairs_skipped", "count"}, {"sketch.dead_directions", "count"}, {"sketch.skip_ratio", "ratio"},
	{"score.ms", "ms"}, {"finalize.ms", "ms"},
	{"write.engine_ms", "ms"}, {"write.acked", "count"}, {"wal.syncs", "count"}, {"wal.bytes_per_add", "bytes"},
	{"index.build_s", "s"}, {"index.load_s", "s"}, {"index.compact_s", "s"}, {"index.replay_s", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"loadgen.lateness_p99_ms", "ms"}, {"loadgen.backlog_max", "count"},
}

// emit copies the per-layer metrics into the outcome, every name present.
func (l layers) emit(o *outcome) {
	for _, nu := range perLayerNames {
		o.set(nu[0], nu[1], l[nu[0]])
	}
}
