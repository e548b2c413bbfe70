package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/asm"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// QueryResponse is the gateway's POST /v1/query reply: the single-node
// response shape (so clients and diff tools need no gateway-specific
// handling) plus degradation flags. On a complete fleet Partial is
// false and both extra fields are omitted, making the body
// field-for-field comparable with a single node's.
type QueryResponse struct {
	server.QueryResponse
	// Partial is true when at least one shard contributed nothing;
	// results then cover only the reachable corpus.
	Partial bool `json:"partial,omitempty"`
	// MissingShards lists the shard IDs that contributed nothing.
	MissingShards []int `json:"missing_shards,omitempty"`
}

// Handler returns the gateway's HTTP handler tree. The query surface
// mirrors internal/server's: same request schema, same ranked response
// rows, plus /readyz reporting whether every shard is reachable.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", g.handleQuery)
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	mux.HandleFunc("GET /v1/fleet", g.handleFleet)
	mux.HandleFunc("GET /debug/slow", g.handleSlow)
	mux.HandleFunc("GET /debug/queries", g.handleRecent)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", g.handleReady)
	return g.logged(mux)
}

// logged mirrors the server's request-ID/logging middleware so gateway
// and shard log lines correlate on the same token (the gateway forwards
// its ID in X-Request-ID on every fan-out leg).
func (g *Gateway) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get("X-Request-ID")
		if rid == "" || len(rid) > 128 {
			rid = server.NewRequestID()
		}
		w.Header().Set("X-Request-ID", rid)
		r = r.WithContext(server.WithRequestID(r.Context(), rid))
		next.ServeHTTP(w, r)
		g.cfg.Logger.Info("request",
			"request_id", rid,
			"method", r.Method,
			"path", r.URL.Path,
			"dur_ms", float64(time.Since(start).Microseconds())/1000,
			"remote", r.RemoteAddr,
		)
	})
}

func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for sid := range g.ready {
		ok := false
		for j := range g.ready[sid] {
			if g.ready[sid][j].Load() {
				ok = true
				break
			}
		}
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "shard %d has no ready replica\n", sid)
			return
		}
	}
	fmt.Fprintln(w, "ready")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (g *Gateway) fail(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (g *Gateway) count(result string) { g.outcomes[result].Inc() }

// record publishes one fan-out's flight-recorder entry, with the
// per-shard leg outcomes, and emits the slow-query warning when it
// crossed the threshold. Only queries that reached the fleet are
// recorded (bad_input and rejected requests never fanned out).
func (g *Gateway) record(rid, outcome, errMsg string, start time.Time, root *telemetry.Span, replies []shardReply) {
	man := g.cfg.Manifest
	rec := &telemetry.QueryRecord{
		ID:         rid,
		Kind:       "gateway",
		Start:      start,
		Outcome:    outcome,
		Err:        errMsg,
		Generation: man.Generation,
	}
	rec.FillFromTrace(root.Snapshot())
	rec.Shards = make([]telemetry.ShardOutcome, len(replies))
	for i, rep := range replies {
		so := telemetry.ShardOutcome{
			Shard:    rep.sid,
			Replica:  rep.replica,
			Millis:   rep.millis,
			Attempts: rep.attempts,
			Hedged:   rep.hedged,
		}
		if rep.err != nil {
			so.Err = rep.err.Error()
		}
		rec.Shards[i] = so
	}
	if g.rec.Record(rec) {
		g.slowQ.Inc()
		g.cfg.Logger.Warn("slow query",
			"request_id", rid,
			"kind", "gateway",
			"outcome", outcome,
			"dur_ms", rec.DurationMS,
			"threshold_ms", float64(g.rec.SlowThreshold().Microseconds())/1000,
			"stage_ms", fmt.Sprintf("%v", rec.StageMS),
		)
	}
}

func (g *Gateway) handleSlow(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, &server.SlowResponse{
		ThresholdMS: float64(g.rec.SlowThreshold().Microseconds()) / 1000,
		Total:       g.rec.SlowTotal(),
		Recorded:    g.rec.Total(),
		Records:     g.rec.Slow(),
	})
}

func (g *Gateway) handleRecent(w http.ResponseWriter, r *http.Request) {
	n := 100
	if v := r.URL.Query().Get("n"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
			n = parsed
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":   g.rec.Total(),
		"records": g.rec.Recent(n),
	})
}

// handleFleet serves GET /v1/fleet: the JSON fleet-health view —
// generation, readiness, gateway-observed per-shard latency quantiles,
// and each shard's last federation scrape.
func (g *Gateway) handleFleet(w http.ResponseWriter, r *http.Request) {
	fleet := &shard.FleetHealth{
		Generation:    g.cfg.Manifest.Generation,
		StartTime:     g.started.UTC(),
		UptimeSeconds: time.Since(g.started).Seconds(),
		Ready:         true,
		Shards:        make([]shard.ShardHealth, len(g.cfg.Shards)),
	}
	for sid, reps := range g.cfg.Shards {
		sh := shard.ShardHealth{
			ID:       sid,
			Targets:  len(g.cfg.Manifest.Shards[sid].Targets),
			Replicas: make([]shard.ReplicaHealth, len(reps)),
		}
		anyReady := false
		for j, u := range reps {
			up := g.ready[sid][j].Load()
			sh.Replicas[j] = shard.ReplicaHealth{URL: u, Ready: up}
			fleet.Replicas++
			if up {
				anyReady = true
				fleet.ReadyReplicas++
			}
		}
		if !anyReady {
			fleet.Ready = false
		}
		sh.P50MS = quantileMS(g.shardQ[sid], 0.5)
		sh.P95MS = quantileMS(g.shardQ[sid], 0.95)
		sh.P99MS = quantileMS(g.shardQ[sid], 0.99)
		if sr := g.scrapes[sid].Load(); sr != nil {
			sh.UptimeSeconds = sr.uptime
			sh.LastScrape = &shard.ScrapeStatus{
				Replica: sr.replica,
				At:      sr.at.UTC(),
				Millis:  sr.millis,
				Series:  sr.series,
				Err:     sr.err,
			}
		}
		fleet.Shards[sid] = sh
	}
	writeJSON(w, http.StatusOK, fleet)
}

// quantileMS reads one quantile as milliseconds, mapping the empty
// stream's NaN to 0 so the value is JSON-encodable.
func quantileMS(q *telemetry.Quantiles, p float64) float64 {
	v := q.Quantile(p)
	if math.IsNaN(v) {
		return 0
	}
	return v * 1000
}

func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req server.QueryRequest
	body := http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		g.count("bad_input")
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			g.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", g.cfg.MaxBodyBytes)
			return
		}
		g.fail(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	m, err := server.MethodByName(req.Method)
	if err != nil {
		g.count("bad_input")
		g.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	top := req.Top
	if top <= 0 {
		top = 20
	}
	if top > g.cfg.MaxTop {
		top = g.cfg.MaxTop
	}
	// Parse locally before burning fleet work: malformed asm fails here
	// with a 400 instead of N× 400s from the shards.
	procs, err := asm.Parse(req.Asm)
	if err != nil {
		g.count("bad_input")
		g.fail(w, http.StatusBadRequest, "parse asm: %v", err)
		return
	}
	if len(procs) == 0 {
		g.count("bad_input")
		g.fail(w, http.StatusBadRequest, "no procedure in request")
		return
	}
	wantTrace := r.URL.Query().Get("trace") == "1"

	select {
	case g.sem <- struct{}{}:
		defer func() { <-g.sem }()
	default:
		g.count("rejected")
		w.Header().Set("Retry-After", "1")
		g.fail(w, http.StatusTooManyRequests, "too many in-flight queries (limit %d)", g.cfg.MaxInFlight)
		return
	}

	// Forward a canonical body: the query procedure and its method
	// (which decides whether the shards pay for S-VCP), ignored top
	// stripped.
	fwd, err := json.Marshal(server.QueryRequest{Asm: req.Asm, Method: req.Method})
	if err != nil {
		g.fail(w, http.StatusInternalServerError, "encode fan-out body: %v", err)
		return
	}

	start := time.Now()
	rid := server.RequestID(r.Context())
	ctx, cancel := context.WithTimeout(server.WithRequestID(context.Background(), rid), g.cfg.QueryTimeout)
	defer cancel()
	qctx, root := telemetry.StartSpan(ctx, "gateway_query")
	replies := g.scatter(qctx, fwd, wantTrace)
	root.End()

	parts := make([]*shard.Partial, 0, len(replies))
	for _, rep := range replies {
		if rep.err != nil {
			g.cfg.Logger.Warn("shard failed",
				"request_id", rid,
				"shard", rep.sid, "attempts", rep.attempts, "err", rep.err.Error())
			continue
		}
		parts = append(parts, rep.partial)
	}
	report, missing, err := shard.Merge(g.cfg.Manifest, parts)
	if err == nil && m == stats.SVCP && !report.HasSVCP {
		err = fmt.Errorf("shards answered without S-VCP for method %q", req.Method)
	}
	if err != nil {
		g.count("failure")
		g.record(rid, "failure", err.Error(), start, root, replies)
		status := http.StatusBadGateway
		if len(parts) > 0 {
			// Shards answered but inconsistently — a fleet bug, not a
			// transient outage.
			status = http.StatusInternalServerError
		}
		g.fail(w, status, "merge: %v", err)
		return
	}

	outcome := "completed"
	if len(missing) > 0 {
		outcome = "partial"
	}
	g.count(outcome)
	g.latency.Observe(time.Since(start).Seconds())
	g.lat.Observe(time.Since(start).Seconds())
	g.record(rid, outcome, "", start, root, replies)

	resp := &QueryResponse{
		QueryResponse: *server.BuildQueryResponse(report, m, top),
		Partial:       len(missing) > 0,
		MissingShards: missing,
	}
	resp.RequestID = server.RequestID(r.Context())
	if wantTrace {
		resp.Trace = root.Snapshot()
	}
	writeJSON(w, http.StatusOK, resp)
}

// StatsResponse is the gateway's GET /v1/stats reply.
type StatsResponse struct {
	StartTime     time.Time `json:"start_time"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	Fleet         struct {
		Generation string `json:"generation"`
		Shards     int    `json:"shards"`
		Targets    int    `json:"targets"`
		Replicas   int    `json:"replicas"`
		Ready      int    `json:"ready_replicas"`
	} `json:"fleet"`
	Queries struct {
		Completed uint64 `json:"completed"`
		Partial   uint64 `json:"partial"`
		Failures  uint64 `json:"failures"`
		Rejected  uint64 `json:"rejected"`
		BadInput  uint64 `json:"bad_input"`
		InFlight  int    `json:"in_flight"`
		MaxIn     int    `json:"max_in_flight"`
	} `json:"queries"`
	Hedges  uint64 `json:"hedges"`
	Retries uint64 `json:"retries"`
	// ShardReady[i] lists per-replica readiness for shard i, in
	// configured replica order.
	ShardReady [][]bool `json:"shard_ready"`
	// LatencyMS buckets end-to-end merged-query latency.
	LatencyMS map[string]uint64 `json:"latency_ms"`
	// LatencyQuantilesMS are the streamed P2 estimates behind the
	// esh_gw_query_quantile_seconds gauges (zero until traffic).
	LatencyQuantilesMS map[string]float64 `json:"latency_quantiles_ms"`
	// Recorder summarizes the flight recorder (see /debug/slow).
	Recorder struct {
		Records     uint64  `json:"records"`
		Slow        uint64  `json:"slow"`
		ThresholdMS float64 `json:"threshold_ms"`
	} `json:"recorder"`
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := &StatsResponse{
		StartTime:     g.started.UTC(),
		UptimeSeconds: time.Since(g.started).Seconds(),
	}
	resp.Fleet.Generation = g.cfg.Manifest.Generation
	resp.Fleet.Shards = len(g.cfg.Manifest.Shards)
	resp.Fleet.Targets = g.cfg.Manifest.NumTargets
	resp.ShardReady = make([][]bool, len(g.ready))
	for i := range g.ready {
		resp.ShardReady[i] = make([]bool, len(g.ready[i]))
		for j := range g.ready[i] {
			resp.Fleet.Replicas++
			up := g.ready[i][j].Load()
			resp.ShardReady[i][j] = up
			if up {
				resp.Fleet.Ready++
			}
		}
	}
	resp.Queries.Completed = g.outcomes["completed"].Value()
	resp.Queries.Partial = g.outcomes["partial"].Value()
	resp.Queries.Failures = g.outcomes["failure"].Value()
	resp.Queries.Rejected = g.outcomes["rejected"].Value()
	resp.Queries.BadInput = g.outcomes["bad_input"].Value()
	resp.Queries.InFlight = len(g.sem)
	resp.Queries.MaxIn = g.cfg.MaxInFlight
	resp.Hedges = g.hedges.Value()
	resp.Retries = g.retries.Value()

	bounds, counts := g.latency.Snapshot()
	resp.LatencyMS = make(map[string]uint64, len(counts))
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if i < len(bounds) {
			resp.LatencyMS[fmt.Sprintf("<=%gms", bounds[i]*1000)] = n
		} else {
			resp.LatencyMS[fmt.Sprintf(">%gms", bounds[len(bounds)-1]*1000)] = n
		}
	}
	resp.LatencyQuantilesMS = make(map[string]float64, len(latencyQuantiles))
	for _, q := range latencyQuantiles {
		resp.LatencyQuantilesMS[fmt.Sprintf("p%g", q*100)] = quantileMS(g.lat, q)
	}
	resp.Recorder.Records = g.rec.Total()
	resp.Recorder.Slow = g.rec.SlowTotal()
	resp.Recorder.ThresholdMS = float64(g.rec.SlowThreshold().Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics renders the federated exposition: the gateway's own
// registry plus every shard's last scraped /metrics page re-labeled
// with shard="<id>". The merge goes through parse → label → merge →
// re-render, so the result is one family block per name with a single
// TYPE/HELP line — strict-parser-clean by construction even when the
// gateway and shards export same-named families (esh_build_info,
// esh_process_start_time_seconds). Scraped families whose type
// conflicts with the gateway's own are dropped and counted.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var buf bytes.Buffer
	if err := g.reg.WriteText(&buf); err != nil {
		return
	}
	own, err := telemetry.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		// The registry's own rendering should always parse; degrade to
		// the raw page rather than serving nothing.
		_, _ = w.Write(buf.Bytes())
		return
	}
	var scraped []*telemetry.ParsedFamily
	for sid := range g.scrapes {
		sr := g.scrapes[sid].Load()
		if sr == nil || sr.fams == nil {
			continue
		}
		for _, f := range sr.fams {
			scraped = append(scraped, f.WithLabels("shard", strconv.Itoa(sid)))
		}
	}
	merged, dropped := telemetry.MergeFamilies(own, scraped)
	if n := len(dropped); n > 0 {
		g.fedDropped.Add(uint64(n))
	}
	_ = telemetry.WriteFamilies(w, merged)
}
