// Package server exposes an indexed core.DB over HTTP as a JSON query
// service — the lookup half of the index-once/query-many split. It is
// deliberately small: request decoding, a per-request timeout, an
// in-flight query limit (back-pressure instead of queue collapse),
// metrics, and structured logging. Process lifecycle (listening,
// signal-driven graceful shutdown) belongs to cmd/eshd.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Config tunes the service. Zero values select the documented defaults.
type Config struct {
	// QueryTimeout bounds one query's wall time, queueing included
	// (default 60s).
	QueryTimeout time.Duration
	// MaxInFlight bounds concurrently executing queries; excess
	// requests are rejected with 429 (default 2×GOMAXPROCS).
	MaxInFlight int
	// MaxBodyBytes bounds the request body (default 8 MiB).
	MaxBodyBytes int64
	// MaxTop caps the top parameter (default 1000).
	MaxTop int
	// Logger receives one structured line per request (default
	// slog.Default).
	Logger *slog.Logger
	// Snapshot identifies the index snapshot the DB was loaded from
	// (version, checksum, shard). Optional — an in-memory corpus has
	// none — but a gateway needs it in /v1/stats to verify the fleet.
	Snapshot index.Info
	// SlowQueryThreshold marks queries at or above this duration as
	// slow: they keep their full span tree in the flight recorder, show
	// up at GET /debug/slow, and emit a structured warning line. Default
	// 1s; negative disables slow capture (the recorder itself stays on).
	SlowQueryThreshold time.Duration
	// RecorderSize / SlowLogSize bound the flight-recorder rings
	// (defaults telemetry.DefaultRecorderSize / DefaultSlowLogSize).
	RecorderSize int
	SlowLogSize  int
	// EnableWrites turns on the live write API (POST /v1/targets,
	// DELETE /v1/targets/{name}, POST /v1/compact). Off by default:
	// without a write-ahead log the daemon cannot make writes durable,
	// so cmd/eshd enables it only when -wal is set.
	EnableWrites bool
	// Compact, when non-nil, is invoked by POST /v1/compact (and is how
	// the daemon's background compactor and the API share one code
	// path). It returns the new generation and folded WAL high-water
	// mark.
	Compact func() (gen, hwm uint64, err error)
	// WALStats, when non-nil, supplies journal statistics for /v1/stats.
	WALStats func() wal.Stats
}

func (c Config) withDefaults() Config {
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 60 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxTop <= 0 {
		c.MaxTop = 1000
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.SlowQueryThreshold == 0 {
		c.SlowQueryThreshold = time.Second
	}
	if c.SlowQueryThreshold < 0 {
		c.SlowQueryThreshold = 0 // disabled
	}
	return c
}

// queryResults enumerate the label values of esh_http_queries_total: one
// terminal outcome per query request.
var queryResults = [...]string{"completed", "failure", "timeout", "rejected", "bad_input"}

// Server serves similarity queries — and, with writes enabled, live
// corpus mutations — against one DB.
type Server struct {
	db  *core.DB
	cfg Config
	sem chan struct{}

	// snapMu guards the serving snapshot identity: compaction persists a
	// new snapshot generation under the live daemon and updates it via
	// SetSnapshotInfo while /v1/stats reads it.
	snapMu   sync.RWMutex
	snapshot index.Info
	// queryFn indirects db.QueryCtx so tests can inject slow or failing
	// queries deterministically; partialFn likewise for db.PartialQueryCtx.
	queryFn   func(context.Context, *asm.Proc, stats.Method) (*core.Report, error)
	partialFn func(context.Context, *asm.Proc, stats.Method) (*core.QueryPartial, error)

	// ready gates /readyz: true once the snapshot is loaded and
	// serving, flipped false by SetReady during graceful drain so load
	// balancers and the gateway stop picking this replica before the
	// listener closes. Liveness (/healthz) is independent: a draining
	// process is still alive.
	ready atomic.Bool

	// HTTP-level metrics; engine metrics live in the DB's registry and
	// both are rendered by /metrics.
	reg      *telemetry.Registry
	outcomes map[string]*telemetry.Counter // by queryResults label
	latency  *telemetry.Histogram
	started  time.Time

	// Flight recorder: every query that reached the engine leaves a
	// structured record here whether or not the caller traced it; slow
	// ones retain their span tree. lat feeds the streaming p50/p95/p99
	// gauges next to the latency histogram; slowQ counts slow queries.
	rec   *telemetry.Recorder
	lat   *telemetry.Quantiles
	slowQ *telemetry.Counter
}

// latencyQuantiles are the streamed percentiles exported as gauges and
// reported in /v1/stats, by both the server and the gateway.
var latencyQuantiles = [...]float64{0.5, 0.95, 0.99}

// New builds a Server around an indexed database.
func New(db *core.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:        db,
		cfg:       cfg,
		sem:       make(chan struct{}, cfg.MaxInFlight),
		snapshot:  cfg.Snapshot,
		queryFn:   db.QueryCtx,
		partialFn: db.PartialQueryCtx,
		reg:       telemetry.NewRegistry(),
		started:   time.Now(),
	}
	s.ready.Store(true)
	s.outcomes = make(map[string]*telemetry.Counter, len(queryResults))
	for _, res := range queryResults {
		s.outcomes[res] = s.reg.Counter("esh_http_queries_total",
			"Query requests by terminal outcome.", "result", res)
	}
	s.latency = s.reg.Histogram("esh_http_query_seconds",
		"End-to-end latency of completed queries.", nil)
	s.reg.GaugeFunc("esh_http_inflight_queries", "Queries executing right now.",
		func() float64 { return float64(len(s.sem)) })
	s.reg.GaugeFunc("esh_http_max_inflight", "Configured in-flight query limit.",
		func() float64 { return float64(cfg.MaxInFlight) })
	s.reg.GaugeFunc("esh_http_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.reg.Gauge("esh_process_start_time_seconds",
		"Unix time the process started.").Set(float64(s.started.UnixNano()) / 1e9)
	s.reg.Gauge("esh_build_info", "Build information (value is always 1).",
		"go_version", runtime.Version()).Set(1)

	s.rec = telemetry.NewRecorder(cfg.RecorderSize, cfg.SlowLogSize, cfg.SlowQueryThreshold)
	s.lat = telemetry.NewQuantiles(latencyQuantiles[:]...)
	s.slowQ = s.reg.Counter("esh_http_slow_queries_total",
		"Queries at or above the slow-query threshold.")
	s.reg.GaugeFunc("esh_flight_recorder_records",
		"Query records ever published to the flight recorder.",
		func() float64 { return float64(s.rec.Total()) })
	for _, q := range latencyQuantiles {
		q := q
		s.reg.GaugeFunc("esh_http_query_quantile_seconds",
			"Streaming latency quantiles of completed queries (P2 estimator).",
			func() float64 { return s.lat.Quantile(q) },
			"quantile", telemetry.FormatQuantile(q))
	}
	return s
}

// Handler returns the HTTP handler tree (with request-ID assignment and
// request logging).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/query/partial", s.handlePartial)
	mux.HandleFunc("GET /v1/targets", s.handleTargets)
	mux.HandleFunc("POST /v1/targets", s.handleAddTarget)
	mux.HandleFunc("DELETE /v1/targets/{name}", s.handleDeleteTarget)
	mux.HandleFunc("POST /v1/compact", s.handleCompact)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /debug/slow", s.handleSlow)
	mux.HandleFunc("GET /debug/queries", s.handleRecent)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	return s.logged(mux)
}

// SetReady flips the /readyz state. cmd/eshd calls SetReady(false) at
// the start of a graceful drain, then waits out a grace period before
// closing the listener, so pollers observe the 503 and route around the
// replica while it still answers in-flight (and straggler) queries.
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// Ready reports the current /readyz state.
func (s *Server) Ready() bool { return s.ready.Load() }

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

type requestIDKey struct{}

// NewRequestID returns a fresh request ID: 8 random bytes, hex-encoded.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// RequestID returns the request ID assigned to ctx by the handler
// chain, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// WithRequestID returns ctx carrying rid, so non-server frontends (the
// gateway) reuse the same correlation plumbing.
func WithRequestID(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, rid)
}

// logged assigns every request an ID (the client's X-Request-ID when
// present, otherwise generated), echoes it in the response header, and
// emits one structured log line carrying it — so a log line, a traced
// response and a client retry all correlate on one token.
func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get("X-Request-ID")
		if rid == "" || len(rid) > 128 {
			rid = NewRequestID()
		}
		w.Header().Set("X-Request-ID", rid)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, rid))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		s.cfg.Logger.Info("request",
			"request_id", rid,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur_ms", float64(time.Since(start).Microseconds())/1000,
			"remote", r.RemoteAddr,
		)
	})
}

// handleMetrics renders the server, engine, and process-default metric
// registries as one Prometheus text-format page. Names are disjoint by
// construction (esh_http_*, esh_vcp_*/esh_query_*/esh_index_* gauges,
// esh_index_*_seconds), so concatenation is a valid exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, reg := range []*telemetry.Registry{s.reg, s.db.Metrics(), telemetry.Default()} {
		if err := reg.WriteText(w); err != nil {
			return // client went away; nothing sensible to do
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// QueryRequest is the POST /v1/query body.
type QueryRequest struct {
	// Asm holds one or more procedures in assembler-text form; the
	// first is the query.
	Asm string `json:"asm"`
	// Method is the ranking method: "esh" (default), "slog", "svcp".
	// Only "svcp" pays for the reverse VCP direction, and only then do
	// the results carry S-VCP scores. /v1/query/partial reads it too.
	Method string `json:"method,omitempty"`
	// Top bounds the number of ranked results (default 20).
	Top int `json:"top,omitempty"`
}

// QueryResult is one ranked row of a QueryResponse.
type QueryResult struct {
	Rank      int     `json:"rank"`
	Target    string  `json:"target"`
	Package   string  `json:"package,omitempty"`
	Toolchain string  `json:"toolchain,omitempty"`
	Patched   bool    `json:"patched,omitempty"`
	Score     float64 `json:"score"`
	GES       float64 `json:"ges"`
	SLOG      float64 `json:"slog"`
	// SVCP is present only when the query asked for method "svcp".
	SVCP *float64 `json:"svcp,omitempty"`
}

// QueryResponse is the POST /v1/query reply.
type QueryResponse struct {
	Query      string        `json:"query"`
	RequestID  string        `json:"request_id,omitempty"`
	Method     string        `json:"method"`
	NumBlocks  int           `json:"num_blocks"`
	NumStrands int           `json:"num_strands"`
	Results    []QueryResult `json:"results"`
	// Trace is the per-query span tree (stage timings and work counts),
	// present when the request opted in with ?trace=1.
	Trace *telemetry.SpanData `json:"trace,omitempty"`
}

// MethodByName maps a wire-form ranking-method name to a stats.Method;
// "" selects the default (esh). Shared with the gateway, which speaks
// the same request schema.
func MethodByName(name string) (stats.Method, error) {
	switch name {
	case "", "esh":
		return stats.Esh, nil
	case "slog":
		return stats.SLOG, nil
	case "svcp":
		return stats.SVCP, nil
	}
	return stats.Esh, fmt.Errorf("unknown method %q (esh, slog, svcp)", name)
}

func (s *Server) count(result string) { s.outcomes[result].Inc() }

// record publishes one query's flight-recorder entry — built from the
// span tree the handler grows for every query, traced or not — and
// emits the structured slow-query line when it crossed the threshold.
// Only queries that reached the engine are recorded; bad_input and
// rejected requests never ran and leave no record.
func (s *Server) record(kind, rid, outcome, errMsg string, start time.Time, root *telemetry.Span) {
	rec := &telemetry.QueryRecord{
		ID:         rid,
		Kind:       kind,
		Start:      start,
		Outcome:    outcome,
		Err:        errMsg,
		Generation: s.db.Shard().Generation,
	}
	snap := root.Snapshot()
	rec.FillFromTrace(snap)
	if s.rec.Record(rec) {
		s.slowQ.Inc()
		s.cfg.Logger.Warn("slow query",
			"request_id", rid,
			"kind", kind,
			"outcome", outcome,
			"dur_ms", rec.DurationMS,
			"threshold_ms", float64(s.rec.SlowThreshold().Microseconds())/1000,
			"pairs", rec.Pairs,
			"verifier_calls", rec.VerifierCalls,
			"stage_ms", fmt.Sprintf("%v", rec.StageMS),
		)
	}
}

// SlowResponse is the GET /debug/slow reply: the retained slow-query
// records, newest first, each with its full span tree.
type SlowResponse struct {
	ThresholdMS float64                  `json:"threshold_ms"`
	Total       uint64                   `json:"total_slow"`
	Recorded    uint64                   `json:"total_recorded"`
	Records     []*telemetry.QueryRecord `json:"records"`
}

func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, &SlowResponse{
		ThresholdMS: float64(s.rec.SlowThreshold().Microseconds()) / 1000,
		Total:       s.rec.SlowTotal(),
		Recorded:    s.rec.Total(),
		Records:     s.rec.Slow(),
	})
}

// handleRecent serves GET /debug/queries: the most recent flight-recorder
// entries (trace-stripped unless slow), newest first. ?n= bounds the
// count (default 100).
func (s *Server) handleRecent(w http.ResponseWriter, r *http.Request) {
	n := 100
	if v := r.URL.Query().Get("n"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
			n = parsed
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":   s.rec.Total(),
		"records": s.rec.Recent(n),
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.count("bad_input")
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.cfg.MaxBodyBytes)
			return
		}
		s.fail(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	m, err := MethodByName(req.Method)
	if err != nil {
		s.count("bad_input")
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	top := req.Top
	if top <= 0 {
		top = 20
	}
	if top > s.cfg.MaxTop {
		top = s.cfg.MaxTop
	}
	procs, err := asm.Parse(req.Asm)
	if err != nil {
		s.count("bad_input")
		s.fail(w, http.StatusBadRequest, "parse asm: %v", err)
		return
	}
	if len(procs) == 0 {
		s.count("bad_input")
		s.fail(w, http.StatusBadRequest, "no procedure in request")
		return
	}
	wantTrace := r.URL.Query().Get("trace") == "1"

	// Admission: reject rather than queue when the configured number of
	// queries is already executing — a loaded search service should shed,
	// not build an unbounded latency backlog.
	select {
	case s.sem <- struct{}{}:
	default:
		s.count("rejected")
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, "too many in-flight queries (limit %d)", s.cfg.MaxInFlight)
		return
	}

	start := time.Now()
	type result struct {
		rep *core.Report
		err error
	}
	done := make(chan result, 1)
	// The engine runs on a background context (not r.Context()): a query
	// is not cancellable once started, and the span tree must stay valid
	// past a client disconnect. The root span covers queueing-free engine
	// time; QueryCtx hangs the stage spans under it.
	qctx, root := telemetry.StartSpan(context.Background(), "query")
	go func() {
		defer func() { <-s.sem }()
		rep, err := s.queryFn(qctx, procs[0], m)
		root.End()
		done <- result{rep, err}
	}()

	timer := time.NewTimer(s.cfg.QueryTimeout)
	defer timer.Stop()
	rid := RequestID(r.Context())
	select {
	case res := <-done:
		if res.err != nil {
			s.count("failure")
			s.record("query", rid, "failure", res.err.Error(), start, root)
			s.fail(w, http.StatusUnprocessableEntity, "query: %v", res.err)
			return
		}
		s.count("completed")
		secs := time.Since(start).Seconds()
		s.latency.Observe(secs)
		s.lat.Observe(secs)
		s.record("query", rid, "completed", "", start, root)
		resp := BuildQueryResponse(res.rep, m, top)
		resp.RequestID = rid
		if wantTrace {
			resp.Trace = root.Snapshot()
		}
		writeJSON(w, http.StatusOK, resp)
	case <-timer.C:
		// The engine query is not cancellable; it keeps running (and
		// keeps holding its in-flight slot) while the client gets a 504.
		// The record snapshots the still-running span tree: elapsed time
		// so far, with whatever stages have finished.
		s.count("timeout")
		s.record("query", rid, "timeout", fmt.Sprintf("query exceeded %s", s.cfg.QueryTimeout), start, root)
		s.fail(w, http.StatusGatewayTimeout, "query exceeded %s", s.cfg.QueryTimeout)
	}
}

// PartialResponse is the POST /v1/query/partial reply: one shard's
// contribution to a scattered query, for a gateway to merge. The shard
// identity inside lets the gateway check the reply against its manifest.
type PartialResponse struct {
	RequestID string         `json:"request_id,omitempty"`
	Partial   *shard.Partial `json:"partial"`
	// Trace is the per-query span tree, present with ?trace=1; the
	// gateway grafts it into its fan-out trace.
	Trace *telemetry.SpanData `json:"trace,omitempty"`
}

// handlePartial runs the shard-local stages of a query and returns the
// wire-form partial instead of finalized scores. Request shape is the
// same as /v1/query (top is ignored — ranking happens at the gateway;
// method decides whether the shard computes S-VCP), as are admission,
// timeout, and outcome accounting.
func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.count("bad_input")
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.cfg.MaxBodyBytes)
			return
		}
		s.fail(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	m, err := MethodByName(req.Method)
	if err != nil {
		s.count("bad_input")
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	procs, err := asm.Parse(req.Asm)
	if err != nil {
		s.count("bad_input")
		s.fail(w, http.StatusBadRequest, "parse asm: %v", err)
		return
	}
	if len(procs) == 0 {
		s.count("bad_input")
		s.fail(w, http.StatusBadRequest, "no procedure in request")
		return
	}
	wantTrace := r.URL.Query().Get("trace") == "1"

	select {
	case s.sem <- struct{}{}:
	default:
		s.count("rejected")
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, "too many in-flight queries (limit %d)", s.cfg.MaxInFlight)
		return
	}

	start := time.Now()
	type result struct {
		qp  *core.QueryPartial
		err error
	}
	done := make(chan result, 1)
	qctx, root := telemetry.StartSpan(context.Background(), "query_partial")
	go func() {
		defer func() { <-s.sem }()
		qp, err := s.partialFn(qctx, procs[0], m)
		root.End()
		done <- result{qp, err}
	}()

	timer := time.NewTimer(s.cfg.QueryTimeout)
	defer timer.Stop()
	rid := RequestID(r.Context())
	select {
	case res := <-done:
		if res.err != nil {
			s.count("failure")
			s.record("partial", rid, "failure", res.err.Error(), start, root)
			s.fail(w, http.StatusUnprocessableEntity, "query: %v", res.err)
			return
		}
		s.count("completed")
		secs := time.Since(start).Seconds()
		s.latency.Observe(secs)
		s.lat.Observe(secs)
		s.record("partial", rid, "completed", "", start, root)
		resp := &PartialResponse{
			RequestID: rid,
			Partial:   shard.FromQueryPartial(res.qp, s.db.Shard()),
		}
		if wantTrace {
			resp.Trace = root.Snapshot()
		}
		writeJSON(w, http.StatusOK, resp)
	case <-timer.C:
		s.count("timeout")
		s.record("partial", rid, "timeout", fmt.Sprintf("query exceeded %s", s.cfg.QueryTimeout), start, root)
		s.fail(w, http.StatusGatewayTimeout, "query exceeded %s", s.cfg.QueryTimeout)
	}
}

// BuildQueryResponse ranks a report and shapes it as the wire response.
// Exported so the gateway renders merged reports through the exact same
// code path a single node uses — the differential guarantee includes
// the response encoding.
func BuildQueryResponse(rep *core.Report, m stats.Method, top int) *QueryResponse {
	resp := &QueryResponse{
		Query:      rep.QueryName,
		Method:     m.String(),
		NumBlocks:  rep.NumBlocks,
		NumStrands: rep.NumStrands,
		Results:    []QueryResult{},
	}
	for i, ts := range rep.Rank(m) {
		if i >= top {
			break
		}
		r := QueryResult{
			Rank:      i + 1,
			Target:    ts.Target.Name,
			Package:   ts.Target.Source.Package,
			Toolchain: ts.Target.Source.Toolchain,
			Patched:   ts.Target.Source.Patched,
			Score:     ts.Score(m),
			GES:       ts.GES,
			SLOG:      ts.SLOG,
		}
		if ts.HasSVCP {
			v := ts.SVCP
			r.SVCP = &v
		}
		resp.Results = append(resp.Results, r)
	}
	return resp
}

// TargetInfo is one row of GET /v1/targets.
type TargetInfo struct {
	Name       string `json:"name"`
	Package    string `json:"package,omitempty"`
	Toolchain  string `json:"toolchain,omitempty"`
	Patched    bool   `json:"patched,omitempty"`
	NumBlocks  int    `json:"num_blocks"`
	NumStrands int    `json:"num_strands"`
}

func (s *Server) handleTargets(w http.ResponseWriter, r *http.Request) {
	live := s.db.LiveTargets()
	out := make([]TargetInfo, 0, len(live))
	for _, t := range live {
		out = append(out, TargetInfo{
			Name:       t.Name,
			Package:    t.Source.Package,
			Toolchain:  t.Source.Toolchain,
			Patched:    t.Source.Patched,
			NumBlocks:  t.NumBlocks,
			NumStrands: t.NumStrands,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"targets": out})
}

// SetSnapshotInfo replaces the snapshot identity reported by /v1/stats.
// The daemon calls it after a compaction persists a new snapshot
// generation under the live server.
func (s *Server) SetSnapshotInfo(info index.Info) {
	s.snapMu.Lock()
	s.snapshot = info
	s.snapMu.Unlock()
}

// writeEnabled gates the write API: 501 with a pointer at -wal when the
// daemon has no durable journal.
func (s *Server) writeEnabled(w http.ResponseWriter) bool {
	if !s.cfg.EnableWrites {
		s.fail(w, http.StatusNotImplemented, "live writes are disabled (start eshd with -wal)")
		return false
	}
	return true
}

// WriteRequest is the POST /v1/targets body: one or more procedures in
// assembler-text form, each indexed as one target.
type WriteRequest struct {
	Asm string `json:"asm"`
}

// WriteResponse is the reply of the write endpoints. Added lists the
// target names indexed by a POST (in order; on error the prefix that
// was durably applied before the failure). Removed counts tombstoned
// targets. WALSeq is the journal high-water mark after the write and
// PendingWrites the uncompacted write count.
type WriteResponse struct {
	Added         []string `json:"added,omitempty"`
	Removed       int      `json:"removed,omitempty"`
	Generation    uint64   `json:"generation"`
	WALSeq        uint64   `json:"wal_seq"`
	PendingWrites int      `json:"pending_writes"`
}

func (s *Server) fillWriteState(resp *WriteResponse) {
	resp.Generation = s.db.DataGeneration()
	resp.WALSeq = s.db.WALSeq()
	resp.PendingWrites = s.db.PendingWrites()
}

// writeStatus maps a write-path error to its HTTP status: duplicate
// names conflict (409), unknown names are absent (404), journal append
// failures are server-side (500, the write was not applied), and
// everything else is an unprocessable procedure (422).
func writeStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrDuplicateTarget):
		return http.StatusConflict
	case errors.Is(err, core.ErrTargetNotFound):
		return http.StatusNotFound
	case errors.Is(err, core.ErrJournal):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// handleAddTarget serves POST /v1/targets: journal, then index, each
// procedure in the body. Each procedure is individually durable — on a
// mid-batch failure the response still lists the prefix that was
// acknowledged, and those targets survive a crash.
func (s *Server) handleAddTarget(w http.ResponseWriter, r *http.Request) {
	if !s.writeEnabled(w) {
		return
	}
	var req WriteRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.cfg.MaxBodyBytes)
			return
		}
		s.fail(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	procs, err := asm.Parse(req.Asm)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "parse asm: %v", err)
		return
	}
	if len(procs) == 0 {
		s.fail(w, http.StatusBadRequest, "no procedure in request")
		return
	}
	rid := RequestID(r.Context())
	start := time.Now()
	_, root := telemetry.StartSpan(context.Background(), "write")
	resp := &WriteResponse{}
	for _, p := range procs {
		if err := s.db.ApplyAdd(p); err != nil {
			root.End()
			s.record("write", rid, "failure", err.Error(), start, root)
			s.fillWriteState(resp)
			status := writeStatus(err)
			writeJSON(w, status, map[string]any{
				"error":   err.Error(),
				"added":   resp.Added,
				"wal_seq": resp.WALSeq,
			})
			return
		}
		resp.Added = append(resp.Added, p.Name)
	}
	root.SetAttr("targets_added", float64(len(resp.Added)))
	root.End()
	s.record("write", rid, "completed", "", start, root)
	s.fillWriteState(resp)
	writeJSON(w, http.StatusOK, resp)
}

// handleDeleteTarget serves DELETE /v1/targets/{name}: tombstone every
// live target with that name. The strands stay resident until the next
// compaction but stop influencing scores immediately.
func (s *Server) handleDeleteTarget(w http.ResponseWriter, r *http.Request) {
	if !s.writeEnabled(w) {
		return
	}
	name := r.PathValue("name")
	if name == "" {
		s.fail(w, http.StatusBadRequest, "empty target name")
		return
	}
	rid := RequestID(r.Context())
	start := time.Now()
	_, root := telemetry.StartSpan(context.Background(), "delete")
	n, err := s.db.ApplyRemove(name)
	root.End()
	if err != nil {
		s.record("delete", rid, "failure", err.Error(), start, root)
		s.fail(w, writeStatus(err), "%v", err)
		return
	}
	s.record("delete", rid, "completed", "", start, root)
	resp := &WriteResponse{Removed: n}
	s.fillWriteState(resp)
	writeJSON(w, http.StatusOK, resp)
}

// handleCompact serves POST /v1/compact: fold the journal and
// tombstones into a new snapshot generation via the daemon's compaction
// hook. 501 when the daemon wired no hook (no snapshot path to persist
// to).
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if !s.writeEnabled(w) {
		return
	}
	if s.cfg.Compact == nil {
		s.fail(w, http.StatusNotImplemented, "no compaction hook configured")
		return
	}
	rid := RequestID(r.Context())
	start := time.Now()
	_, root := telemetry.StartSpan(context.Background(), "compact")
	gen, hwm, err := s.cfg.Compact()
	root.SetAttr("generation", float64(gen))
	root.End()
	if err != nil {
		s.record("compact", rid, "failure", err.Error(), start, root)
		s.fail(w, http.StatusInternalServerError, "compact: %v", err)
		return
	}
	s.record("compact", rid, "completed", "", start, root)
	writeJSON(w, http.StatusOK, map[string]any{
		"generation":     gen,
		"wal_seq":        hwm,
		"pending_writes": s.db.PendingWrites(),
	})
}

// StatsResponse is the GET /v1/stats reply.
type StatsResponse struct {
	StartTime     time.Time `json:"start_time"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	Index         struct {
		Targets       int `json:"targets"`
		LiveTargets   int `json:"live_targets"`
		UniqueStrands int `json:"unique_strands"`
		TotalStrands  int `json:"total_strands"`
	} `json:"index"`
	// Writes reports the live write path: whether it is enabled, the
	// data generation (bumped per compaction), the journal high-water
	// mark, uncompacted write and tombstone counts, and — when a WAL is
	// attached — its on-disk statistics. A gateway refuses to merge
	// partials from a shard with nonzero pending writes or generation
	// (its manifest no longer describes that shard's corpus).
	Writes struct {
		Enabled       bool       `json:"enabled"`
		Generation    uint64     `json:"generation"`
		WALSeq        uint64     `json:"wal_seq"`
		PendingWrites int        `json:"pending_writes"`
		Tombstones    int        `json:"tombstones"`
		WAL           *wal.Stats `json:"wal,omitempty"`
	} `json:"writes"`
	// Snapshot identifies the index snapshot this replica serves —
	// format version, body checksum, and (when the corpus is one shard
	// of a split) the shard coordinates and fleet generation. A gateway
	// compares these across replicas to detect a mixed fleet before
	// trusting merged scores.
	Snapshot struct {
		Version    int    `json:"version,omitempty"`
		Checksum   string `json:"checksum,omitempty"`
		ShardID    int    `json:"shard_id"`
		ShardCount int    `json:"shard_count"`
		Generation string `json:"generation,omitempty"`
	} `json:"snapshot"`
	VCPCache struct {
		Pairs     int     `json:"pairs"`
		QueryKeys int     `json:"query_keys"`
		CapPairs  int     `json:"cap_pairs"`
		Evicted   uint64  `json:"evicted"`
		Hits      uint64  `json:"hits"`
		Misses    uint64  `json:"misses"`
		HitRate   float64 `json:"hit_rate"`
	} `json:"vcp_cache"`
	// Prefilter reports the sketch geometry, the band-collision tier
	// setting (0 = off), and how much work the injectability test
	// removed before the verifier — whole pairs skipped plus single
	// dead directions of surviving pairs (cumulative across queries).
	Prefilter struct {
		LSHBands       int     `json:"lsh_bands"`
		LSHRows        int     `json:"lsh_rows"`
		MinContainment float64 `json:"min_containment"`
		PairsSkipped   uint64  `json:"pairs_skipped"`
		DeadDirections uint64  `json:"dead_directions"`
	} `json:"prefilter"`
	// Retrieval reports the band-collision tier's cumulative probe
	// counters and the probe table's shape (zeros while the tier is
	// off).
	Retrieval struct {
		Probes          uint64  `json:"probes"`
		Candidates      uint64  `json:"candidates"`
		SoundCandidates uint64  `json:"sound_candidates"`
		TableBuckets    int     `json:"table_buckets"`
		TableMaxPosting int     `json:"table_max_posting"`
		TableMeanPost   float64 `json:"table_mean_posting"`
		TableSkew       float64 `json:"table_skew"`
	} `json:"retrieval"`
	// Engine aggregates pipeline work across all queries: verifier
	// effort (with the directions that hit the γ cap), pruning
	// effectiveness, evaluation-kernel time and γ-batch flushes,
	// γ-invariant hoisting coverage, and cumulative per-stage wall
	// time.
	Engine struct {
		Queries                 uint64             `json:"queries"`
		PairsPruned             uint64             `json:"pairs_pruned"`
		VerifierCalls           uint64             `json:"verifier_calls"`
		VerifierCorrespondences uint64             `json:"verifier_correspondences"`
		GammaCapped             uint64             `json:"gamma_capped"`
		SigmoidK                float64            `json:"sigmoid_k"`
		KernelSeconds           float64            `json:"kernel_seconds"`
		KernelPrefixInstrs      uint64             `json:"kernel_prefix_instrs"`
		KernelInstrs            uint64             `json:"kernel_instrs"`
		GammaBatches            uint64             `json:"gamma_batches"`
		GammaBatchRows          uint64             `json:"gamma_batch_rows"`
		StageSeconds            map[string]float64 `json:"stage_seconds"`
	} `json:"engine"`
	Queries struct {
		Completed uint64 `json:"completed"`
		Failures  uint64 `json:"failures"`
		Timeouts  uint64 `json:"timeouts"`
		Rejected  uint64 `json:"rejected"`
		BadInput  uint64 `json:"bad_input"`
		InFlight  int    `json:"in_flight"`
		MaxIn     int    `json:"max_in_flight"`
	} `json:"queries"`
	// LatencyMS maps histogram bucket labels ("<=50ms", ">10000ms") to
	// completed-query counts. Empty buckets are omitted.
	LatencyMS map[string]uint64 `json:"latency_ms"`
	// LatencyQuantilesMS are the streamed P2 estimates behind the
	// esh_http_query_quantile_seconds gauges (zero until traffic).
	LatencyQuantilesMS map[string]float64 `json:"latency_quantiles_ms"`
	// Recorder summarizes the flight recorder (see /debug/slow and
	// /debug/queries for the records themselves).
	Recorder struct {
		Records     uint64  `json:"records"`
		Slow        uint64  `json:"slow"`
		ThresholdMS float64 `json:"threshold_ms"`
	} `json:"recorder"`
}

// quantilesMS shapes a Quantiles estimator as a {"p50": ms, ...} map,
// dropping NaN (empty-stream) entries so the struct stays JSON-safe.
func quantilesMS(lat *telemetry.Quantiles) map[string]float64 {
	out := make(map[string]float64, len(latencyQuantiles))
	for _, q := range latencyQuantiles {
		v := lat.Quantile(q)
		if math.IsNaN(v) {
			v = 0
		}
		out[fmt.Sprintf("p%g", q*100)] = v * 1000
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	dbs := s.db.Stats()
	resp := &StatsResponse{
		StartTime:     s.started.UTC(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	resp.Index.Targets = dbs.Targets
	resp.Index.LiveTargets = dbs.LiveTargets
	resp.Index.UniqueStrands = dbs.UniqueStrands
	resp.Index.TotalStrands = dbs.TotalStrands
	resp.Writes.Enabled = s.cfg.EnableWrites
	resp.Writes.Generation = dbs.Generation
	resp.Writes.WALSeq = dbs.WALSeq
	resp.Writes.PendingWrites = dbs.PendingWrites
	resp.Writes.Tombstones = dbs.Tombstones
	if s.cfg.WALStats != nil {
		ws := s.cfg.WALStats()
		resp.Writes.WAL = &ws
	}
	s.snapMu.RLock()
	resp.Snapshot.Version = s.snapshot.Version
	resp.Snapshot.Checksum = s.snapshot.Checksum
	s.snapMu.RUnlock()
	si := s.db.Shard()
	resp.Snapshot.ShardID = si.ID
	resp.Snapshot.ShardCount = si.Count
	resp.Snapshot.Generation = si.Generation
	resp.VCPCache.Pairs = dbs.VCPCachePairs
	resp.VCPCache.QueryKeys = dbs.VCPCacheQueries
	resp.VCPCache.CapPairs = dbs.VCPCacheCap
	resp.VCPCache.Evicted = dbs.VCPCacheEvicted
	resp.VCPCache.Hits = dbs.VCPCacheHits
	resp.VCPCache.Misses = dbs.VCPCacheMisses
	resp.VCPCache.HitRate = dbs.VCPCacheHitRate()
	resp.Prefilter.LSHBands = dbs.LSHBands
	resp.Prefilter.LSHRows = dbs.LSHRows
	resp.Prefilter.MinContainment = dbs.LSHMinContainment
	resp.Prefilter.PairsSkipped = dbs.LSHPairsSkipped
	resp.Prefilter.DeadDirections = dbs.LSHDeadDirections
	resp.Retrieval.Probes = dbs.RetrievalProbes
	resp.Retrieval.Candidates = dbs.RetrievalCandidates
	resp.Retrieval.SoundCandidates = dbs.RetrievalSoundCandidates
	resp.Retrieval.TableBuckets = dbs.RetrievalTableBuckets
	resp.Retrieval.TableMaxPosting = dbs.RetrievalTableMaxPost
	resp.Retrieval.TableMeanPost = dbs.RetrievalTableMeanPost
	resp.Retrieval.TableSkew = dbs.RetrievalTableSkew
	resp.Engine.Queries = dbs.Queries
	resp.Engine.PairsPruned = dbs.VCPPairsPruned
	resp.Engine.VerifierCalls = dbs.VerifierCalls
	resp.Engine.VerifierCorrespondences = dbs.VerifierCorrespondences
	resp.Engine.GammaCapped = dbs.GammaCapped
	resp.Engine.SigmoidK = s.db.Options().SigmoidK
	resp.Engine.KernelSeconds = float64(dbs.KernelNanos) / 1e9
	resp.Engine.KernelPrefixInstrs = dbs.KernelPrefixInstrs
	resp.Engine.KernelInstrs = dbs.KernelInstrs
	resp.Engine.GammaBatches = dbs.GammaBatches
	resp.Engine.GammaBatchRows = dbs.GammaBatchRows
	resp.Engine.StageSeconds = dbs.StageSeconds

	resp.Queries.Completed = s.outcomes["completed"].Value()
	resp.Queries.Failures = s.outcomes["failure"].Value()
	resp.Queries.Timeouts = s.outcomes["timeout"].Value()
	resp.Queries.Rejected = s.outcomes["rejected"].Value()
	resp.Queries.BadInput = s.outcomes["bad_input"].Value()
	resp.Queries.InFlight = len(s.sem)
	resp.Queries.MaxIn = s.cfg.MaxInFlight

	bounds, counts := s.latency.Snapshot()
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
	resp.LatencyQuantilesMS = quantilesMS(s.lat)
	resp.Recorder.Records = s.rec.Total()
	resp.Recorder.Slow = s.rec.SlowTotal()
	resp.Recorder.ThresholdMS = float64(s.rec.SlowThreshold().Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}
