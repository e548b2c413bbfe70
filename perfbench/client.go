package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// client sends every request of a run to one daemon over at most conns
// connections, and records a benchmark-owned span around each call.
type client struct {
	base string
	hc   *http.Client
	rec  *recorder
}

func newClient(base string, conns int, rec *recorder) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 150 * time.Second}, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and decodes a 200 reply into out (kept raw
// when out is a *[]byte). Any other status is an error.
func (c *client) call(method, path string, body, out any) (*span, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	sp := c.rec.start("http " + method + " " + spanPath(path))
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return sp, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.rec.end(sp)
		return sp, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	c.rec.end(sp)
	if err != nil {
		return sp, err
	}
	sp.Attrs["status"] = float64(resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		return sp, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	switch out := out.(type) {
	case nil:
		return sp, nil
	case *[]byte:
		*out = data
		return sp, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return sp, fmt.Errorf("decode %s reply: %w", path, err)
	}
	return sp, nil
}

// spanPath names a request path without its per-target suffix, so all
// deletes share one span name.
func spanPath(p string) string {
	if strings.HasPrefix(p, "/v1/targets/") {
		return "/v1/targets/{name}"
	}
	p, _, _ = strings.Cut(p, "?")
	return p
}

// result is one ranked row of a /v1/query reply.
type result struct {
	Target string  `json:"target"`
	Score  float64 `json:"score"`
}

type queryReply struct {
	Results []result            `json:"results"`
	Trace   *telemetry.SpanData `json:"trace"`
}

// query runs one /v1/query. With tracing on, the engine's span tree is
// grafted under the benchmark's HTTP span.
func (c *client) query(asm string, top int, trace bool) (*queryReply, *span, error) {
	path := "/v1/query"
	if trace {
		path += "?trace=1"
	}
	var r queryReply
	sp, err := c.call("POST", path, map[string]any{"asm": asm, "top": top}, &r)
	if err != nil {
		return nil, sp, err
	}
	sp.Engine = r.Trace
	return &r, sp, nil
}

func (c *client) add(asm string) (*span, error) {
	var r struct {
		Added []string `json:"added"`
	}
	sp, err := c.call("POST", "/v1/targets", map[string]any{"asm": asm}, &r)
	if err == nil && len(r.Added) != 1 {
		err = fmt.Errorf("add acknowledged %d targets, want 1", len(r.Added))
	}
	return sp, err
}

func (c *client) remove(name string) (*span, error) {
	var r struct {
		Removed int `json:"removed"`
	}
	sp, err := c.call("DELETE", "/v1/targets/"+url.PathEscape(name), nil, &r)
	if err == nil && r.Removed < 1 {
		err = fmt.Errorf("delete %s removed nothing", name)
	}
	return sp, err
}

// targetInfo is one row of GET /v1/targets.
type targetInfo struct {
	Name       string `json:"name"`
	NumStrands int    `json:"num_strands"`
}

func (c *client) targets() ([]targetInfo, error) {
	var r struct {
		Targets []targetInfo `json:"targets"`
	}
	_, err := c.call("GET", "/v1/targets", nil, &r)
	return r.Targets, err
}

// stats returns GET /v1/stats as decoded JSON.
func (c *client) stats() (map[string]any, error) {
	var m map[string]any
	_, err := c.call("GET", "/v1/stats", nil, &m)
	return m, err
}

// prom returns GET /metrics, parsed with the repository's exposition
// reader, as sample name -> value summed over label sets.
func (c *client) prom() (map[string]float64, error) {
	var raw []byte
	if _, err := c.call("GET", "/metrics", nil, &raw); err != nil {
		return nil, err
	}
	var fams []*telemetry.ParsedFamily
	err := c.rec.timed("telemetry.ParseExposition", func() (err error) {
		fams, err = telemetry.ParseExposition(bytes.NewReader(raw))
		return err
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			out[s.Name] += s.Value
		}
	}
	return out, nil
}

// sameAnswer reports whether two replies rank the same targets with
// Float64bits-identical scores.
func sameAnswer(a, b []result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Target != b[i].Target || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// sourceSym extracts the source symbol from a target name of the form
// package:symbol@toolchain-Olevel[+patch].
func sourceSym(target string) string {
	_, rest, _ := strings.Cut(target, ":")
	sym, _, _ := strings.Cut(rest, "@")
	return sym
}

// recorder keeps the benchmark's own spans in memory; they are written
// out once the run ends. Spans started during a phase are its children.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
	cur   int // ID of the open phase span, 0 outside phases
}

// span is one benchmark-owned timed region. Engine holds the span tree
// the daemon returned for a traced query.
type span struct {
	ID      int                 `json:"id"`
	Parent  int                 `json:"parent,omitempty"`
	Name    string              `json:"name"`
	StartMS float64             `json:"start_ms"`
	EndMS   float64             `json:"end_ms"`
	Attrs   map[string]float64  `json:"attrs,omitempty"`
	Engine  *telemetry.SpanData `json:"engine,omitempty"`
}

func (s *span) ms() float64 { return s.EndMS - s.StartMS }

func (r *recorder) start(name string) *span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &span{ID: len(r.spans) + 1, Parent: r.cur, Name: name, Attrs: map[string]float64{},
		StartMS: msSince(r.t0)}
	r.spans = append(r.spans, s)
	return s
}

func (r *recorder) end(s *span) {
	r.mu.Lock()
	s.EndMS = msSince(r.t0)
	r.mu.Unlock()
}

// phase opens a top-level span that parents every span started until the
// returned function closes it.
func (r *recorder) phase(name string) func() {
	r.mu.Lock()
	r.cur = 0
	r.mu.Unlock()
	s := r.start("phase " + name)
	r.mu.Lock()
	r.cur = s.ID
	r.mu.Unlock()
	return func() {
		r.end(s)
		r.mu.Lock()
		r.cur = 0
		r.mu.Unlock()
	}
}

// timed records a span around an in-process call.
func (r *recorder) timed(name string, f func() error) error {
	s := r.start(name)
	err := f()
	r.end(s)
	return err
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
