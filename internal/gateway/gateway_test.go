package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vcp"
)

const gccStyle = `proc checksum_gcc
	xor eax, eax
	mov rcx, rdi
	lea rdx, [rsi+rsi*2]
	shl rdx, 2
	add rdx, 0x20
	imul rcx, rdx
	mov rax, rcx
	shr rax, 7
	xor rax, rcx
	mov r8, rax
	and r8, 0xff
	add rax, r8
	ret
endp`

const iccStyle = `proc checksum_icc
	xor r9d, r9d
	mov r10, rdi
	mov r11, rsi
	imul r11, 3
	imul r11, 4
	add r11, 0x20
	imul r10, r11
	mov rax, r10
	shr rax, 7
	xor rax, r10
	mov rbx, rax
	and rbx, 0xff
	add rax, rbx
	ret
endp`

const memStyle = `proc save_pair
	mov [rdi], rsi
	mov [rdi+8], rdx
	mov rax, rsi
	add rax, rdx
	mov [rdi+16], rax
	call helper
	ret
endp`

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func buildCorpus(t *testing.T) *core.DB {
	t.Helper()
	db := core.NewDB(core.Options{VCP: vcp.Config{MinVars: 3}, Workers: 2})
	for _, src := range []string{gccStyle, iccStyle, memStyle} {
		p, err := asm.ParseProc(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddTarget(p); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// fleet is a complete in-process cluster: one httptest eshd per shard,
// the single-node reference server, and the gateway in front.
type fleet struct {
	man      *shard.Manifest
	shardSrv []*httptest.Server
	single   *httptest.Server
	gw       *Gateway
	gwSrv    *httptest.Server
}

// startFleet splits the corpus n ways and wires real server.Server
// instances behind a gateway. mutate (optional) adjusts the gateway
// config (replica lists, budgets) before New.
func startFleet(t *testing.T, n int, mutate func(*Config)) *fleet {
	t.Helper()
	db := buildCorpus(t)
	ex := db.Export()
	man, shardExs, err := shard.Split(ex, n)
	if err != nil {
		t.Fatal(err)
	}
	f := &fleet{man: man}
	scfg := server.Config{Logger: quietLogger()}
	var urls [][]string
	for s, se := range shardExs {
		sdb, err := core.FromExport(se)
		if err != nil {
			t.Fatalf("rebuild shard %d: %v", s, err)
		}
		ts := httptest.NewServer(server.New(sdb, scfg).Handler())
		t.Cleanup(ts.Close)
		f.shardSrv = append(f.shardSrv, ts)
		urls = append(urls, []string{ts.URL})
	}
	single, err := core.FromExport(ex)
	if err != nil {
		t.Fatal(err)
	}
	f.single = httptest.NewServer(server.New(single, scfg).Handler())
	t.Cleanup(f.single.Close)

	cfg := Config{
		Manifest:     man,
		Shards:       urls,
		QueryTimeout: 30 * time.Second,
		HedgeAfter:   5 * time.Second, // effectively off unless a test lowers it
		MaxRetries:   1,
		RetryBackoff: 5 * time.Millisecond,
		Logger:       quietLogger(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f.gw, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.gwSrv = httptest.NewServer(f.gw.Handler())
	t.Cleanup(f.gwSrv.Close)
	return f
}

func postQuery(t *testing.T, url, asmText string) *http.Response {
	t.Helper()
	return postQueryMethod(t, url, asmText, "")
}

func postQueryMethod(t *testing.T, url, asmText, method string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(server.QueryRequest{Asm: asmText, Method: method, Top: 100})
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeResponse(t *testing.T, resp *http.Response) *QueryResponse {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("query = %d: %s", resp.StatusCode, msg)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return &qr
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameOptBits compares two optional wire scores: both absent, or both
// present and bit-identical.
func sameOptBits(a, b *float64) bool {
	if a == nil || b == nil {
		return a == b
	}
	return sameBits(*a, *b)
}

// requireSameResults asserts two wire responses carry identical ranked
// rows — names, ranks, and every score bit for bit.
func requireSameResults(t *testing.T, want, got *QueryResponse, label string) {
	t.Helper()
	if got.NumStrands != want.NumStrands || got.NumBlocks != want.NumBlocks {
		t.Fatalf("%s: query shape %d/%d, want %d/%d", label, got.NumStrands, got.NumBlocks, want.NumStrands, want.NumBlocks)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		a, b := want.Results[i], got.Results[i]
		if !reflect.DeepEqual(a, b) ||
			!sameBits(a.Score, b.Score) || !sameBits(a.GES, b.GES) ||
			!sameBits(a.SLOG, b.SLOG) || !sameOptBits(a.SVCP, b.SVCP) {
			t.Fatalf("%s: rank %d differs:\nwant %+v\ngot  %+v", label, i, a, b)
		}
	}
}

// TestGatewayDifferential is the over-HTTP exact-merge guard: for N in
// {1,2,4}, the gateway's ranked rows must be identical — names and raw
// GES/SLOG/SVCP/sigmoid scores to the bit — to a single eshd serving
// the union corpus, and the response must not be flagged partial. The
// gateway forwards the method: a default query carries no svcp, a
// method=svcp query carries it on every row, from both paths alike.
func TestGatewayDifferential(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		f := startFleet(t, n, nil)
		for _, method := range []string{"", "svcp"} {
			for _, q := range []string{gccStyle, memStyle} {
				want := decodeResponse(t, postQueryMethod(t, f.single.URL, q, method))
				got := decodeResponse(t, postQueryMethod(t, f.gwSrv.URL, q, method))
				if got.Partial || len(got.MissingShards) != 0 {
					t.Fatalf("n=%d: complete fleet flagged partial (missing %v)", n, got.MissingShards)
				}
				requireSameResults(t, want, got, method+"/"+q[:20])
				for i, r := range got.Results {
					if (r.SVCP != nil) != (method == "svcp") {
						t.Fatalf("n=%d method %q: rank %d svcp present=%t", n, method, i, r.SVCP != nil)
					}
				}
			}
		}
	}
}

// TestGatewayRefusesSVCPLessFleet puts every shard behind a proxy that
// drops the forwarded method, the way a shard that predates per-query
// methods would answer: an S-VCP query must then fail with an error
// instead of ranking by scores nobody computed.
func TestGatewayRefusesSVCPLessFleet(t *testing.T) {
	f := startFleet(t, 2, func(cfg *Config) {
		for s, reps := range cfg.Shards {
			target := reps[0]
			strip := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var req server.QueryRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					w.WriteHeader(http.StatusBadRequest)
					return
				}
				body, _ := json.Marshal(server.QueryRequest{Asm: req.Asm})
				resp, err := http.Post(target+r.URL.String(), "application/json", bytes.NewReader(body))
				if err != nil {
					w.WriteHeader(http.StatusBadGateway)
					return
				}
				defer resp.Body.Close()
				w.WriteHeader(resp.StatusCode)
				io.Copy(w, resp.Body)
			}))
			t.Cleanup(strip.Close)
			cfg.Shards[s] = []string{strip.URL}
		}
	})
	resp := postQueryMethod(t, f.gwSrv.URL, gccStyle, "svcp")
	if resp.StatusCode != http.StatusInternalServerError {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("svcp query over an S-VCP-less fleet = %d (%s), want 500", resp.StatusCode, msg)
	}
	// The default method needs nothing the proxy stripped.
	decodeResponse(t, postQuery(t, f.gwSrv.URL, gccStyle))
}

// TestGatewayShardDown kills one shard and requires a 200 with the
// partial flag, the missing shard listed, and only the surviving
// shards' targets ranked.
func TestGatewayShardDown(t *testing.T) {
	f := startFleet(t, 2, nil)
	down := 1
	f.shardSrv[down].Close()

	got := decodeResponse(t, postQuery(t, f.gwSrv.URL, gccStyle))
	if !got.Partial {
		t.Fatal("response not flagged partial with a shard down")
	}
	if len(got.MissingShards) != 1 || got.MissingShards[0] != down {
		t.Fatalf("missing_shards = %v, want [%d]", got.MissingShards, down)
	}
	if want := f.man.NumTargets - len(f.man.Shards[down].Targets); len(got.Results) != want {
		t.Fatalf("%d results with shard %d down, want %d", len(got.Results), down, want)
	}
	st := fetchGatewayStats(t, f.gwSrv.URL)
	if st.Queries.Partial != 1 {
		t.Fatalf("partial counter = %d, want 1", st.Queries.Partial)
	}
}

// TestGatewayAllShardsDown requires a clean upstream error, not a hang
// or a panic, when nobody answers.
func TestGatewayAllShardsDown(t *testing.T) {
	f := startFleet(t, 2, nil)
	for _, ts := range f.shardSrv {
		ts.Close()
	}
	resp := postQuery(t, f.gwSrv.URL, gccStyle)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-down query = %d, want 502", resp.StatusCode)
	}
}

// TestGatewayHedging gives shard 0 a slow first replica and a fast
// second one; with a tight hedge budget the query must complete fast
// and the hedge counter must move.
func TestGatewayHedging(t *testing.T) {
	var slowed *httptest.Server
	f := startFleet(t, 2, func(cfg *Config) {
		// A delaying proxy in front of shard 0's real server.
		target := cfg.Shards[0][0]
		slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(400 * time.Millisecond)
			body, _ := io.ReadAll(r.Body)
			req, _ := http.NewRequest(r.Method, target+r.URL.String(), bytes.NewReader(body))
			req.Header = r.Header
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				w.WriteHeader(http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
		})
		slowed = httptest.NewServer(slow)
		cfg.Shards[0] = []string{slowed.URL, target}
		cfg.HedgeAfter = 25 * time.Millisecond
	})
	t.Cleanup(slowed.Close)

	want := decodeResponse(t, postQuery(t, f.single.URL, gccStyle))
	got := decodeResponse(t, postQuery(t, f.gwSrv.URL, gccStyle))
	requireSameResults(t, want, got, "hedged")
	if f.gw.hedges.Value() == 0 {
		t.Fatal("hedge counter did not move")
	}
	st := fetchGatewayStats(t, f.gwSrv.URL)
	if st.Hedges == 0 {
		t.Fatal("stats report zero hedges")
	}
}

// TestGatewayRetry gives shard 0 a failing first replica; the retry
// path must fall through to the healthy one and still merge exactly.
func TestGatewayRetry(t *testing.T) {
	var broken *httptest.Server
	f := startFleet(t, 2, func(cfg *Config) {
		broken = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "shard on fire", http.StatusInternalServerError)
		}))
		cfg.Shards[0] = []string{broken.URL, cfg.Shards[0][0]}
		cfg.MaxRetries = 2
	})
	t.Cleanup(broken.Close)

	want := decodeResponse(t, postQuery(t, f.single.URL, gccStyle))
	got := decodeResponse(t, postQuery(t, f.gwSrv.URL, gccStyle))
	if got.Partial {
		t.Fatal("retry path flagged partial despite a healthy replica")
	}
	requireSameResults(t, want, got, "retried")
	if f.gw.retries.Value() == 0 {
		t.Fatal("retry counter did not move")
	}
}

// TestGatewayTrace checks fan-out trace stitching: one child span per
// shard, each carrying the shard's remote server-side trace.
func TestGatewayTrace(t *testing.T) {
	f := startFleet(t, 2, nil)
	body, _ := json.Marshal(server.QueryRequest{Asm: gccStyle})
	resp, err := http.Post(f.gwSrv.URL+"/v1/query?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	qr := decodeResponse(t, resp)
	if qr.Trace == nil {
		t.Fatal("no trace in ?trace=1 response")
	}
	if len(qr.Trace.Children) != 2 {
		t.Fatalf("trace has %d shard children, want 2", len(qr.Trace.Children))
	}
	for _, c := range qr.Trace.Children {
		if len(c.Children) == 0 {
			t.Fatalf("shard span %s carries no remote trace", c.Name)
		}
		if c.Children[0].Name != "query_partial" {
			t.Fatalf("shard span %s grafted %q, want query_partial", c.Name, c.Children[0].Name)
		}
	}
}

// TestCheckFleet verifies fleet verification: a correct fleet passes,
// and pointing a shard slot at the wrong shard's replica is an error.
func TestCheckFleet(t *testing.T) {
	f := startFleet(t, 2, nil)
	if errs := f.gw.CheckFleet(context.Background()); len(errs) != 0 {
		t.Fatalf("correct fleet: %v", errs)
	}

	// Cross-wire: shard 1's slot points at shard 0's server.
	bad, err := New(Config{
		Manifest: f.man,
		Shards:   [][]string{{f.shardSrv[0].URL}, {f.shardSrv[0].URL}},
		Logger:   quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs := bad.CheckFleet(context.Background()); len(errs) == 0 {
		t.Fatal("cross-wired fleet passed verification")
	}
}

// TestGatewayReadyz exercises the prober: all up → ready; a dead shard
// with no replicas left → 503 naming the shard.
func TestGatewayReadyz(t *testing.T) {
	f := startFleet(t, 2, nil)
	f.gw.probeAll()
	if resp := getURL(t, f.gwSrv.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy fleet /readyz = %d", resp.StatusCode)
	}
	f.shardSrv[1].Close()
	f.gw.probeAll()
	if resp := getURL(t, f.gwSrv.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shard-down /readyz = %d, want 503", resp.StatusCode)
	}
	st := fetchGatewayStats(t, f.gwSrv.URL)
	if st.Fleet.Ready != 1 || st.Fleet.Replicas != 2 {
		t.Fatalf("fleet health %d/%d, want 1/2", st.Fleet.Ready, st.Fleet.Replicas)
	}
}

func getURL(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func fetchGatewayStats(t *testing.T, base string) *StatsResponse {
	t.Helper()
	resp := getURL(t, base+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}
