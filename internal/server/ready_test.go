package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/index"
)

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestReadyzDrain covers the liveness/readiness split: /healthz stays
// 200 across a drain, /readyz flips to 503 the moment SetReady(false)
// runs (before the listener would close) and recovers on SetReady(true).
func TestReadyzDrain(t *testing.T) {
	s, ts := newTestServer(t, testDB(t), quietConfig(), nil)

	if resp := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh server /readyz = %d", resp.StatusCode)
	}
	s.SetReady(false)
	if resp := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server /readyz = %d, want 503", resp.StatusCode)
	}
	if resp := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("draining server /healthz = %d, want 200 (drain is not death)", resp.StatusCode)
	}
	if s.Ready() {
		t.Fatal("Ready() true while draining")
	}
	s.SetReady(true)
	if resp := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered server /readyz = %d", resp.StatusCode)
	}
}

// TestPartialEndpoint checks the scatter leg: /v1/query/partial returns
// the shard-exact reductions with coherent dimensions.
func TestPartialEndpoint(t *testing.T) {
	db := testDB(t)
	_, ts := newTestServer(t, db, quietConfig(), nil)

	body, _ := json.Marshal(QueryRequest{Asm: gccStyle})
	resp, err := http.Post(ts.URL+"/v1/query/partial", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial query = %d", resp.StatusCode)
	}
	var pr PartialResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	p := pr.Partial
	if p == nil {
		t.Fatal("no partial in response")
	}
	if p.QueryName != "checksum_gcc" {
		t.Fatalf("partial query name %q", p.QueryName)
	}
	if p.ShardCount != 0 {
		t.Fatalf("unsharded corpus reports shard %d/%d", p.ShardID, p.ShardCount)
	}
	if len(p.Targets) != db.NumTargets() {
		t.Fatalf("%d target partials, corpus has %d", len(p.Targets), db.NumTargets())
	}
	if len(p.Rows) != len(p.Weights) {
		t.Fatalf("%d rows for %d query strands", len(p.Rows), len(p.Weights))
	}
	for i, row := range p.Rows {
		if len(row) != db.NumUniqueStrands() {
			t.Fatalf("row %d has %d entries, corpus has %d unique strands", i, len(row), db.NumUniqueStrands())
		}
	}
	for _, tp := range p.Targets {
		if len(tp.MaxVCP) != len(p.Weights) {
			t.Fatalf("target %s has %d max-VCP entries", tp.Name, len(tp.MaxVCP))
		}
	}

	// Malformed asm is rejected like on /v1/query.
	bad, _ := json.Marshal(QueryRequest{Asm: "not asm"})
	resp2, err := http.Post(ts.URL+"/v1/query/partial", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad asm partial query = %d, want 400", resp2.StatusCode)
	}
}

// TestStatsSnapshotBlock checks that /v1/stats surfaces the snapshot
// identity a gateway verifies the fleet with.
func TestStatsSnapshotBlock(t *testing.T) {
	cfg := quietConfig()
	cfg.Snapshot = index.Info{Version: 3, BodyLen: 123, Checksum: "abcdef"}
	_, ts := newTestServer(t, testDB(t), cfg, nil)

	resp := get(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Snapshot.Version != 3 || st.Snapshot.Checksum != "abcdef" {
		t.Fatalf("snapshot block %+v", st.Snapshot)
	}
	if st.Snapshot.ShardCount != 0 {
		t.Fatalf("unsharded corpus reports shard count %d", st.Snapshot.ShardCount)
	}
	if st.Prefilter.LSHBands == 0 || st.Prefilter.LSHRows == 0 {
		t.Fatal("stats omit the sketch geometry")
	}
}
