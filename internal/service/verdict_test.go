package service

// Serving-layer contract of the cone-keyed verdict cache: a warm
// response is FULLY byte-identical to the cold response that populated
// the cache — elapsed_ns included, since hits replay the stored record
// verbatim — an edit re-verifies exactly the dirtied cones, the
// operator can switch the cache off, and cached verdicts survive a
// restart through the durable-state snapshots.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// laneSrc builds an N-lane token-rotator design (invariants
// ok0..ok{n-1}) with per-lane in-cone constants, mirroring
// testdata/churn_smoke.v in miniature.
func laneSrc(consts ...int) string {
	var b bytes.Buffer
	for k, c := range consts {
		fmt.Fprintf(&b, `module lane%d(clk, ok);
  input clk;
  output ok;
  reg [7:0] tok;
  wire [7:0] churn;
  wire [7:0] nxt;
  assign churn = 8'd%d & tok;
  assign nxt = {tok[6:0], tok[7]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = 8'd1;
endmodule
`, k, c)
	}
	b.WriteString("module lanes(clk")
	for k := range consts {
		fmt.Fprintf(&b, ", ok%d", k)
	}
	b.WriteString(");\n  input clk;\n")
	for k := range consts {
		fmt.Fprintf(&b, "  output ok%d;\n", k)
	}
	for k := range consts {
		fmt.Fprintf(&b, "  lane%d u%d (.clk(clk), .ok(ok%d));\n", k, k, k)
	}
	b.WriteString("endmodule\n")
	return b.String()
}

func laneRequest(src string, n int) CheckRequest {
	req := CheckRequest{Design: src, Top: "lanes", Depth: 8}
	for k := 0; k < n; k++ {
		req.Invariants = append(req.Invariants, fmt.Sprintf("ok%d", k))
	}
	return req
}

func TestServeVerdictCacheHitByteIdentical(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := laneRequest(laneSrc(0, 0), 2)
	cold, coldBody := postCheck(t, ts, req)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", cold.StatusCode, coldBody)
	}
	if got := cold.Header.Get("X-Verdict-Cache"); got != "hits=0 misses=2" {
		t.Errorf("cold X-Verdict-Cache = %q, want hits=0 misses=2", got)
	}

	warm, warmBody := postCheck(t, ts, req)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", warm.StatusCode, warmBody)
	}
	if got := warm.Header.Get("X-Verdict-Cache"); got != "hits=2 misses=0" {
		t.Errorf("warm X-Verdict-Cache = %q, want hits=2 misses=0", got)
	}
	// Full byte identity — no elapsed_ns normalization: replay is
	// verbatim.
	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("warm body differs from cold:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}

	st := srv.VerdictCacheStats()
	if st.Hits != 2 || st.Misses != 2 || st.Stores != 2 {
		t.Errorf("verdict cache stats = %+v, want 2 hits, 2 misses, 2 stores", st)
	}
}

func TestServeVerdictCacheDirtyConeSplit(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()

	_, coldBody := postCheck(t, ts, laneRequest(laneSrc(0, 0, 0), 3))
	// Edit lane1's in-cone constant: ok1 re-verifies, ok0/ok2 replay.
	warm, warmBody := postCheck(t, ts, laneRequest(laneSrc(0, 9, 0), 3))
	if got := warm.Header.Get("X-Verdict-Cache"); got != "hits=2 misses=1" {
		t.Errorf("one-edit X-Verdict-Cache = %q, want hits=2 misses=1", got)
	}
	var coldRecs, warmRecs []json.RawMessage
	if err := json.Unmarshal(coldBody, &coldRecs); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(warmBody, &warmRecs); err != nil {
		t.Fatal(err)
	}
	if len(warmRecs) != 3 || len(coldRecs) != 3 {
		t.Fatalf("record counts: cold %d, warm %d", len(coldRecs), len(warmRecs))
	}
	for _, i := range []int{0, 2} {
		if !bytes.Equal(coldRecs[i], warmRecs[i]) {
			t.Errorf("untouched record %d changed:\ncold: %s\nwarm: %s", i, coldRecs[i], warmRecs[i])
		}
	}
	if bytes.Equal(coldRecs[1], warmRecs[1]) {
		t.Errorf("edited record 1 is byte-identical to cold — was it re-verified?")
	}
}

func TestServeVerdictCacheDisabled(t *testing.T) {
	// Operator off-switch.
	off := httptest.NewServer(New(Options{VerdictCacheEntries: -1}).Handler())
	defer off.Close()
	resp, body := postCheck(t, off, laneRequest(laneSrc(0), 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Verdict-Cache"); got != "" {
		t.Errorf("disabled cache still sets X-Verdict-Cache = %q", got)
	}
}

func TestServeVerdictCachePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := laneRequest(laneSrc(4, 2), 2)

	s1 := New(Options{StateDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	_, coldBody := postCheck(t, ts1, req)
	if err := s1.FlushState(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	s2 := New(Options{StateDir: dir})
	s2.Rewarm(ctx)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	warm, warmBody := postCheck(t, ts2, req)
	if got := warm.Header.Get("X-Verdict-Cache"); got != "hits=2 misses=0" {
		t.Errorf("post-restart X-Verdict-Cache = %q, want hits=2 misses=0", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("post-restart body differs from pre-restart:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}
}

func TestServeVerdictCacheFaultRequestsBypass(t *testing.T) {
	// Fault injection points live inside the engines; a cache hit would
	// skip them, so faulted requests must not consult or feed the cache.
	srv := New(Options{EnableFaults: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := laneRequest(laneSrc(0), 1)
	resp, body := postFault(t, ts, req, "engine.atpg=error")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Verdict-Cache"); got != "" {
		t.Errorf("faulted request reports X-Verdict-Cache = %q", got)
	}
	if st := srv.VerdictCacheStats(); st.Entries != 0 || st.Misses != 0 {
		t.Errorf("faulted request touched the verdict cache: %+v", st)
	}
}
