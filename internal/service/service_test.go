package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/property"
)

// testSrc is a small sequential design with RTL-level monitor outputs
// (the service states properties over named one-bit signals).
const testSrc = `
module cnt3(clk, en, q, ok, hit5);
  input clk, en;
  output [2:0] q;
  output ok, hit5;
  reg [2:0] q;
  assign ok = ~(q == 3'd7);
  assign hit5 = (q == 3'd5);
  always @(posedge clk) begin
    if (en) begin
      if (q == 3'd5) q <= 3'd0;
      else q <= q + 3'd1;
    end
  end
  initial q = 3'd0;
endmodule
`

// deepSrc nests 10^6 parentheses around one input: 2,000,064 bytes,
// under the body cap, that once overflowed the parser's stack.
var deepSrc = "module m(clk, o);\ninput clk;\noutput o;\nassign o = " +
	strings.Repeat("(", 1000000) + "clk" + strings.Repeat(")", 1000000) + ";\nendmodule"

// hostileSrc assigns to a concatenation whose first piece selects a
// select; elaboration once panicked on it.
const hostileSrc = `
module m(clk, a, o);
  input clk;
  input [1:0] a;
  output o;
  reg [1:0] q;
  reg r;
  always @(*) {q[1][0], r} = a;
  assign o = r;
endmodule
`

func postCheck(t *testing.T, ts *httptest.Server, req CheckRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestServeCheckMatchesCLIRecords pins the serving contract: the
// response body is the exact record array the CLI's -json path
// produces for the same design, properties and batch options —
// byte-equivalent up to the nondeterministic elapsed_ns field.
func TestServeCheckMatchesCLIRecords(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()

	req := CheckRequest{
		Design:     testSrc,
		Top:        "cnt3",
		Invariants: []string{"ok"},
		Witnesses:  []string{"hit5"},
		Depth:      8,
		Jobs:       8,
	}
	resp, body := postCheck(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Design-Cache"); got != "miss" {
		t.Errorf("first request X-Design-Cache = %q, want miss", got)
	}

	// The same batch through the core API, rendered by the same
	// encoder the CLI uses.
	d, err := core.CompileVerilog(testSrc, "cnt3")
	if err != nil {
		t.Fatal(err)
	}
	props, err := property.FromNames(d.Netlist(), []string{"ok"}, []string{"hit5"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := d.NewSession(core.Options{MaxDepth: 8, UseInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	results := sess.CheckAll(context.Background(), props, core.BatchOptions{Jobs: 8})
	var want bytes.Buffer
	if err := core.EncodeRecords(&want, results); err != nil {
		t.Fatal(err)
	}
	if normalizeElapsed(t, string(body)) != normalizeElapsed(t, want.String()) {
		t.Errorf("served records differ from CLI records:\nserved: %s\ncli:    %s", body, want.String())
	}
}

// normalizeElapsed zeroes the elapsed_ns field — the only
// run-nondeterministic part of a record — keeping everything else
// byte-exact.
func normalizeElapsed(t *testing.T, s string) string {
	t.Helper()
	var recs []core.JSONRecord
	if err := json.Unmarshal([]byte(s), &recs); err != nil {
		t.Fatalf("bad records %q: %v", s, err)
	}
	for i := range recs {
		recs[i].ElapsedNs = 0
	}
	out, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestServeDesignCacheHit pins the content-hash cache: the second
// request for the same source compiles nothing and reports a hit, a
// different source misses, and concurrent first requests singleflight
// into one compiled design. Admission is sized above the concurrency
// the test generates — this test pins the cache contract, not
// shedding (TestServeOverloadSheds covers that).
func TestServeDesignCacheHit(t *testing.T) {
	srv := New(Options{MaxConcurrent: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := CheckRequest{Design: testSrc, Top: "cnt3", Invariants: []string{"ok"}, Depth: 4}
	resp1, body1 := postCheck(t, ts, req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	resp2, body2 := postCheck(t, ts, req)
	if got := resp2.Header.Get("X-Design-Cache"); got != "hit" {
		t.Errorf("second request X-Design-Cache = %q, want hit", got)
	}
	if normalizeElapsed(t, string(body1)) != normalizeElapsed(t, string(body2)) {
		t.Errorf("cache hit changed the records:\nfirst:  %s\nsecond: %s", body1, body2)
	}
	if n := srv.DesignCacheStats().Len; n != 1 {
		t.Errorf("cached designs = %d, want 1", n)
	}

	// Different engine, same design: still a hit.
	req.Engine = "bmc"
	respB, bodyB := postCheck(t, ts, req)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("bmc status %d: %s", respB.StatusCode, bodyB)
	}
	if got := respB.Header.Get("X-Design-Cache"); got != "hit" {
		t.Errorf("engine switch X-Design-Cache = %q, want hit", got)
	}

	// Concurrent requests for a new design singleflight the compile.
	src2 := strings.Replace(testSrc, "cnt3", "cnt3b", 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postCheck(t, ts, CheckRequest{Design: src2, Top: "cnt3b", Invariants: []string{"ok"}, Depth: 4})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	if n := srv.DesignCacheStats().Len; n != 2 {
		t.Errorf("cached designs = %d, want 2", n)
	}
}

// TestServeBadRequests pins the error surface: malformed JSON, missing
// fields, unknown signals, unknown engines and broken Verilog all
// produce a 4xx JSON error, never a 5xx or a hang. A request refused
// before its design is needed (every case but an unknown signal or
// broken Verilog) never reaches the design cache.
func TestServeBadRequests(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	cases := []struct {
		name, body  string
		needsDesign bool
	}{
		{"malformed", `{"design":`, false},
		{"unknown-field", `{"designs": "x"}`, false},
		{"missing-design", `{"top": "m", "invariants": ["a"]}`, false},
		{"no-props", mustReq(t, CheckRequest{Design: testSrc, Top: "cnt3"}), false},
		{"bad-signal", mustReq(t, CheckRequest{Design: testSrc, Top: "cnt3", Invariants: []string{"nope"}}), true},
		{"bad-engine", mustReq(t, CheckRequest{Design: testSrc, Top: "cnt3", Invariants: []string{"ok"}, Engine: "z3"}), false},
		{"bad-verilog", mustReq(t, CheckRequest{Design: "module; endmodule", Top: "m", Invariants: []string{"a"}}), true},
		{"hostile-verilog", mustReq(t, CheckRequest{Design: hostileSrc, Top: "m", Invariants: []string{"o"}}), true},
		{"deep-nesting", mustReq(t, CheckRequest{Design: deepSrc, Top: "m", Invariants: []string{"o"}}), true},
		{"wide-signal", mustReq(t, CheckRequest{Design: testSrc, Top: "cnt3", Invariants: []string{"q"}}), true},
	}
	for _, tc := range cases {
		before := srv.DesignCacheStats()
		if resp := post(tc.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		after := srv.DesignCacheStats()
		if looked := after.Hits+after.Misses > before.Hits+before.Misses; looked != tc.needsDesign {
			t.Errorf("%s: design cache consulted %v, want %v (stats %+v)", tc.name, looked, tc.needsDesign, after)
		}
	}
	// GET on the check endpoint is not allowed.
	resp, err := http.Get(ts.URL + "/v1/check")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/check: status %d, want 405", resp.StatusCode)
	}
	// Health endpoint answers.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
}

// TestHealthzLimitsAndLedger pins the capacity-and-ledger surface the
// cluster router reads: /healthz reports the server's static limits
// and the cumulative served/shed counters move with traffic.
func TestHealthzLimitsAndLedger(t *testing.T) {
	srv := New(Options{MaxConcurrent: 3, MaxQueue: 5, MaxDepth: 32, MaxJobs: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	getHealth := func() health {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	h := getHealth()
	if h.Limits.MaxConcurrent != 3 || h.Limits.MaxQueue != 5 ||
		h.Limits.MaxDepth != 32 || h.Limits.MaxJobs != 4 {
		t.Errorf("limits = %+v, want 3/5/32/4", h.Limits)
	}
	if h.Served != 0 || h.Shed != 0 {
		t.Errorf("fresh server ledger = served %d shed %d, want 0/0", h.Served, h.Shed)
	}

	req := CheckRequest{Design: testSrc, Top: "cnt3", Invariants: []string{"ok"}, Depth: 4}
	if resp, body := postCheck(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("check: %d (%s)", resp.StatusCode, body)
	}
	if h := getHealth(); h.Served != 1 {
		t.Errorf("served = %d after one 200, want 1", h.Served)
	}

	// A drain-time refusal counts as shed.
	srv.BeginDrain()
	if resp, _ := postCheck(t, ts, req); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain refusal: %d, want 503", resp.StatusCode)
	}
	if h := getHealth(); h.Shed != 1 || h.Served != 1 {
		t.Errorf("ledger after drain refusal = served %d shed %d, want 1/1", h.Served, h.Shed)
	}
}

func mustReq(t *testing.T, req CheckRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
