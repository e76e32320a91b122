package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// postFault POSTs a check request with an X-Fault-Inject header.
func postFault(t *testing.T, ts *httptest.Server, req CheckRequest, fault string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/check", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if fault != "" {
		hr.Header.Set("X-Fault-Inject", fault)
	}
	resp, err := http.DefaultClient.Do(hr)
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

func decodeRecords(t *testing.T, body []byte) []core.JSONRecord {
	t.Helper()
	var recs []core.JSONRecord
	if err := json.Unmarshal(body, &recs); err != nil {
		t.Fatalf("bad records %q: %v", body, err)
	}
	return recs
}

// waitSettled polls until the predicate holds or the deadline passes.
func waitSettled(timeout time.Duration, pred func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if pred() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return pred()
}

// TestServeRequestValidation pins the numeric-field surface: negative
// depth/jobs/timeout, over-cap depths and timeouts too large for a
// time.Duration are rejected with 400 instead of flowing into the
// engines.
func TestServeRequestValidation(t *testing.T) {
	ts := httptest.NewServer(New(Options{MaxDepth: 32}).Handler())
	defer ts.Close()

	base := CheckRequest{Design: testSrc, Top: "cnt3", Invariants: []string{"ok"}}
	cases := []struct {
		name   string
		mutate func(*CheckRequest)
	}{
		{"negative-depth", func(r *CheckRequest) { r.Depth = -3 }},
		{"over-cap-depth", func(r *CheckRequest) { r.Depth = 33 }},
		{"absurd-depth", func(r *CheckRequest) { r.Depth = 1 << 30 }},
		{"negative-jobs", func(r *CheckRequest) { r.Jobs = -1 }},
		{"negative-timeout", func(r *CheckRequest) { r.TimeoutMs = -5 }},
		// Both overflow a time.Duration in milliseconds: the first
		// would wrap to a 64 ns deadline, the second to 448 µs.
		{"overflowing-timeout", func(r *CheckRequest) { r.TimeoutMs = 76480200929599801 }},
		{"wrapping-timeout", func(r *CheckRequest) { r.TimeoutMs = 18446744073710 }},
	}
	for _, tc := range cases {
		req := base
		tc.mutate(&req)
		resp, body := postCheck(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}
	// The cap itself is accepted.
	req := base
	req.Depth = 32
	if resp, body := postCheck(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Errorf("depth at cap: status %d (%s)", resp.StatusCode, body)
	}
	req = base
	req.TimeoutMs = maxTimeoutMs
	if resp, body := postCheck(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Errorf("largest timeout: status %d (%s)", resp.StatusCode, body)
	}
}

// TestServeOverloadSheds floods a 1-slot, 1-deep server while a slow
// request holds the slot: excess requests are shed with 429 +
// Retry-After, the queue depth stays bounded, everything admitted
// completes, and the goroutine count settles back after the flood (no
// leaked workers) — the admission contract under -race.
func TestServeOverloadSheds(t *testing.T) {
	srv := New(Options{MaxConcurrent: 1, MaxQueue: 1, EnableFaults: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := CheckRequest{Design: testSrc, Top: "cnt3", Invariants: []string{"ok"}, Depth: 4}
	// Warm the design cache so flood requests do no compile work.
	if resp, body := postCheck(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: %d (%s)", resp.StatusCode, body)
	}
	baseline := runtime.NumGoroutine()

	// A slow request takes the only slot (the engine sleeps under the
	// slot, then checks normally).
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		resp, body := postFault(t, ts, req, "engine.atpg=sleep:500ms")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("slow request: %d (%s)", resp.StatusCode, body)
		}
	}()
	if !waitSettled(2*time.Second, func() bool { return srv.InFlight() == 1 }) {
		t.Fatal("slow request never took the slot")
	}

	const flood = 16
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		shed, ok int
	)
	maxQueued := 0
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for {
			select {
			case <-stopWatch:
				return
			default:
				if q := srv.Queued(); q > maxQueued {
					maxQueued = q
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postCheck(t, ts, req)
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				shed++
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				if !strings.Contains(string(body), "error") {
					t.Errorf("429 body not structured: %s", body)
				}
			case http.StatusOK:
				ok++
			default:
				t.Errorf("flood status %d (%s)", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	close(stopWatch)
	<-watchDone
	<-slowDone

	// The slot was held for the whole flood, so at most one flood
	// request can have queued (queue depth 1); everything else is shed.
	if shed < flood-2 {
		t.Errorf("shed = %d of %d, want >= %d", shed, flood, flood-2)
	}
	if shed+ok != flood {
		t.Errorf("shed+ok = %d, want %d", shed+ok, flood)
	}
	if maxQueued > 1 {
		t.Errorf("observed queue depth %d, bound is 1", maxQueued)
	}
	if srv.Rejected() < int64(shed) {
		t.Errorf("Rejected() = %d < shed %d", srv.Rejected(), shed)
	}

	// Drain: no stuck workers, no leaked goroutines.
	http.DefaultClient.CloseIdleConnections()
	settled := waitSettled(3*time.Second, func() bool {
		return srv.InFlight() == 0 && srv.Queued() == 0 &&
			runtime.NumGoroutine() <= baseline+3
	})
	if !settled {
		t.Errorf("goroutines did not settle: inflight=%d queued=%d goroutines=%d (baseline %d)",
			srv.InFlight(), srv.Queued(), runtime.NumGoroutine(), baseline)
	}
}

// TestServeDeadlineYieldsUnknown pins the deadline contract: a request
// whose budget expires mid-check gets a complete 200 response whose
// records carry unknown verdicts — not a dropped connection, not a
// truncated body.
func TestServeDeadlineYieldsUnknown(t *testing.T) {
	ts := httptest.NewServer(New(Options{EnableFaults: true}).Handler())
	defer ts.Close()

	req := CheckRequest{Design: testSrc, Top: "cnt3", Invariants: []string{"ok"},
		Depth: 4, TimeoutMs: 50}
	// The engine sleeps until the deadline cancels the context, then
	// observes the expiry and reports unknown.
	resp, body := postFault(t, ts, req, "engine.atpg=sleep:1h")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	recs := decodeRecords(t, body)
	if len(recs) != 1 || recs[0].Verdict != "unknown" {
		t.Errorf("records = %+v, want one unknown verdict", recs)
	}
}

// TestServeServerTimeoutDefault pins the server-side default budget
// (the assertd -timeout flag): a stuck check expires without any
// client cooperation.
func TestServeServerTimeoutDefault(t *testing.T) {
	ts := httptest.NewServer(New(Options{DefaultTimeout: 50 * time.Millisecond, EnableFaults: true}).Handler())
	defer ts.Close()

	req := CheckRequest{Design: testSrc, Top: "cnt3", Invariants: []string{"ok"}, Depth: 4}
	start := time.Now()
	resp, body := postFault(t, ts, req, "engine.atpg=sleep:1h")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("stuck check pinned a worker for %v", elapsed)
	}
	if recs := decodeRecords(t, body); len(recs) != 1 || recs[0].Verdict != "unknown" {
		t.Errorf("records = %s, want one unknown verdict", body)
	}
	// MaxTimeout clamps a request asking for more than the operator
	// allows.
	ts2 := httptest.NewServer(New(Options{MaxTimeout: 50 * time.Millisecond, EnableFaults: true}).Handler())
	defer ts2.Close()
	req.TimeoutMs = 60_000
	resp, body = postFault(t, ts2, req, "engine.atpg=sleep:1h")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clamped status %d (%s)", resp.StatusCode, body)
	}
	if recs := decodeRecords(t, body); len(recs) != 1 || recs[0].Verdict != "unknown" {
		t.Errorf("clamped records = %s, want one unknown verdict", body)
	}
}

// TestServeFaultMatrix drives every named failure point through the
// running server and asserts each surfaces as a structured error — a
// 5xx JSON body or an attributed error record — with the server still
// serving the happy path (byte-identically) afterward. This is the
// in-process version of the CI degrade-smoke job.
func TestServeFaultMatrix(t *testing.T) {
	srv := New(Options{EnableFaults: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := CheckRequest{Design: testSrc, Top: "cnt3",
		Invariants: []string{"ok"}, Witnesses: []string{"hit5"}, Depth: 8, Jobs: 2}
	okResp, okBody := postCheck(t, ts, req)
	if okResp.StatusCode != http.StatusOK {
		t.Fatalf("happy path: %d (%s)", okResp.StatusCode, okBody)
	}

	// 5xx points: the handler fails before producing records.
	for _, fault := range []string{
		"compile=error", "compile=panic",
		"session=error", "session=panic",
		"encode=error", "encode=panic",
	} {
		resp, body := postFault(t, ts, req, fault)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500 (%s)", fault, resp.StatusCode, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: unstructured 500 body %q", fault, body)
		}
	}

	// Engine points: a 200 whose records carry attributed error
	// verdicts (error mode) or recovered panics (panic mode).
	for _, tc := range []struct{ fault, engine string }{
		{"engine.atpg=error", ""},
		{"engine.atpg=panic", ""},
		{"engine.bmc=error", "bmc"},
		{"engine.bmc=panic", "bmc"},
		{"engine.bdd=error", "bdd"},
		{"engine.bdd=panic", "bdd"},
		{"engine.atpg=panic", "portfolio"}, // one poisoned member, race survives
	} {
		r := req
		r.Engine = tc.engine
		resp, body := postFault(t, ts, r, tc.fault)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s(%s): status %d (%s)", tc.fault, tc.engine, resp.StatusCode, body)
			continue
		}
		recs := decodeRecords(t, body)
		if len(recs) != 2 {
			t.Errorf("%s(%s): %d records, want 2", tc.fault, tc.engine, len(recs))
			continue
		}
		for _, rec := range recs {
			if tc.engine == "portfolio" {
				// The healthy members win the race; no error surfaces.
				if rec.Verdict == "error" {
					t.Errorf("portfolio with one poisoned member returned error: %+v", rec)
				}
				continue
			}
			if rec.Verdict != "error" || rec.Error == "" {
				t.Errorf("%s(%s): record %+v, want attributed error", tc.fault, tc.engine, rec)
			}
		}
	}

	// The server still serves, and the happy path is byte-identical.
	resp, body := postCheck(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-matrix happy path: %d (%s)", resp.StatusCode, body)
	}
	if normalizeElapsed(t, string(body)) != normalizeElapsed(t, string(okBody)) {
		t.Errorf("fault matrix perturbed the happy path:\nbefore: %s\nafter:  %s", okBody, body)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after matrix: %v %v", err, hresp)
	}
	hresp.Body.Close()
}

// TestServeDrain pins the lifecycle contract: after BeginDrain new
// check requests get 503 + Retry-After, /healthz reports draining, and
// requests admitted before the drain complete normally.
func TestServeDrain(t *testing.T) {
	srv := New(Options{EnableFaults: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := CheckRequest{Design: testSrc, Top: "cnt3", Invariants: []string{"ok"}, Depth: 4}
	if resp, body := postCheck(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain: %d (%s)", resp.StatusCode, body)
	}

	// An in-flight slow request, admitted before the drain begins.
	inflight := make(chan struct{})
	go func() {
		defer close(inflight)
		resp, body := postFault(t, ts, req, "engine.atpg=sleep:300ms")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("in-flight request during drain: %d (%s)", resp.StatusCode, body)
		}
	}()
	if !waitSettled(2*time.Second, func() bool { return srv.InFlight() == 1 }) {
		t.Fatal("slow request never started")
	}

	srv.BeginDrain()
	resp, body := postCheck(t, ts, req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain check: status %d, want 503 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if h.Status != "draining" {
		t.Errorf("healthz status = %q, want draining", h.Status)
	}
	<-inflight
}

// TestServeEncodeFaultIs500 pins the buffered-encode satellite: an
// encode failure yields a clean 500 JSON error, never a 200 with a
// truncated body.
func TestServeEncodeFaultIs500(t *testing.T) {
	ts := httptest.NewServer(New(Options{EnableFaults: true}).Handler())
	defer ts.Close()

	req := CheckRequest{Design: testSrc, Top: "cnt3", Invariants: []string{"ok"}, Depth: 4}
	resp, body := postFault(t, ts, req, "encode=error")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("500 body is not JSON: %q", body)
	}
	if !strings.Contains(e["error"], "encode") {
		t.Errorf("error = %q, want encode attribution", e["error"])
	}
}

// TestServeDesignCacheEviction pins the bounded design cache: with a
// 2-entry cap, a third design evicts the least recently used one, the
// eviction counter moves, and the evicted design recompiles (a miss)
// on re-request — correctness never depends on residency.
func TestServeDesignCacheEviction(t *testing.T) {
	srv := New(Options{DesignCacheEntries: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(mod string) *http.Response {
		src := strings.ReplaceAll(testSrc, "cnt3", mod)
		resp, body := postCheck(t, ts, CheckRequest{Design: src, Top: mod, Invariants: []string{"ok"}, Depth: 2})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d (%s)", mod, resp.StatusCode, body)
		}
		return resp
	}
	post("m1")
	post("m2")
	post("m3") // evicts m1
	if n := srv.DesignCacheStats().Len; n != 2 {
		t.Errorf("resident designs = %d, want 2", n)
	}
	if ev := srv.DesignCacheStats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	// m2 is resident (a hit); m1 was evicted (a miss, recompiled).
	if got := post("m2").Header.Get("X-Design-Cache"); got != "hit" {
		t.Errorf("m2 = %q, want hit", got)
	}
	if got := post("m1").Header.Get("X-Design-Cache"); got != "miss" {
		t.Errorf("evicted m1 = %q, want miss", got)
	}
}

// TestServeBadFaultHeader pins the fault-injection surface itself: a
// malformed spec is a 400, and a server without EnableFaults ignores
// the header entirely.
func TestServeBadFaultHeader(t *testing.T) {
	ts := httptest.NewServer(New(Options{EnableFaults: true}).Handler())
	defer ts.Close()
	req := CheckRequest{Design: testSrc, Top: "cnt3", Invariants: []string{"ok"}, Depth: 2}
	if resp, _ := postFault(t, ts, req, "bogus=nope"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec: status %d, want 400", resp.StatusCode)
	}

	off := httptest.NewServer(New(Options{}).Handler())
	defer off.Close()
	resp, body := postFault(t, off, req, "compile=error")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("faults disabled: status %d, want 200 (%s)", resp.StatusCode, body)
	}
}
