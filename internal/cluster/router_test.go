package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/property"
	"repro/internal/service"
)

// clusterSrc is the fleet-test design: the serve-smoke token ring with
// every grant bit exposed as a witness target, giving an 8-property
// batch (2 invariants + 6 witnesses) that shards across 3 replicas.
const clusterSrc = `
module ring8(clk, req, hold, grant, token, tok_onehot, quiet_ok, g0, g1, g2, g3, g4, g5);
  input clk;
  input [7:0] req;
  input [7:0] hold;
  output [7:0] grant;
  output [7:0] token;
  output tok_onehot;
  output quiet_ok;
  output g0;
  output g1;
  output g2;
  output g3;
  output g4;
  output g5;
  reg [7:0] token;
  wire advance;
  wire [7:0] tm1;
  assign grant = token & req;
  assign advance = ~|(token & hold);
  assign tm1 = token - 8'd1;
  assign tok_onehot = (~|(token & tm1)) & (|token);
  assign quiet_ok = ~(grant[0] & grant[1]);
  assign g0 = grant[0];
  assign g1 = grant[1];
  assign g2 = grant[2];
  assign g3 = grant[3];
  assign g4 = grant[4];
  assign g5 = grant[5];
  always @(posedge clk) begin
    if (advance) token <= {token[6:0], token[7]};
  end
  initial token = 8'd1;
endmodule
`

var (
	clusterInv = []string{"tok_onehot", "quiet_ok"}
	clusterWit = []string{"g0", "g1", "g2", "g3", "g4", "g5"}
)

func clusterReq() *service.CheckRequest {
	return &service.CheckRequest{
		Design:     clusterSrc,
		Top:        "ring8",
		Invariants: append([]string(nil), clusterInv...),
		Witnesses:  append([]string(nil), clusterWit...),
		Depth:      8,
		Jobs:       4,
	}
}

// referenceRecords computes the single-node ground truth the merged
// router response must match byte-for-byte (modulo elapsed_ns): the
// same check the service path runs, straight through core.
func referenceRecords(t *testing.T) []core.JSONRecord {
	t.Helper()
	d, err := core.CompileVerilog(clusterSrc, "ring8")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sess, err := d.NewSession(core.Options{MaxDepth: 8, UseInduction: true})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	props, err := property.FromNames(d.Netlist(), clusterInv, clusterWit)
	if err != nil {
		t.Fatalf("props: %v", err)
	}
	results := sess.CheckAll(context.Background(), props, core.BatchOptions{Jobs: 1})
	return core.RecordsFromResults(results)
}

var elapsedRe = regexp.MustCompile(`"elapsed_ns": [0-9]+`)

func normalizeElapsed(b []byte) string {
	return elapsedRe.ReplaceAllString(string(b), `"elapsed_ns": 0`)
}

func encodeRecords(t *testing.T, recs []core.JSONRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.EncodeJSONRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newFleet starts n in-process assertd replicas. wrap, when non-nil,
// interposes on each replica's handler (fault shims for the tests).
func newFleet(t *testing.T, n int, wrap func(http.Handler) http.Handler) ([]*httptest.Server, []*service.Server, []string) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	svcs := make([]*service.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		svcs[i] = service.New(service.Options{MaxJobs: 4, MaxConcurrent: 4})
		h := svcs[i].Handler()
		if wrap != nil {
			h = wrap(h)
		}
		servers[i] = httptest.NewServer(h)
		urls[i] = servers[i].URL
		ts := servers[i]
		t.Cleanup(ts.Close)
	}
	return servers, svcs, urls
}

func newTestRouter(t *testing.T, urls []string, mod func(*Options)) *Router {
	t.Helper()
	o := Options{Replicas: urls, HealthInterval: 20 * time.Millisecond}
	if mod != nil {
		mod(&o)
	}
	rt, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestRouterMergedResponseMatchesSingleNode is the tentpole contract:
// a batch scattered over 3 replicas comes back byte-identical to the
// single-node response modulo elapsed_ns, and the consistent-hash
// affinity makes a repeat batch an all-shards cache hit.
func TestRouterMergedResponseMatchesSingleNode(t *testing.T) {
	want := normalizeElapsed(encodeRecords(t, referenceRecords(t)))
	_, _, urls := newFleet(t, 3, nil)
	rt := newTestRouter(t, urls, nil)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	post := func() (*http.Response, []byte) {
		body, err := json.Marshal(clusterReq())
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(front.URL+"/v1/check", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}

	resp, data := post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := normalizeElapsed(data); got != want {
		t.Fatalf("merged response differs from single-node run:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Same design again: every shard lands on the same replica (ring
	// affinity) whose design cache is now warm.
	resp, data = post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Design-Cache"); got != "hit" {
		t.Fatalf("second request X-Design-Cache = %q, want hit", got)
	}
	if got := normalizeElapsed(data); got != want {
		t.Fatalf("second merged response differs from single-node run")
	}

	hres, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var h routerHealth
	if err := json.NewDecoder(hres.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Replicas) != 3 || h.Served != 2 {
		t.Fatalf("router health = %+v, want ok/3 replicas/served 2", h)
	}
}

// TestRouterHonorsRetryAfter pins the shed-retry contract: a 503 with
// Retry-After is retried on the same replica no sooner than half the
// hint (full jitter), and succeeds without failing over.
func TestRouterHonorsRetryAfter(t *testing.T) {
	var checks atomic.Int64
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/check" && checks.Add(1) == 1 {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusServiceUnavailable)
				_, _ = w.Write([]byte(`{"error":"shedding"}`))
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	_, _, urls := newFleet(t, 1, wrap)
	rt := newTestRouter(t, urls, nil)

	start := time.Now()
	recs, _, err := rt.Check(context.Background(), clusterReq())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if len(recs) != 8 {
		t.Fatalf("got %d records, want 8", len(recs))
	}
	if got := checks.Load(); got != 2 {
		t.Fatalf("replica saw %d check requests, want 2 (shed + retry)", got)
	}
	if rt.retries.Load() != 1 {
		t.Fatalf("retries counter = %d, want 1", rt.retries.Load())
	}
	// Full jitter sleeps U(hint/2, hint): the retry cannot land before
	// ~500ms of the 1s hint.
	if elapsed < 400*time.Millisecond {
		t.Fatalf("retry after %v, too early for a 1s Retry-After hint", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("retry after %v, hint was 1s", elapsed)
	}
}

// TestRouterFailsOverFromDeadReplica: a replica that refuses
// connections costs a failover, not the batch.
func TestRouterFailsOverFromDeadReplica(t *testing.T) {
	_, _, urls := newFleet(t, 1, nil)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // port now refuses connections
	rt := newTestRouter(t, []string{urls[0], dead.URL}, nil)

	recs, _, err := rt.Check(context.Background(), clusterReq())
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if len(recs) != 8 {
		t.Fatalf("got %d records, want 8", len(recs))
	}
	want := normalizeElapsed(encodeRecords(t, referenceRecords(t)))
	if got := normalizeElapsed(encodeRecords(t, recs)); got != want {
		t.Fatal("failover response differs from single-node run")
	}
	if rt.failovers.Load() == 0 {
		t.Fatal("dead replica cost no failover")
	}
}

// TestRouterRefusesUnknownEngine: the router answers an unknown engine
// at its own front door, with the status, headers and body a replica
// sends for it, and the request reaches no replica.
func TestRouterRefusesUnknownEngine(t *testing.T) {
	var checks atomic.Int64
	servers, _, urls := newFleet(t, 1, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/check" {
				checks.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	})
	front := httptest.NewServer(newTestRouter(t, urls, nil).Handler())
	defer front.Close()
	req := clusterReq()
	req.Engine = "z3"
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(url string) string {
		resp, err := http.Post(url+"/v1/check", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d %s %s", resp.StatusCode, resp.Header.Get("Content-Type"), data)
	}
	replica := answer(servers[0].URL)
	if got := answer(front.URL); got != replica {
		t.Errorf("router answered %q, a replica answers %q", got, replica)
	}
	if !strings.HasPrefix(replica, `400 application/json {"error":"unknown engine \"z3\""}`) {
		t.Errorf("replica answered %q, want a 400 naming the engine", replica)
	}
	if n := checks.Load(); n != 1 {
		t.Errorf("replicas saw %d check requests, want only the direct one", n)
	}
}

// TestRouterRelaysElaborationErrors: a design the elaborator rejects is
// each replica's 400, which the router relays without charging a
// breaker. After four such posts through a three-replica fleet every
// breaker is closed and a valid batch still matches a single node.
func TestRouterRelaysElaborationErrors(t *testing.T) {
	want := normalizeElapsed(encodeRecords(t, referenceRecords(t)))
	servers, _, urls := newFleet(t, 3, nil)
	rt := newTestRouter(t, urls, nil)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	post := func(url string, req *service.CheckRequest) (int, string) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/check", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	// The concatenated target's first piece selects a select; its
	// elaboration once panicked, a 500 that the router charged to the
	// replica's breaker.
	hostile := &service.CheckRequest{Design: `
module m(clk, a, o);
  input clk;
  input [1:0] a;
  output o;
  reg [1:0] q;
  reg r;
  always @(*) {q[1][0], r} = a;
  assign o = r;
endmodule
`, Top: "m", Invariants: []string{"o"}}
	code, replica := post(servers[0].URL, hostile)
	if code != http.StatusBadRequest || !strings.HasPrefix(replica, `{"error":"compile: elab:`) {
		t.Errorf("replica answered %d %s, want a 400 compile error", code, replica)
	}
	for i := 0; i < 4; i++ {
		if code, got := post(front.URL, hostile); code != http.StatusBadRequest || got != replica {
			t.Errorf("post %d: router answered %d %s, want the replica's 400 %s", i, code, got, replica)
		}
	}
	for _, rep := range rt.mem.Load().replicas {
		if st := rep.brk.State(); st != breakerClosed {
			t.Errorf("replica %s breaker %v, want closed", rep.url, st)
		}
	}
	code, got := post(front.URL, clusterReq())
	if code != http.StatusOK || normalizeElapsed([]byte(got)) != want {
		t.Fatalf("valid batch after the rejected ones: %d\n%s\nwant the single-node records:\n%s", code, got, want)
	}
}

// TestRouterAvoidsDrainingReplica: one draining healthz answer takes a
// replica out of the ring before any shard wastes a round trip on its
// 503.
func TestRouterAvoidsDrainingReplica(t *testing.T) {
	_, svcs, urls := newFleet(t, 2, nil)
	rt := newTestRouter(t, urls, nil)

	svcs[0].BeginDrain()
	deadline := time.Now().Add(2 * time.Second)
	for rt.mem.Load().replicas[0].State() != stateDraining {
		if time.Now().After(deadline) {
			t.Fatalf("router never observed draining state (replica 0 = %v)", rt.mem.Load().replicas[0].State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := rt.Healthy(); got != 1 {
		t.Fatalf("Healthy() = %d, want 1", got)
	}

	recs, _, err := rt.Check(context.Background(), clusterReq())
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if len(recs) != 8 {
		t.Fatalf("got %d records, want 8", len(recs))
	}
	if got := svcs[0].Served(); got != 0 {
		t.Fatalf("draining replica served %d batches, want 0", got)
	}
	if got := svcs[1].Served(); got == 0 {
		t.Fatal("surviving replica served nothing")
	}
}

// TestRouterMarksFailingReplicaDownAndRecovers drives the health state
// machine both ways with the replica's port kept bound the whole time
// (a 500-answering /healthz is a poll failure, same as a refused dial,
// but immune to another test rebinding a freed ephemeral port):
// FailThreshold consecutive failures mark the replica down and shrink
// Healthy(); RiseThreshold consecutive successes put it back.
func TestRouterMarksFailingReplicaDownAndRecovers(t *testing.T) {
	var failHost atomic.Value // host:port whose /healthz answers 500
	failHost.Store("")
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" && r.Host == failHost.Load().(string) {
				http.Error(w, "injected health failure", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	_, _, urls := newFleet(t, 2, wrap)
	rt := newTestRouter(t, urls, nil)

	failHost.Store(strings.TrimPrefix(urls[0], "http://"))
	deadline := time.Now().Add(2 * time.Second)
	for rt.mem.Load().replicas[0].State() != stateDown {
		if time.Now().After(deadline) {
			t.Fatalf("replica 0 state = %v, want down", rt.mem.Load().replicas[0].State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := rt.Healthy(); got != 1 {
		t.Fatalf("Healthy() = %d with one replica down, want 1", got)
	}

	failHost.Store("")
	deadline = time.Now().Add(2 * time.Second)
	for rt.mem.Load().replicas[0].State() != stateHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("replica 0 state = %v, want healthy again", rt.mem.Load().replicas[0].State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := rt.Healthy(); got != 2 {
		t.Fatalf("Healthy() = %d after recovery, want 2", got)
	}
}

// TestRouterRouteFaultInjection drives the router's faultinject points
// through its own HTTP front end: one failed dial and one failed
// response read recover transparently, and dials that always fail
// surface as a routing error.
func TestRouterRouteFaultInjection(t *testing.T) {
	want := normalizeElapsed(encodeRecords(t, referenceRecords(t)))
	_, _, urls := newFleet(t, 2, nil)
	rt := newTestRouter(t, urls, func(o *Options) { o.EnableFaults = true })
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	post := func(spec string, req *service.CheckRequest) (*http.Response, []byte) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.NewRequest(http.MethodPost, front.URL+"/v1/check", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Content-Type", "application/json")
		if spec != "" {
			hr.Header.Set("X-Fault-Inject", spec)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}

	// One failed dial, then one failed response read: each shard
	// retries elsewhere, the client never notices.
	for _, spec := range []string{"route.dial=error:1", "route.response=error:1"} {
		resp, data := post(spec, clusterReq())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d: %s", spec, resp.StatusCode, data)
		}
		if got := normalizeElapsed(data); got != want {
			t.Fatalf("%s response differs from single-node run", spec)
		}
	}

	// Every dial fails: no replica is reachable, the router must say
	// so rather than hang or lie.
	small := clusterReq()
	small.Invariants = []string{"tok_onehot"}
	small.Witnesses = nil
	resp, data := post("route.dial=error", small)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("unbounded dial error status %d (%s), want 502", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "routing failed") {
		t.Fatalf("unbounded dial error body %q lacks routing error", data)
	}
}

// TestRouterFailsOverFromTruncatedBody: a replica whose 200 announces
// its length and then loses the connection mid-body costs its shard a
// failover, and the merged answer still matches a single node.
func TestRouterFailsOverFromTruncatedBody(t *testing.T) {
	want := normalizeElapsed(encodeRecords(t, referenceRecords(t)))
	var cut atomic.Bool
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/check" {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK || !cut.CompareAndSwap(false, true) {
				for k, v := range rec.Header() {
					w.Header()[k] = v
				}
				w.WriteHeader(rec.Code)
				_, _ = w.Write(rec.Body.Bytes())
				return
			}
			body := rec.Body.Bytes()
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(body[:len(body)/2])
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
		})
	}
	_, _, urls := newFleet(t, 2, wrap)
	rt := newTestRouter(t, urls, nil)

	recs, _, err := rt.Check(context.Background(), clusterReq())
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !cut.Load() {
		t.Fatal("no replica answered 200, so no body was cut")
	}
	if got := normalizeElapsed(encodeRecords(t, recs)); got != want {
		t.Fatal("response after a truncated body differs from single-node run")
	}
	if rt.failovers.Load() == 0 {
		t.Fatal("truncated body cost no failover")
	}
}

// TestOpenBreakerIsNotRoutable pins the one routability rule: while a
// replica's breaker is open inside its cooldown, Healthy does not count
// it and no shard is routed to it; once the cooldown has run out it is
// routable again, and the half-open probe that reaches it closes the
// breaker.
func TestOpenBreakerIsNotRoutable(t *testing.T) {
	_, _, urls := newFleet(t, 1, nil)
	rt := newTestRouter(t, urls, nil)
	brk := rt.mem.Load().replicas[0].brk
	now := time.Unix(0, 0)
	brk.mu.Lock()
	brk.now = func() time.Time { return now }
	brk.mu.Unlock()
	for i := 0; i < 4; i++ {
		brk.Record(false)
	}
	if got := rt.Healthy(); got != 0 {
		t.Fatalf("Healthy() = %d with the only breaker open, want 0", got)
	}
	if _, _, err := rt.Check(context.Background(), clusterReq()); !errors.Is(err, errNoReplicas) {
		t.Fatalf("check with the only breaker open: err = %v, want %v", err, errNoReplicas)
	}

	now = now.Add(3 * time.Second)
	if got := rt.Healthy(); got != 1 {
		t.Fatalf("Healthy() = %d after the cooldown, want 1", got)
	}
	recs, _, err := rt.Check(context.Background(), clusterReq())
	if err != nil {
		t.Fatalf("check after the cooldown: %v", err)
	}
	if len(recs) != 8 {
		t.Fatalf("got %d records, want 8", len(recs))
	}
	if got := brk.State(); got != breakerClosed {
		t.Fatalf("breaker %v after the probe answered, want closed", got)
	}
}
