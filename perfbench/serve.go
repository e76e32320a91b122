package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/property"
	"repro/internal/service"
)

// The serve-mix traffic: request classes and their counts in every
// block of blockSize consecutive requests (60/30/10 %), the two batch
// sizes (half of each block is small), the frame bound, and the
// open-loop rates. Blocks are shuffled from the seed; fixing the
// counts per block keeps every seed's mix the same.
const (
	blockSize   = 20
	blockRepeat = 12
	blockEdit   = 6 // the rest of the block is cold
	smallBatch  = 3 // below the router's scatter-min of 4: passed through
	fullBatch   = 16
	serveDepth  = 8
	poolCold    = 3 // generated designs in the repeat pool, beside churn_smoke

	// baseRate is the fixed rate the latency metrics are measured at:
	// about half the capacity measured on the 2-core reference box.
	baseRate = 50.0
	// rungShare is the share of --seconds each ladder rung lasts; the
	// base rate runs for the whole --seconds.
	rungShare = 0.25
	// sloMs is the p99 limit of max_rps_slo.
	sloMs = 250.0
	// tailQ is the latency quantile reported at the base rate: the
	// highest with at least ten samples beyond it in a 12 s run.
	tailQ = 0.98
)

// ladder is the fixed sequence of rates max_rps_slo climbs; the climb
// stops at the first rung that misses the SLO.
var ladder = []float64{70, 85, 100, 115, 130, 150, 170, 200, 230}

const churnPath = "testdata/churn_smoke.v"

var churnLit = regexp.MustCompile(`8'd\d+ & tok; // churn:lane(\d+)`)

// editSource rewrites lane's tagged literal in the churn design.
func editSource(base string, lane, lit int) string {
	return churnLit.ReplaceAllStringFunc(base, func(m string) string {
		if churnLit.FindStringSubmatch(m)[1] != strconv.Itoa(lane) {
			return m
		}
		return fmt.Sprintf("8'd%d & tok; // churn:lane%d", lit, lane)
	})
}

// coldSource generates a 16-lane design whose every lane differs from
// churn_smoke's and, with overwhelming likelihood, from any other
// generated design: rotation, mask literal and initial value are drawn
// per lane. The width is fixed so every cold request costs about the
// same. Each invariant okK holds (a rotation of a nonzero register
// stays nonzero).
func coldSource(rng *rand.Rand) string {
	const w = 8
	var sb strings.Builder
	sb.WriteString("// Generated benchmark design: sixteen rotator lanes.\n")
	for k := 0; k < fullBatch; k++ {
		r := 1 + rng.Intn(w-1)
		lit := rng.Intn(1 << w)
		init := 1 + rng.Intn(1<<w-1)
		fmt.Fprintf(&sb, `
module cl%d(clk, ok);
  input clk;
  output ok;
  reg [%d:0] tok;
  wire [%d:0] churn;
  wire [%d:0] nxt;
  assign churn = %d'd%d & tok;
  assign nxt = {tok[%d:0], tok[%d:%d]} | churn;
  assign ok = |tok;
  always @(posedge clk) tok <= nxt;
  initial tok = %d'd%d;
endmodule
`, k, w-1, w-1, w-1, w, lit, w-1-r, w-1, w-r, w, init)
	}
	sb.WriteString("\nmodule cold(clk")
	for k := 0; k < fullBatch; k++ {
		fmt.Fprintf(&sb, ", ok%d", k)
	}
	sb.WriteString(");\n  input clk;\n")
	for k := 0; k < fullBatch; k++ {
		fmt.Fprintf(&sb, "  output ok%d;\n", k)
	}
	for k := 0; k < fullBatch; k++ {
		fmt.Fprintf(&sb, "  cl%d u%d (.clk(clk), .ok(ok%d));\n", k, k, k)
	}
	sb.WriteString("endmodule\n")
	return sb.String()
}

// serveReq is one scheduled request.
type serveReq struct {
	class string // repeat, edit or cold
	due   time.Duration
	key   string // source identity + property list
	body  []byte
	src   string
	top   string
	invs  []string
}

func newServeReq(class, src, top string, invs []string) (*serveReq, error) {
	body, err := json.Marshal(service.CheckRequest{Design: src, Top: top, Invariants: invs, Depth: serveDepth})
	if err != nil {
		return nil, err
	}
	return &serveReq{class: class, src: src, top: top, invs: invs, body: body,
		key: core.Fingerprint(src, top) + "|" + strings.Join(invs, ",")}, nil
}

func lanes(idx []int) []string {
	out := make([]string, len(idx))
	for i, k := range idx {
		out[i] = fmt.Sprintf("ok%d", k)
	}
	return out
}

// traffic generates serve-mix requests from the seed.
type traffic struct {
	rng   *rand.Rand
	churn string
	pool  []*serveReq // the repeat pool: every request shape it serves
	edits []int       // seeded order of (lane, literal) edits, lane*256+lit
	deck  []card      // the rest of the current block
}

// card is one slot of a block: a request class and batch size.
type card struct {
	class string
	small bool
}

func newTraffic(seed int64) (*traffic, error) {
	data, err := os.ReadFile(churnPath)
	if err != nil {
		return nil, fmt.Errorf("reading the churn design: %w", err)
	}
	t := &traffic{rng: rand.New(rand.NewSource(seed)), churn: string(data)}
	if n := len(churnLit.FindAllString(t.churn, -1)); n != fullBatch {
		return nil, fmt.Errorf("%s: %d tagged lanes, want %d", churnPath, n, fullBatch)
	}
	type design struct{ src, top string }
	designs := []design{{t.churn, "churn"}}
	for i := 0; i < poolCold; i++ {
		designs = append(designs, design{coldSource(t.rng), "cold"})
	}
	for _, d := range designs {
		for _, invs := range [][]string{lanes(t.rng.Perm(fullBatch)[:smallBatch]), lanes(t.rng.Perm(fullBatch))} {
			r, err := newServeReq("repeat", d.src, d.top, invs)
			if err != nil {
				return nil, err
			}
			t.pool = append(t.pool, r)
		}
	}
	for _, e := range t.rng.Perm(fullBatch * 255) {
		t.edits = append(t.edits, (e/255)*256+e%255+1)
	}
	return t, nil
}

// draw deals the next card, shuffling a fresh block when one runs out.
func (t *traffic) draw() card {
	if len(t.deck) == 0 {
		for i := 0; i < blockSize; i++ {
			c := card{class: "cold", small: i%2 == 0}
			switch {
			case i < blockRepeat:
				c.class = "repeat"
			case i < blockRepeat+blockEdit:
				c.class = "edit"
			}
			t.deck = append(t.deck, c)
		}
		t.rng.Shuffle(len(t.deck), func(i, j int) { t.deck[i], t.deck[j] = t.deck[j], t.deck[i] })
	}
	c := t.deck[0]
	t.deck = t.deck[1:]
	return c
}

// next draws one request of the mix.
func (t *traffic) next() (*serveReq, error) {
	c := t.draw()
	small := c.small
	switch c.class {
	case "repeat":
		// The pool holds a small and a full shape of every design.
		i := 2 * t.rng.Intn(len(t.pool)/2)
		if !small {
			i++
		}
		return t.pool[i], nil
	case "edit":
		if len(t.edits) == 0 {
			return nil, errors.New("edit space exhausted")
		}
		e := t.edits[0]
		t.edits = t.edits[1:]
		lane, lit := e/256, e%256
		idx := []int{lane}
		if small {
			for _, k := range t.rng.Perm(fullBatch) {
				if k != lane && len(idx) < smallBatch {
					idx = append(idx, k)
				}
			}
		} else {
			idx = t.rng.Perm(fullBatch)
		}
		return newServeReq("edit", editSource(t.churn, lane, lit), "churn", lanes(idx))
	default:
		idx := t.rng.Perm(fullBatch)
		if small {
			idx = idx[:smallBatch]
		}
		return newServeReq("cold", coldSource(t.rng), "cold", lanes(idx))
	}
}

// schedule draws n requests at rate per second: arrivals are evenly
// spaced with seeded ±20% jitter.
func (t *traffic) schedule(n int, rate float64) ([]*serveReq, error) {
	out := make([]*serveReq, 0, n)
	gap := float64(time.Second) / rate
	at := 0.0
	for i := 0; i < n; i++ {
		at += gap * (0.8 + 0.4*t.rng.Float64())
		r, err := t.next()
		if err != nil {
			return nil, err
		}
		c := *r
		c.due = time.Duration(at)
		out = append(out, &c)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// The fleet: two replicas and a router on loopback HTTP.

type fleet struct {
	servers  []*service.Server
	https    []*http.Server
	serving  sync.WaitGroup
	router   *cluster.Router
	url      string
	client   *http.Client
	obs      *serveObserver // nil when untraced
	firsts   map[string][]byte
	firstsMu sync.Mutex
}

// listen serves h on a fresh loopback port.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.https = append(f.https, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// startFleet brings up the replicas (assertd defaults) and the router
// (assertrouter defaults), wrapped by obs when tracing.
func startFleet(obs *serveObserver) (*fleet, error) {
	f := &fleet{obs: obs, firsts: map[string][]byte{}}
	var urls []string
	for i := 0; i < 2; i++ {
		s := service.New(service.Options{})
		f.servers = append(f.servers, s)
		var h http.Handler = s.Handler()
		if obs != nil {
			h = obs.replica(h)
		}
		u, err := f.listen(h)
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	opts := cluster.Options{Replicas: urls, ScatterMin: 4}
	if obs != nil {
		opts.Client = &http.Client{Transport: &spanTransport{base: http.DefaultTransport, obs: obs}}
	}
	rt, err := cluster.New(opts)
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	var h http.Handler = rt.Handler()
	if obs != nil {
		h = obs.routerMW(h)
	}
	if f.url, err = f.listen(h); err != nil {
		f.close()
		return nil, err
	}
	n := runtime.NumCPU() // at most nproc client connections
	f.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}}
	return f, nil
}

func (f *fleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.https {
		_ = s.Close()
	}
	f.serving.Wait()
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
}

// routerHealth reads the router's /healthz ledger.
func (f *fleet) routerHealth() (status string, retries, passthroughs int64, err error) {
	resp, err := f.client.Get(f.url + "/healthz")
	if err != nil {
		return "", 0, 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Status       string `json:"status"`
		Retries      int64  `json:"retries"`
		Passthroughs int64  `json:"passthroughs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return "", 0, 0, err
	}
	return h.Status, h.Retries, h.Passthroughs, nil
}

// warm sends every repeat-pool shape once and keeps the answers the
// later repeats must reproduce byte for byte.
func (f *fleet) warm(ctx context.Context, t *traffic) error {
	for i, r := range t.pool {
		s := f.send(ctx, r, time.Now(), fmt.Sprintf("warm%d", i))
		if s.err != nil {
			return fmt.Errorf("warming the repeat pool: %w", s.err)
		}
	}
	status, _, _, err := f.routerHealth()
	if err != nil {
		return err
	}
	if status != "ok" {
		return fmt.Errorf("router status %q after warm-up", status)
	}
	return nil
}

// sample is one answered (or failed) request.
type sample struct {
	req     *serveReq
	lag     time.Duration // send time minus due time
	latency time.Duration // completion minus due time
	body    []byte
	err     error
}

// send posts one request; the latency counts from due.
func (f *fleet) send(ctx context.Context, r *serveReq, due time.Time, trace string) sample {
	s := sample{req: r, lag: time.Since(due)}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+"/v1/check", bytes.NewReader(r.body))
	if err != nil {
		s.err = err
		return s
	}
	hreq.Header.Set("Content-Type", "application/json")
	var root int64
	if f.obs != nil {
		root = f.obs.tr.newID()
		hreq.Header.Set(hdrTrace, trace)
		hreq.Header.Set(hdrParent, strconv.FormatInt(root, 10))
		hreq.Header.Set(hdrClass, r.class)
	}
	sent := time.Now()
	resp, err := f.client.Do(hreq)
	if err == nil {
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(s.body))
		}
	}
	done := time.Now()
	s.err = err
	s.latency = done.Sub(due)
	if f.obs != nil {
		f.obs.tr.record(trace, root, 0, "client.request", sent, done)
	}
	if err == nil && r.class == "repeat" {
		f.firstsMu.Lock()
		if _, ok := f.firsts[r.key]; !ok {
			f.firsts[r.key] = s.body
		}
		f.firstsMu.Unlock()
	}
	return s
}

// drive plays a schedule open-loop: each request is sent when due,
// whatever is still outstanding. It returns the samples in schedule
// order once every request has completed.
func (f *fleet) drive(ctx context.Context, reqs []*serveReq, traceBase int) []sample {
	samples := make([]sample, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range reqs {
		due := start.Add(r.due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, r *serveReq, due time.Time) {
			defer wg.Done()
			samples[i] = f.send(ctx, r, due, fmt.Sprintf("req%d", traceBase+i))
		}(i, r, due)
	}
	wg.Wait()
	return samples
}

// ---------------------------------------------------------------------
// Oracle.

// expect computes the in-process answer for a request.
func expect(ctx context.Context, r *serveReq) ([]core.JSONRecord, error) {
	d, err := core.CompileVerilog(r.src, r.top)
	if err != nil {
		return nil, err
	}
	sess, err := d.NewSession(core.Options{MaxDepth: serveDepth, UseInduction: true})
	if err != nil {
		return nil, err
	}
	props, err := property.FromNames(d.Netlist(), r.invs, nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := core.EncodeRecords(&buf, sess.CheckAll(ctx, props, core.BatchOptions{Jobs: 1})); err != nil {
		return nil, err
	}
	return decodeRecords(buf.Bytes())
}

func decodeRecords(data []byte) ([]core.JSONRecord, error) {
	var recs []core.JSONRecord
	err := json.Unmarshal(data, &recs)
	return recs, err
}

// verdictView is a record without its timing and effort columns.
func verdictView(r core.JSONRecord) core.JSONRecord {
	r.ElapsedNs, r.Decisions, r.Conflicts, r.Implications, r.MemUnits = 0, 0, 0, 0, 0
	return r
}

// judge applies the oracle to every sample: it returns how many failed
// and a description of every wrong answer.
func judgeSamples(ctx context.Context, f *fleet, samples []sample) (failed int, wrong []string, err error) {
	want := map[string][]core.JSONRecord{}
	var todo []*serveReq
	for _, s := range samples {
		if s.err == nil && s.req.class != "repeat" {
			if _, ok := want[s.req.key]; !ok {
				want[s.req.key] = nil
				todo = append(todo, s.req)
			}
		}
	}
	// Compute the expectations on two workers, after the measured
	// phases, so the oracle never competes with the system under test.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	next := make(chan *serveReq)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				recs, err := expect(ctx, r)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("oracle for %s: %w", r.class, err)
				}
				want[r.key] = recs
				mu.Unlock()
			}
		}()
	}
	for _, r := range todo {
		next <- r
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return 0, nil, firstErr
	}
	for i, s := range samples {
		if s.err != nil {
			failed++
			continue
		}
		if s.req.class == "repeat" {
			if first := f.firsts[s.req.key]; !bytes.Equal(first, s.body) {
				wrong = append(wrong, fmt.Sprintf("request %d (repeat): response differs from the first answer", i))
			}
			continue
		}
		got, err := decodeRecords(s.body)
		if err != nil {
			wrong = append(wrong, fmt.Sprintf("request %d (%s): %v", i, s.req.class, err))
			continue
		}
		if hasFailedVerdict(got) {
			failed++
			continue
		}
		if msg := compareRecords(got, want[s.req.key]); msg != "" {
			wrong = append(wrong, fmt.Sprintf("request %d (%s): %s", i, s.req.class, msg))
		}
	}
	return failed, wrong, nil
}

// hasFailedVerdict reports an unknown or error record: a failed
// operation rather than a wrong answer.
func hasFailedVerdict(recs []core.JSONRecord) bool {
	for _, rec := range recs {
		if rec.Verdict == core.VerdictUnknown.String() || rec.Verdict == core.VerdictError.String() {
			return true
		}
	}
	return false
}

// compareRecords reports the first difference between two record
// lists, ignoring elapsed_ns and the effort counters. The counters of
// an ATPG run depend on logic outside the property's cone (initial
// values propagate through every lane), while the verdict cache keys
// on the cone alone: a replayed record carries the counters of
// whichever design first had that cone, so only a fresh run on a
// never-cached cone could be compared on them.
func compareRecords(got, want []core.JSONRecord) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if verdictView(got[i]) != verdictView(want[i]) {
			return fmt.Sprintf("record %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}

// ---------------------------------------------------------------------
// The end-to-end run.

// serveSetup starts a fleet and warms the repeat pool.
func serveSetup(ctx context.Context, t *traffic, obs *serveObserver) (*fleet, time.Duration, error) {
	start := time.Now()
	f, err := startFleet(obs)
	if err != nil {
		return nil, 0, err
	}
	if err := f.warm(ctx, t); err != nil {
		f.close()
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

// latencyMs returns the latencies of successful samples; failed ones
// count as infinitely slow, so they miss every limit.
func latencyMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.latency)
		if s.err != nil {
			out[i] = 1e9
		}
	}
	return out
}

// rungResult is one rate of the ladder.
type rungResult struct {
	rate float64
	p99  float64
}

// climb runs the ladder until a rung's p99 misses the SLO and
// interpolates the rate at which p99 crosses it. Latency counts from
// each request's due time until its answer, so a backlog that grows
// during a rung shows up in that rung's p99.
func climb(ctx context.Context, f *fleet, t *traffic, base rungResult, rungTime time.Duration, traceBase int) (float64, []sample, error) {
	var all []sample
	last := base
	for _, rate := range ladder {
		reqs, err := t.schedule(int(rate*rungTime.Seconds()), rate)
		if err != nil {
			return 0, nil, err
		}
		samples := f.drive(ctx, reqs, traceBase+len(all))
		all = append(all, samples...)
		r := rungResult{rate: rate, p99: quantile(latencyMs(samples), 0.99)}
		if r.p99 > sloMs {
			return interpolate(last, r), all, nil
		}
		last = r
	}
	return last.rate, all, nil
}

// interpolate finds where p99 crosses the SLO between the last passing
// rung a and the first failing rung b (0 when even a failed).
func interpolate(a, b rungResult) float64 {
	if a.p99 > sloMs {
		return 0
	}
	return a.rate + (sloMs-a.p99)/(b.p99-a.p99)*(b.rate-a.rate)
}

// serveEndToEnd is the untraced serve-mix run.
func serveEndToEnd(ctx context.Context, seed int64, dur time.Duration) (outcome, error) {
	out := outcome{m: metrics{}}
	t, err := newTraffic(seed)
	if err != nil {
		return out, err
	}
	var setups []float64
	var f *fleet
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.close()
		}
		var d time.Duration
		if f, d, err = serveSetup(ctx, t, nil); err != nil {
			return out, err
		}
		setups = append(setups, d.Seconds())
	}
	defer f.close()
	reqs, err := t.schedule(int(baseRate*dur.Seconds()), baseRate)
	if err != nil {
		return out, err
	}
	samples := f.drive(ctx, reqs, 0)
	lat := latencyMs(samples)
	base := rungResult{rate: baseRate, p99: quantile(lat, 0.99)}
	rungTime := time.Duration(rungShare * float64(dur))
	maxRate, rungs, err := climb(ctx, f, t, base, rungTime, len(samples))
	if err != nil {
		return out, err
	}
	all := append(samples, rungs...)
	failed, wrong, err := judgeSamples(ctx, f, all)
	if err != nil {
		return out, err
	}
	out.attempted, out.failed, out.wrong = len(all), failed, wrong
	out.m.set("setup_s", median(setups))
	out.m.set("ops_per_s", maxRate)
	out.m.set("op_gmean_ms", geomean(lat))
	out.m.set("op_tail_ms", quantile(lat, tailQ))
	return out, nil
}
