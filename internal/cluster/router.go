// Package cluster is the multi-replica serving layer: a scatter/gather
// router that shards a /v1/check batch across N assertd replicas and
// survives every failure mode the fleet can exhibit.
//
// Routing is by consistent hash of the design's content fingerprint:
// the ring walk from that point gives a stable primary-plus-failover
// ordering per design, so each replica's LRU design cache stays hot
// for its shard of the design space. The batch's properties are split
// round-robin across the routable walk members and dispatched
// concurrently; the per-property records come back input-ordered and,
// because replica record metrics are deterministic and batch records
// zero the memstats columns, the reassembled response is byte-identical
// to a single-node `assertcheck -json` run modulo elapsed_ns.
//
// Failure handling is layered: per-replica health checking drives ring
// membership (a draining replica leaves the ring before its SIGTERM
// shutdown completes, a dead one after failThreshold missed polls);
// 429/503 shed responses are retried on the same replica honoring
// Retry-After with exponential backoff + jitter as the fallback;
// connection failures and 5xx move the whole shard to the next ring
// member, feeding a per-replica circuit breaker (closed/open/half-open)
// so a dead or panicking replica stops absorbing attempts. A replica is
// routable while its health state is healthy and its breaker is not
// open inside its cooldown; the candidate lists, Healthy and /healthz
// all apply that one rule. A replica killed mid-batch costs its shard a
// failover, so no property is lost and none is answered twice.
//
// The internal/faultinject route.dial and route.response points fire
// inside the router's dispatch path: an injected error there is a
// failed dial or a failed body read, which the router fails over like
// any other, so failover is testable without a real network partition.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/service"
)

// Fixed routing parameters.
const (
	// vnodes is the number of ring points per replica.
	vnodes = 64
	// maxAttempts bounds how many replicas one shard is offered to.
	maxAttempts = 3
	// retrySame bounds how many times a 429/503 answer is retried on
	// the same replica.
	retrySame = 2
	// baseBackoff seeds the exponential backoff used when a shed answer
	// carries no Retry-After; maxBackoff caps its growth. maxRetryAfter
	// caps how long a replica's own hint is honored, so a confused
	// replica cannot park the router.
	baseBackoff   = 25 * time.Millisecond
	maxBackoff    = time.Second
	maxRetryAfter = 5 * time.Second
	// healthTimeout bounds one /healthz poll. failThreshold consecutive
	// failed polls mark a replica down; riseThreshold consecutive good
	// ones bring it back.
	healthTimeout = 2 * time.Second
	failThreshold = 2
	riseThreshold = 2
	// A breaker opens once it holds breakerMinSamples outcomes of its
	// breakerWindow and at least breakerThreshold of them failed; it
	// admits a half-open probe breakerCooldown later.
	breakerWindow     = 16
	breakerThreshold  = 0.5
	breakerMinSamples = 4
	breakerCooldown   = 2 * time.Second
	// maxBodyBytes caps the replica answers the router reads.
	maxBodyBytes = 4 << 20
)

// Options configures the router.
type Options struct {
	// Replicas are the assertd base URLs (e.g. http://10.0.0.1:8545).
	Replicas []string
	// ScatterMin is the small-batch passthrough threshold: a batch with
	// fewer properties than this routes whole to the design's primary
	// replica instead of sharding (0 = always shard). Scattering a tiny
	// batch buys no parallelism and pays per-sub-request overhead — the
	// PR 7 smoke-batch regression — so routers set this to skip the
	// scatter/gather machinery when there is nothing to parallelize.
	// Failover and shed-retry still apply to the whole batch.
	ScatterMin int
	// HealthInterval is the /healthz poll period (0 = 500ms).
	HealthInterval time.Duration
	// EnableFaults turns on the X-Fault-Inject request header
	// (degradation testing only), including the route.* points fired
	// inside the router's dispatch path.
	EnableFaults bool
	// Version is the build identifier /healthz reports (optional).
	Version string
	// Client overrides the HTTP client used for sub-requests and
	// health polls (nil = a zero http.Client).
	Client *http.Client
}

// membership is one immutable generation of the replica set: the ring
// layout plus the replica structs in ring-member order. Lookups load
// the current generation atomically; SetReplicas swaps in a new one,
// so in-flight shards keep dispatching against the generation they
// started with while new batches see the updated ring.
type membership struct {
	ring     *ring
	replicas []*replica
}

// Router scatters check batches over the replica fleet and gathers
// byte-identical responses. Construct with New, stop with Close. The
// replica set is dynamic: SetReplicas (assertrouter wires it to
// SIGHUP) adds and removes replicas without a restart.
type Router struct {
	opts    Options
	client  *http.Client
	started time.Time

	// mem is the current membership generation; memMu serializes
	// writers (SetReplicas), readers go through mem.Load().
	mem   atomic.Pointer[membership]
	memMu sync.Mutex

	baseCtx  context.Context
	done     chan struct{}
	closeone sync.Once
	wg       sync.WaitGroup
	draining atomic.Bool

	// Counters for the router's own /healthz.
	served    atomic.Int64 // merged 200 responses
	failed    atomic.Int64 // batches answered with a routing error
	retries   atomic.Int64 // shed-retry attempts (Retry-After honored)
	failovers atomic.Int64 // shards moved off a failed replica

	passthroughs atomic.Int64 // small batches routed whole (ScatterMin)
}

// New builds a router over the replica set and starts its health
// monitors. Replicas start healthy (optimistically routable); the
// monitors and the breakers correct that within failThreshold polls of
// a dead backend.
func New(opts Options) (*Router, error) {
	if opts.HealthInterval == 0 {
		opts.HealthInterval = 500 * time.Millisecond
	}
	if opts.EnableFaults {
		faultinject.Activate()
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	rt := &Router{
		opts:    opts,
		client:  client,
		started: time.Now(),
		baseCtx: context.Background(),
		done:    make(chan struct{}),
	}
	if _, _, err := rt.SetReplicas(opts.Replicas); err != nil {
		return nil, err
	}
	return rt, nil
}

// SetReplicas swaps the replica set to urls (diffed by URL) and
// reports how many replicas were added and removed. Kept replicas
// carry their breaker and health state across the swap; added ones
// start healthy with a fresh monitor; removed ones leave the ring for
// new batches immediately while their structs stay alive, so shards
// already dispatched against the old membership finish undisturbed
// (their monitors stop — a removed replica's last-known state is
// frozen, which only matters until those shards drain). An empty or
// all-duplicate url list is rejected and the current membership stays.
func (rt *Router) SetReplicas(urls []string) (added, removed int, err error) {
	deduped := make([]string, 0, len(urls))
	seen := make(map[string]bool, len(urls))
	for _, u := range urls {
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		deduped = append(deduped, u)
	}
	if len(deduped) == 0 {
		return 0, 0, errors.New("cluster: no replicas configured")
	}
	rt.memMu.Lock()
	defer rt.memMu.Unlock()
	existing := map[string]*replica{}
	if old := rt.mem.Load(); old != nil {
		for _, rep := range old.replicas {
			existing[rep.url] = rep
		}
	}
	next := &membership{ring: newRing(deduped, vnodes)}
	for _, u := range deduped {
		if rep, ok := existing[u]; ok {
			next.replicas = append(next.replicas, rep)
			delete(existing, u)
			continue
		}
		rep := &replica{
			url:  u,
			stop: make(chan struct{}),
			brk:  newBreaker(breakerWindow, breakerThreshold, breakerMinSamples, breakerCooldown),
		}
		next.replicas = append(next.replicas, rep)
		added++
		rt.wg.Add(1)
		go rt.monitor(rep)
	}
	rt.mem.Store(next)
	for _, rep := range existing {
		close(rep.stop)
		removed++
	}
	return added, removed, nil
}

// Replicas returns the current membership's URLs in ring-member order.
func (rt *Router) Replicas() []string {
	mem := rt.mem.Load()
	out := make([]string, len(mem.replicas))
	for i, rep := range mem.replicas {
		out[i] = rep.url
	}
	return out
}

// Close stops the health monitors.
func (rt *Router) Close() {
	rt.closeone.Do(func() { close(rt.done) })
	rt.wg.Wait()
}

// BeginDrain flips the router into draining: new batches are refused
// with 503. One-way; assertrouter follows it with http.Server.Shutdown.
func (rt *Router) BeginDrain() { rt.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// Healthy returns how many replicas are currently routable.
func (rt *Router) Healthy() int {
	n := 0
	for _, rep := range rt.mem.Load().replicas {
		if rep.routable() {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------
// Scatter/gather.

// propRef is one property of the client batch: its name, kind and its
// index in the input-ordered response.
type propRef struct {
	name    string
	witness bool
	idx     int
}

// orderedProps flattens a request's property lists in response order
// (invariants first, then witnesses — the order FromNames and the
// record array use).
func orderedProps(req *service.CheckRequest) []propRef {
	props := make([]propRef, 0, len(req.Invariants)+len(req.Witnesses))
	for _, n := range req.Invariants {
		props = append(props, propRef{name: n, idx: len(props)})
	}
	for _, n := range req.Witnesses {
		props = append(props, propRef{name: n, witness: true, idx: len(props)})
	}
	return props
}

// shardRequest builds the sub-request for one shard: the same design
// and batch options, the shard's property subset. The shard's records
// come back in its own input order — invariants then witnesses — which
// is exactly the order the shard slice is kept in.
func shardRequest(base *service.CheckRequest, shard []propRef) *service.CheckRequest {
	sub := *base
	sub.Invariants = nil
	sub.Witnesses = nil
	for _, p := range shard {
		if p.witness {
			sub.Witnesses = append(sub.Witnesses, p.name)
		} else {
			sub.Invariants = append(sub.Invariants, p.name)
		}
	}
	return &sub
}

// errNoReplicas is returned when no routable replica remains.
var errNoReplicas = errors.New("cluster: no healthy replicas")

// permanentError is a replica answer that must not be retried (the
// request itself is bad); the router replays its status and body to
// the client verbatim.
type permanentError struct {
	status int
	body   []byte
}

func (e *permanentError) Error() string {
	return fmt.Sprintf("replica answered %d: %s", e.status, bytes.TrimSpace(e.body))
}

// shedError is a 429/503 answer: the replica is alive but refusing
// work right now; retryAfter carries its hint (0 = none).
type shedError struct {
	status     int
	retryAfter time.Duration
}

func (e *shedError) Error() string {
	return fmt.Sprintf("replica shedding (status %d, retry-after %v)", e.status, e.retryAfter)
}

// Check scatters the batch, gathers the per-property records in input
// order and reports the aggregated design-cache disposition ("hit"
// when every shard hit its replica's compiled-design cache). The
// returned error is either a *permanentError (replay to the client),
// errNoReplicas, or a transport-level routing failure.
func (rt *Router) Check(ctx context.Context, req *service.CheckRequest) ([]core.JSONRecord, string, error) {
	props := orderedProps(req)
	cands := rt.candidates(core.Fingerprint(req.Design, req.Top))
	if len(cands) == 0 {
		return nil, "", errNoReplicas
	}
	n := len(cands)
	if n > len(props) {
		n = len(props)
	}
	// Small-batch passthrough: below the scatter threshold the whole
	// batch goes to the primary (shard 0's candidate walk starts at the
	// ring primary, so this is exactly the single-replica route).
	if rt.opts.ScatterMin > 0 && len(props) < rt.opts.ScatterMin && n > 1 {
		n = 1
		rt.passthroughs.Add(1)
	}
	// Dealing the response-ordered props round-robin keeps each shard
	// in response order too, which is the order its records come back.
	shards := make([][]propRef, n)
	for i, p := range props {
		shards[i%n] = append(shards[i%n], p)
	}

	records := make([]core.JSONRecord, len(props))
	answered := make([]int, len(props))
	allHit := true
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for k, shard := range shards {
		shard := shard // go.mod is go 1.21: loop variables are shared
		// Rotate the candidate walk so shard k's primary is the k-th
		// ring member; failover candidates follow in ring order.
		order := make([]*replica, 0, len(cands))
		for i := 0; i < len(cands); i++ {
			order = append(order, cands[(k+i)%len(cands)])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs, hit, err := rt.dispatch(ctx, req, shard, order)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			if !hit {
				allHit = false
			}
			for j, p := range shard {
				records[p.idx] = recs[j]
				answered[p.idx]++
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		rt.failed.Add(1)
		return nil, "", firstErr
	}
	// The no-lost-no-duplicate invariant: every property answered
	// exactly once, whatever failovers happened above.
	for i, n := range answered {
		if n != 1 {
			rt.failed.Add(1)
			return nil, "", fmt.Errorf("cluster: property %q answered %d times", props[i].name, n)
		}
	}
	rt.served.Add(1)
	disposition := "miss"
	if allHit {
		disposition = "hit"
	}
	return records, disposition, nil
}

// candidates returns the routable replicas for a design hash in ring
// order. The whole walk happens against one membership generation, so
// a concurrent SetReplicas cannot hand back a mixed candidate list.
func (rt *Router) candidates(hash string) []*replica {
	mem := rt.mem.Load()
	walk := mem.ring.Walk(hash, func(m int) bool { return mem.replicas[m].routable() })
	out := make([]*replica, len(walk))
	for i, m := range walk {
		out[i] = mem.replicas[m]
	}
	return out
}

// dispatch delivers one shard along its candidate list: the first
// candidate whose breaker admits an attempt gets the whole shard, and a
// hard failure moves the whole shard to the next candidate, up to
// maxAttempts replicas. It returns the shard's records in shard order.
func (rt *Router) dispatch(ctx context.Context, base *service.CheckRequest, shard []propRef, cands []*replica) ([]core.JSONRecord, bool, error) {
	var lastErr error
	attempts := 0
	for _, rep := range cands {
		if attempts >= maxAttempts {
			break
		}
		// routable re-checks state that may have moved since the list
		// was built; Allow admits at most one half-open probe.
		if !rep.routable() || !rep.brk.Allow() {
			continue
		}
		attempts++
		if attempts > 1 {
			rt.failovers.Add(1)
		}
		recs, hit, err := rt.attemptWithShedRetry(ctx, base, shard, rep)
		if err == nil {
			return recs, hit, nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return nil, false, err
		}
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errNoReplicas
	}
	return nil, false, fmt.Errorf("cluster: shard undeliverable after %d attempts: %w", attempts, lastErr)
}

// attemptWithShedRetry sends the shard to one replica, retrying shed
// answers (429/503) on the same replica up to retrySame times. The
// sleep between retries honors the replica's Retry-After hint (capped
// by maxRetryAfter); without a hint it falls back to exponential
// backoff. Full jitter on both keeps a recovering fleet from being
// re-flooded in lockstep.
func (rt *Router) attemptWithShedRetry(ctx context.Context, base *service.CheckRequest, shard []propRef, rep *replica) ([]core.JSONRecord, bool, error) {
	var lastErr error
	for try := 0; try <= retrySame; try++ {
		if try > 0 {
			rt.retries.Add(1)
		}
		recs, hit, err := rt.attempt(ctx, base, shard, rep)
		if err == nil {
			return recs, hit, nil
		}
		lastErr = err
		var shed *shedError
		if !errors.As(err, &shed) {
			return nil, false, err
		}
		if try == retrySame {
			break
		}
		wait := shed.retryAfter
		if wait <= 0 {
			wait = baseBackoff << uint(try)
		}
		if wait > maxRetryAfter {
			wait = maxRetryAfter
		}
		if wait > maxBackoff && shed.retryAfter <= 0 {
			wait = maxBackoff
		}
		// Full jitter: sleep U(wait/2, wait) so synchronized retries
		// decorrelate.
		wait = wait/2 + time.Duration(rand.Int63n(int64(wait/2)+1))
		if err := sleepCtx(ctx, wait); err != nil {
			return nil, false, err
		}
	}
	return nil, false, lastErr
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// attempt performs one sub-request to one replica and classifies the
// outcome: records on 200, *shedError on 429/503, *permanentError on
// other 4xx, plain error (breaker-feeding) on transport failures and
// 5xx. The faultinject route.dial and route.response points fire here.
func (rt *Router) attempt(ctx context.Context, base *service.CheckRequest, shard []propRef, rep *replica) ([]core.JSONRecord, bool, error) {
	if err := faultinject.Fire(ctx, faultinject.PointRouteDial); err != nil {
		// A failed dial: nothing was sent, the breaker records a hard
		// failure, the shard is free to go elsewhere.
		rep.brk.Record(false)
		return nil, false, fmt.Errorf("dial %s: %w", rep.url, err)
	}
	sub := shardRequest(base, shard)
	body, err := json.Marshal(sub)
	if err != nil {
		rep.brk.Release()
		return nil, false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/v1/check", bytes.NewReader(body))
	if err != nil {
		rep.brk.Release()
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// A cancelled attempt (deadline, or a client that went away)
			// says nothing about the replica — don't charge its breaker.
			rep.brk.Release()
			return nil, false, ctx.Err()
		}
		rep.brk.Record(false)
		return nil, false, fmt.Errorf("post %s: %w", rep.url, err)
	}
	defer resp.Body.Close()

	switch {
	case resp.StatusCode == http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		if err == nil {
			err = faultinject.Fire(ctx, faultinject.PointRouteResponse)
		}
		if err != nil {
			if ctx.Err() != nil {
				rep.brk.Release()
				return nil, false, ctx.Err()
			}
			rep.brk.Record(false)
			return nil, false, fmt.Errorf("read %s: %w", rep.url, err)
		}
		var recs []core.JSONRecord
		if err := json.Unmarshal(data, &recs); err != nil {
			rep.brk.Record(false)
			return nil, false, fmt.Errorf("decode %s: %w", rep.url, err)
		}
		if err := validateShardRecords(shard, recs); err != nil {
			rep.brk.Record(false)
			return nil, false, fmt.Errorf("%s: %w", rep.url, err)
		}
		rep.brk.Record(true)
		return recs, resp.Header.Get("X-Design-Cache") == "hit", nil

	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		// Flow control, not failure: the replica is alive and telling
		// us when to come back. Deliberately not a breaker outcome.
		rep.brk.Release()
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		var ra time.Duration
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
			ra = time.Duration(secs) * time.Second
		}
		return nil, false, &shedError{status: resp.StatusCode, retryAfter: ra}

	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		// The request itself is bad — retrying elsewhere would just
		// fail again; replay the replica's answer to the client.
		rep.brk.Release()
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, false, &permanentError{status: resp.StatusCode, body: data}

	default:
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		rep.brk.Record(false)
		return nil, false, fmt.Errorf("%s answered %d: %s", rep.url, resp.StatusCode, bytes.TrimSpace(data))
	}
}

// validateShardRecords checks a replica's answer against the shard
// that was asked: exactly one record per property, names in shard
// order. Anything else means the response cannot be merged and the
// shard must be re-fetched.
func validateShardRecords(shard []propRef, recs []core.JSONRecord) error {
	if len(recs) != len(shard) {
		return fmt.Errorf("cluster: shard of %d properties answered with %d records", len(shard), len(recs))
	}
	for j, p := range shard {
		if recs[j].Property != p.name {
			return fmt.Errorf("cluster: record %d is %q, want %q", j, recs[j].Property, p.name)
		}
	}
	return nil
}
