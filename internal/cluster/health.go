// Replica health tracking. Each replica is polled on its /healthz
// endpoint: an "ok" answer keeps (or, after riseThreshold consecutive
// successes, puts back) the replica in the ring; a "draining" answer
// removes it immediately — a draining assertd refuses new work with
// 503, so routing to it only wastes a round trip while its SIGTERM
// shutdown completes; failThreshold consecutive poll failures mark it
// down. The poll also snapshots the replica's in-flight/queued depth
// and served/shed ledger for the router's own /healthz, so one request
// to the router shows the whole fleet.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

type replicaState int32

const (
	stateHealthy replicaState = iota
	stateDraining
	stateDown
)

func (s replicaState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateDraining:
		return "draining"
	case stateDown:
		return "down"
	}
	return "unknown"
}

// replicaHealth is the subset of the assertd /healthz body the router
// reads: liveness status, build identity/uptime, plus the load/ledger
// fields re-exposed on the router's own health endpoint.
type replicaHealth struct {
	Status   string  `json:"status"`
	Version  string  `json:"version"`
	UptimeS  float64 `json:"uptime_s"`
	InFlight int     `json:"in_flight"`
	Queued   int     `json:"queued"`
	Served   int64   `json:"served"`
	Shed     int64   `json:"shed"`
}

// replica is one assertd backend: its routing state, its circuit
// breaker, and the last health snapshot.
type replica struct {
	url   string
	state atomic.Int32
	brk   *breaker
	// stop ends this replica's monitor when it leaves the membership
	// (the struct itself stays alive for in-flight shards).
	stop chan struct{}
	// monitor-goroutine-local streak counters.
	consecFail int
	consecOK   int
	// last successful health snapshot (nil until the first poll).
	last atomic.Pointer[replicaHealth]
}

func (r *replica) State() replicaState     { return replicaState(r.state.Load()) }
func (r *replica) setState(s replicaState) { r.state.Store(int32(s)) }

// routable reports whether new shards may target this replica: its
// health state is healthy and its breaker is not open inside the
// cooldown. Candidate lists, Healthy and /healthz all use this rule.
func (r *replica) routable() bool { return r.State() == stateHealthy && !r.brk.coolingDown() }

// pollOnce performs one health probe and applies the state machine.
func (rt *Router) pollOnce(ctx context.Context, rep *replica) {
	hctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	h, err := fetchHealth(hctx, rt.client, rep.url)
	if err != nil {
		rep.consecOK = 0
		rep.consecFail++
		if rep.consecFail >= failThreshold {
			rep.setState(stateDown)
		}
		return
	}
	rep.last.Store(h)
	if h.Status == "draining" {
		// One draining answer is authoritative: the replica itself
		// promises to refuse new work, so take it out of the ring at
		// once rather than waiting out a threshold.
		rep.consecFail, rep.consecOK = 0, 0
		rep.setState(stateDraining)
		return
	}
	rep.consecFail = 0
	rep.consecOK++
	if rep.State() != stateHealthy && rep.consecOK >= riseThreshold {
		rep.setState(stateHealthy)
	}
}

func fetchHealth(ctx context.Context, client *http.Client, base string) (*replicaHealth, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	var h replicaHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

// monitor polls one replica until the router closes or the replica is
// removed from the membership.
func (rt *Router) monitor(rep *replica) {
	defer rt.wg.Done()
	t := time.NewTicker(rt.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.done:
			return
		case <-rep.stop:
			return
		case <-t.C:
			rt.pollOnce(rt.baseCtx, rep)
		}
	}
}
