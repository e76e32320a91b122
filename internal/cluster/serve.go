// The router's own HTTP surface: the same POST /v1/check API assertd
// serves (so clients cannot tell a router from a single replica), plus
// a GET /healthz that aggregates the fleet — per-replica state,
// breaker position and capacity/ledger snapshot alongside the router's
// own routing counters.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/service"
)

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/check", service.Recovering(rt.handleCheck))
	mux.HandleFunc("/healthz", rt.handleHealth)
	return mux
}

func (rt *Router) handleCheck(w http.ResponseWriter, r *http.Request) {
	// Only structural validation here; everything design-specific
	// (signal names, depth caps) is the replicas' call and replays back
	// through the permanentError path.
	req := service.DecodeCheck(w, r)
	if req == nil {
		return
	}
	if rt.Draining() {
		service.WriteOverloaded(w, http.StatusServiceUnavailable, "draining: not accepting new work")
		return
	}
	ctx := r.Context()
	if rt.opts.EnableFaults {
		if spec := r.Header.Get("X-Fault-Inject"); spec != "" {
			set, err := faultinject.Parse(spec)
			if err != nil {
				service.WriteError(w, http.StatusBadRequest, "%v", err)
				return
			}
			ctx = faultinject.WithSet(ctx, set)
		}
	}

	records, disposition, err := rt.Check(ctx, req)
	if err != nil {
		var perm *permanentError
		switch {
		case errors.As(err, &perm):
			// Replay the replica's verdict on the request verbatim.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(perm.status)
			_, _ = w.Write(perm.body)
		case errors.Is(err, errNoReplicas):
			service.WriteOverloaded(w, http.StatusServiceUnavailable, "%v", err)
		default:
			service.WriteError(w, http.StatusBadGateway, "routing failed: %v", err)
		}
		return
	}
	var buf bytes.Buffer
	if err := core.EncodeJSONRecords(&buf, records); err != nil {
		service.WriteError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Design-Cache", disposition)
	_, _ = w.Write(buf.Bytes())
}

// routerHealth is the router's /healthz body.
type routerHealth struct {
	Status    string          `json:"status"`
	Version   string          `json:"version,omitempty"`
	UptimeS   float64         `json:"uptime_s"`
	Healthy   int             `json:"healthy"`
	Replicas  []replicaReport `json:"replicas"`
	Served    int64           `json:"served"`
	Failed    int64           `json:"failed"`
	Retries   int64           `json:"retries"`
	Failovers int64           `json:"failovers"`
	// Passthroughs counts batches routed whole to their primary because
	// they were below the ScatterMin threshold.
	Passthroughs int64 `json:"passthroughs"`
}

type replicaReport struct {
	URL      string  `json:"url"`
	State    string  `json:"state"`
	Breaker  string  `json:"breaker"`
	Version  string  `json:"version,omitempty"`
	UptimeS  float64 `json:"uptime_s"`
	InFlight int     `json:"in_flight"`
	Queued   int     `json:"queued"`
	Served   int64   `json:"served"`
	Shed     int64   `json:"shed"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	mem := rt.mem.Load()
	h := routerHealth{
		Version:      rt.opts.Version,
		UptimeS:      time.Since(rt.started).Seconds(),
		Healthy:      rt.Healthy(),
		Served:       rt.served.Load(),
		Failed:       rt.failed.Load(),
		Retries:      rt.retries.Load(),
		Failovers:    rt.failovers.Load(),
		Passthroughs: rt.passthroughs.Load(),
	}
	switch {
	case rt.Draining():
		h.Status = "draining"
	case h.Healthy == 0:
		h.Status = "unavailable"
	case h.Healthy < len(mem.replicas):
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	for _, rep := range mem.replicas {
		rr := replicaReport{
			URL:     rep.url,
			State:   rep.State().String(),
			Breaker: rep.brk.State().String(),
		}
		if snap := rep.last.Load(); snap != nil {
			rr.Version = snap.Version
			rr.UptimeS = snap.UptimeS
			rr.InFlight = snap.InFlight
			rr.Queued = snap.Queued
			rr.Served = snap.Served
			rr.Shed = snap.Shed
		}
		h.Replicas = append(h.Replicas, rr)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(h)
}
