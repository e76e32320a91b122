// Package service is the assertd serving layer: a long-lived HTTP/JSON
// front end over the core batch API — the first serving surface toward
// the production-scale checker the ROADMAP aims at. A request carries a
// design (Verilog source + top module) and a property list (named
// one-bit signals); the response is the exact input-ordered record
// array `assertcheck -json` prints, byte-for-byte, so CLI consumers
// and service consumers share one schema.
//
// Designs are compiled once and cached by content hash across
// requests: the first request for a design pays parse → elaborate →
// design compilation, every later request (any property set, any
// engine) goes straight to session setup, and the Design's per-engine
// caches (BMC frame template, BDD model snapshot, ATPG prep) are
// likewise shared across all concurrent requests. Compilation is
// singleflighted per hash — concurrent first requests block on one
// build rather than duplicating it. The cache is LRU-bounded
// (Options.DesignCacheEntries) so a server fed unbounded distinct
// designs stays flat; evicted designs recompile on re-request.
//
// The serving path degrades instead of falling over: admission control
// bounds concurrent checks and the waiting room in front of them
// (excess load is shed with 429 + Retry-After), every request runs
// under a deadline (server default + per-request override) whose
// expiry surfaces as unknown-verdict records rather than a dropped
// connection, engine panics degrade to attributed error records
// (core's batch isolation), and a draining server answers 503 while
// in-flight work completes. The internal/faultinject points (compile,
// session, each engine, encode) let the degradation suite and the CI
// degrade-smoke job prove all of this end to end.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bmc"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/lru"
	"repro/internal/mc"
	"repro/internal/persist"
	"repro/internal/property"
)

const (
	// maxBodyBytes caps a request body. retryAfter is the hint sent
	// with 429/503 responses.
	maxBodyBytes = 4 << 20
	retryAfter   = time.Second
)

// Options tunes the server.
type Options struct {
	// MaxJobs caps the per-request worker-pool size (0 = 8). A request
	// asking for more jobs is clamped, not rejected.
	MaxJobs int
	// MaxConcurrent caps how many check requests run at once
	// (0 = GOMAXPROCS). Requests beyond it wait in the admission queue.
	MaxConcurrent int
	// MaxQueue bounds the admission waiting room (0 = 4×MaxConcurrent).
	// A request arriving to a full queue is shed with 429 + Retry-After.
	MaxQueue int
	// MaxDepth caps the per-request frame bound (0 = 128). Absurd
	// depths are rejected with a 400 — depth drives memory and time
	// superlinearly, so it is the easiest way to poison a worker.
	MaxDepth int
	// DefaultTimeout bounds each request's whole check when the request
	// does not override it (0 = no default). Expiry surfaces as the
	// engines' unknown-verdict records, not a dropped connection.
	DefaultTimeout time.Duration
	// MaxTimeout clamps per-request timeout overrides — and, when set,
	// also bounds requests that asked for no timeout at all (0 = no
	// clamp).
	MaxTimeout time.Duration
	// DesignCacheEntries bounds the compiled-design cache (0 = 64,
	// < 0 = unbounded).
	DesignCacheEntries int
	// VerdictCacheEntries bounds the cone-keyed verdict cache (0 = the
	// core default 4096, < 0 = disabled). Cached records replay
	// byte-identically (the cache is transparent to every response
	// contract), so it is on by default.
	VerdictCacheEntries int
	// EnableFaults turns on the X-Fault-Inject request header (parsed
	// into request-scoped internal/faultinject rules). For degradation
	// testing only — never enable it on a production server.
	EnableFaults bool
	// StateDir, when non-empty, roots the crash-safe durable-state store
	// that keeps the verdict cache across restarts; with the verdict
	// cache disabled nothing is stored. An unopenable dir is reported by
	// StateError, not New.
	StateDir string
	// StateInterval is the periodic flush cadence (0 = 30s).
	StateInterval time.Duration
	// Version is the build identifier /healthz reports (optional).
	Version string
	// Logf receives serving-layer log lines (state recovery, flush
	// failures); nil discards.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxJobs == 0 {
		o.MaxJobs = 8
	}
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 4 * o.MaxConcurrent
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 128
	}
	if o.DesignCacheEntries == 0 {
		o.DesignCacheEntries = 64
	}
	if o.StateInterval == 0 {
		o.StateInterval = 30 * time.Second
	}
	return o
}

// CheckRequest is the POST /v1/check body.
type CheckRequest struct {
	// Design is the Verilog source text; Top names the top module.
	Design string `json:"design"`
	Top    string `json:"top"`
	// Invariants and Witnesses name one-bit signals: invariants must
	// always be 1, witnesses ask for a trace driving the signal to 1.
	// Results come back in input order, invariants first.
	Invariants []string `json:"invariants,omitempty"`
	Witnesses  []string `json:"witnesses,omitempty"`
	// Depth bounds the time frames (0 = 16; capped by the server's
	// MaxDepth, negative or over-cap values are rejected).
	Depth int `json:"depth,omitempty"`
	// Engine selects atpg (default), bmc, bdd or portfolio.
	Engine string `json:"engine,omitempty"`
	// Jobs is the worker-pool size for the batch (0 = 1; clamped to
	// the server's MaxJobs; negative values are rejected).
	Jobs int `json:"jobs,omitempty"`
	// NoInduction disables the k-induction upgrade (on by default, as
	// in the CLI).
	NoInduction bool `json:"no_induction,omitempty"`
	// TimeoutMs overrides the server's default request timeout in
	// milliseconds (0 = server default; clamped to the server's
	// MaxTimeout; negative values, and values too large for a
	// time.Duration, are rejected). Expired checks report verdict
	// "unknown" in their records, exactly like `assertcheck -timeout`.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// Server serves check requests over cached compiled designs. Safe for
// concurrent use; construct with New.
type Server struct {
	opts     Options
	designs  *lru.Cache[string, *designEntry]
	adm      *limiter
	draining atomic.Bool
	// served counts completed (200) check responses; drainShed counts
	// requests refused because the server was draining. Together with
	// the limiter's rejection counter they give operators — and the
	// cluster router's health checker — the cumulative request ledger,
	// not just the instantaneous gauges.
	served    atomic.Int64
	drainShed atomic.Int64
	started   time.Time
	logf      func(string, ...any)

	// Durable state (state.go): nil state = disabled. stateErr records
	// why a requested StateDir could not open.
	state    *persist.Store
	stateErr error

	// verdicts is the cone-keyed verdict cache (nil = disabled by
	// VerdictCacheEntries < 0). The implication counters feed /healthz:
	// spent sums freshly computed records, saved sums replayed ones —
	// the incremental-serving win, measurable because cached records
	// carry their original counts.
	verdicts        *core.VerdictCache
	vImplSpent      atomic.Int64
	vImplSaved      atomic.Int64
	lastVerdictMuts atomic.Int64

	// The last-flush telemetry /healthz reports.
	lastFlushNano atomic.Int64
	lastFlushErr  atomic.Pointer[string]
}

// designEntry singleflights one design compilation and caches the
// result while resident (the cache key is a content hash, so entries
// never go stale — only LRU eviction drops them). done flips only
// after the build finishes, so concurrent first requests that block on
// the singleflight are reported as misses, not hits.
type designEntry struct {
	once sync.Once
	done atomic.Bool
	d    *core.Design
	err  error
}

// New returns a server with an empty design cache. With StateDir set
// and the verdict cache on, it also opens the durable-state store and
// restores the verdict cache from it; an open failure is latched in
// StateError rather than returned, so callers decide whether a server
// without its state dir may run (assertd refuses).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	if opts.EnableFaults {
		faultinject.Activate()
	}
	cap := opts.DesignCacheEntries
	if cap < 0 {
		cap = 0 // lru: <=0 means unbounded
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		opts:    opts,
		designs: lru.New[string, *designEntry](cap),
		adm:     newLimiter(opts.MaxConcurrent, opts.MaxQueue),
		started: time.Now(),
		logf:    logf,
	}
	if opts.VerdictCacheEntries < 0 {
		return s
	}
	s.verdicts = core.NewVerdictCache(opts.VerdictCacheEntries)
	if opts.StateDir != "" {
		s.state, s.stateErr = persist.Open(opts.StateDir, verdictKind, verdictSnapKey, logf)
		if s.state != nil {
			s.restoreVerdicts()
		}
	}
	return s
}

// design returns the compiled design for a source, compiling it at
// most once per resident content-hash entry; hit reports whether a
// *finished* compile was already cached when the request arrived (for
// the X-Design-Cache response header and the serve-smoke CI check) — a
// request that blocks on another request's in-flight build is a miss.
func (s *Server) design(src, top string) (d *core.Design, hit bool, err error) {
	key := core.Fingerprint(src, top)
	e, loaded := s.designs.GetOrAdd(key, func() *designEntry { return new(designEntry) })
	hit = loaded && e.done.Load()
	e.once.Do(func() {
		e.d, e.err = core.CompileVerilog(src, top)
		e.done.Store(true)
	})
	return e.d, hit, e.err
}

// DesignCacheStats snapshots the design cache counters.
func (s *Server) DesignCacheStats() lru.Stats { return s.designs.Stats() }

// VerdictCacheStats snapshots the verdict cache counters (all zero
// when the cache is disabled).
func (s *Server) VerdictCacheStats() core.VerdictCacheStats {
	if s.verdicts == nil {
		return core.VerdictCacheStats{}
	}
	return s.verdicts.Stats()
}

// InFlight returns how many check requests currently hold a slot.
func (s *Server) InFlight() int { return s.adm.InFlight() }

// Queued returns how many check requests are waiting for a slot.
func (s *Server) Queued() int { return s.adm.Queued() }

// Rejected returns how many check requests were shed by admission.
func (s *Server) Rejected() int64 { return s.adm.Rejected() }

// Served returns how many check requests completed with a 200.
func (s *Server) Served() int64 { return s.served.Load() }

// Shed returns how many check requests were refused with 429 or 503:
// admission rejections (queue full, expired while queued) plus
// drain-time refusals.
func (s *Server) Shed() int64 { return s.adm.Rejected() + s.drainShed.Load() }

// BeginDrain flips the server into draining: new check requests are
// refused with 503 (queued and in-flight ones complete) and /healthz
// reports "draining". It is one-way; callers follow it with
// http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the HTTP handler: POST /v1/check, GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/check", Recovering(s.handleCheck))
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

// health is the /healthz body. The status and designs fields predate
// the robustness layer; the admission gauges and cache counters came
// with it; limits and the cumulative served/shed ledger exist so a
// router (or an operator) can see a replica's capacity envelope and
// traffic history, not just its instantaneous state.
type health struct {
	Status          string         `json:"status"`
	Version         string         `json:"version,omitempty"`
	UptimeS         float64        `json:"uptime_s"`
	Designs         int            `json:"designs"`
	DesignHits      int64          `json:"design_hits"`
	DesignMisses    int64          `json:"design_misses"`
	DesignEvictions int64          `json:"design_evictions"`
	InFlight        int            `json:"in_flight"`
	Queued          int            `json:"queued"`
	Rejected        int64          `json:"rejected"`
	Served          int64          `json:"served"`
	Shed            int64          `json:"shed"`
	Limits          healthLimits   `json:"limits"`
	State           healthState    `json:"state"`
	VerdictCache    healthVerdicts `json:"verdict_cache"`
}

// healthVerdicts is the /healthz verdict-cache block: residency, the
// hit/miss/store/eviction counters, and the implication ledger (spent
// = freshly computed across all requests, saved = replayed from cache)
// that quantifies the incremental-serving win.
type healthVerdicts struct {
	Enabled           bool  `json:"enabled"`
	Entries           int   `json:"entries"`
	Hits              int64 `json:"hits"`
	Misses            int64 `json:"misses"`
	Stores            int64 `json:"stores"`
	Evictions         int64 `json:"evictions"`
	ImplicationsSpent int64 `json:"implications_spent"`
	ImplicationsSaved int64 `json:"implications_saved"`
}

// verdictHealth snapshots the verdict-cache block for /healthz.
func (s *Server) verdictHealth() healthVerdicts {
	hv := healthVerdicts{
		ImplicationsSpent: s.vImplSpent.Load(),
		ImplicationsSaved: s.vImplSaved.Load(),
	}
	if s.verdicts == nil {
		return hv
	}
	st := s.verdicts.Stats()
	hv.Enabled = true
	hv.Entries = st.Entries
	hv.Hits = st.Hits
	hv.Misses = st.Misses
	hv.Stores = st.Stores
	hv.Evictions = st.Evictions
	return hv
}

// healthLimits is the replica's static capacity envelope: concurrency
// slots, waiting-room depth, the per-request caps.
type healthLimits struct {
	MaxConcurrent    int   `json:"max_concurrent"`
	MaxQueue         int   `json:"max_queue"`
	MaxJobs          int   `json:"max_jobs"`
	MaxDepth         int   `json:"max_depth"`
	DefaultTimeoutMs int64 `json:"default_timeout_ms"`
	MaxTimeoutMs     int64 `json:"max_timeout_ms"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.designs.Stats()
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(health{
		Status:          status,
		Version:         s.opts.Version,
		UptimeS:         time.Since(s.started).Seconds(),
		Designs:         st.Len,
		DesignHits:      st.Hits,
		DesignMisses:    st.Misses,
		DesignEvictions: st.Evictions,
		InFlight:        s.InFlight(),
		Queued:          s.Queued(),
		Rejected:        s.Rejected(),
		Served:          s.Served(),
		Shed:            s.Shed(),
		Limits: healthLimits{
			MaxConcurrent:    s.opts.MaxConcurrent,
			MaxQueue:         s.opts.MaxQueue,
			MaxJobs:          s.opts.MaxJobs,
			MaxDepth:         s.opts.MaxDepth,
			DefaultTimeoutMs: s.opts.DefaultTimeout.Milliseconds(),
			MaxTimeoutMs:     s.opts.MaxTimeout.Milliseconds(),
		},
		State:        s.stateHealth(),
		VerdictCache: s.verdictHealth(),
	})
}

// Recovering isolates handler panics (including injected ones at the
// compile/session points in panic mode): the connection gets a 500
// JSON error and the server keeps serving, instead of net/http killing
// the connection with an empty reply.
func Recovering(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				WriteError(w, http.StatusInternalServerError, "internal panic: %v", rec)
			}
		}()
		h(w, r)
	}
}

// WriteError sends a JSON error body with the given status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteOverloaded sends a structured overload response (429 while
// shedding, 503 while draining) with the Retry-After hint.
func WriteOverloaded(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
	WriteError(w, status, format, args...)
}

// DecodeCheck reads a POST /v1/check body: the method must be POST,
// the body at most maxBodyBytes of known fields, and the request must
// name a design, its top, at least one property and a known engine (or
// none). On any failure it answers the error itself and returns nil,
// before a request takes an admission slot or compiles its design.
// assertrouter answers through it and the writers above too, so a
// client cannot tell a router from a single replica by its errors.
func DecodeCheck(w http.ResponseWriter, r *http.Request) *CheckRequest {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return nil
	}
	var req CheckRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil
	}
	if req.Design == "" || req.Top == "" {
		WriteError(w, http.StatusBadRequest, "design and top are required")
		return nil
	}
	if len(req.Invariants)+len(req.Witnesses) == 0 {
		WriteError(w, http.StatusBadRequest, "need at least one invariant or witness")
		return nil
	}
	switch req.Engine {
	case "", core.EngineATPG, core.EngineBMC, core.EngineBDD, core.EnginePortfolio:
	default:
		WriteError(w, http.StatusBadRequest, "unknown engine %q", req.Engine)
		return nil
	}
	return &req
}

// maxTimeoutMs is the largest timeout_ms a time.Duration holds; a
// larger one would wrap to a short or negative deadline.
const maxTimeoutMs = math.MaxInt64 / int64(time.Millisecond)

// validate bounds the request's numeric fields; it returns a non-empty
// message on rejection.
func (s *Server) validate(req *CheckRequest) string {
	if req.Depth < 0 {
		return fmt.Sprintf("depth %d is negative", req.Depth)
	}
	if req.Depth > s.opts.MaxDepth {
		return fmt.Sprintf("depth %d exceeds the server cap %d", req.Depth, s.opts.MaxDepth)
	}
	if req.Jobs < 0 {
		return fmt.Sprintf("jobs %d is negative", req.Jobs)
	}
	if req.TimeoutMs < 0 {
		return fmt.Sprintf("timeout_ms %d is negative", req.TimeoutMs)
	}
	if req.TimeoutMs > maxTimeoutMs {
		return fmt.Sprintf("timeout_ms %d exceeds %d", req.TimeoutMs, maxTimeoutMs)
	}
	return ""
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	req := DecodeCheck(w, r)
	if req == nil {
		return
	}
	if msg := s.validate(req); msg != "" {
		WriteError(w, http.StatusBadRequest, "%s", msg)
		return
	}
	if s.Draining() {
		s.drainShed.Add(1)
		WriteOverloaded(w, http.StatusServiceUnavailable, "draining: not accepting new work")
		return
	}

	ctx := r.Context()
	// Fault-drilled requests bypass the verdict cache: injection points
	// live inside the engines, and a cache hit would skip them (the
	// degrade suite wants the failure, not last week's verdict).
	verdicts := s.verdicts
	if s.opts.EnableFaults {
		if spec := r.Header.Get("X-Fault-Inject"); spec != "" {
			set, err := faultinject.Parse(spec)
			if err != nil {
				WriteError(w, http.StatusBadRequest, "%v", err)
				return
			}
			ctx = faultinject.WithSet(ctx, set)
			verdicts = nil
		}
	}

	// Per-request deadline: the request override wins over the server
	// default, and MaxTimeout clamps both (including "no timeout
	// requested" — a stuck client must not pin a worker forever when
	// the operator set a ceiling).
	timeout := s.opts.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if s.opts.MaxTimeout > 0 && (timeout <= 0 || timeout > s.opts.MaxTimeout) {
		timeout = s.opts.MaxTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Admission: take a slot or wait in the bounded queue. The wait is
	// bounded by the request deadline, so a queued request cannot
	// outlive its budget.
	if err := s.adm.acquire(ctx); err != nil {
		if errors.Is(err, errOverloaded) {
			WriteOverloaded(w, http.StatusTooManyRequests, "overloaded: admission queue full")
		} else {
			WriteOverloaded(w, http.StatusTooManyRequests, "deadline expired while queued")
		}
		return
	}
	defer s.adm.release()

	if err := faultinject.Fire(ctx, faultinject.PointCompile); err != nil {
		WriteError(w, http.StatusInternalServerError, "compile: %v", err)
		return
	}
	d, hit, err := s.design(req.Design, req.Top)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "compile: %v", err)
		return
	}
	props, err := property.FromNames(d.Netlist(), req.Invariants, req.Witnesses)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := faultinject.Fire(ctx, faultinject.PointSession); err != nil {
		WriteError(w, http.StatusInternalServerError, "session: %v", err)
		return
	}
	sess, err := d.NewSession(core.Options{MaxDepth: req.Depth, UseInduction: !req.NoInduction})
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "session: %v", err)
		return
	}
	var eng core.Engine // nil for atpg: CheckAll's default, the session's ATPG path
	switch req.Engine {
	case core.EngineBMC:
		eng = sess.BMCEngine(bmc.Options{})
	case core.EngineBDD:
		eng = sess.BDDEngine(mc.Options{})
	case core.EnginePortfolio:
		eng = sess.Portfolio()
	}
	jobs := req.Jobs
	if jobs <= 0 {
		jobs = 1
	}
	if jobs > s.opts.MaxJobs {
		jobs = s.opts.MaxJobs
	}
	// The request context cancels the whole batch when the client goes
	// away or the deadline expires — in-flight engines observe it
	// through their ctx plumbing and report unknown verdicts.
	results := sess.CheckAll(ctx, props, core.BatchOptions{Jobs: jobs, Engine: eng, Cache: verdicts})

	// The per-request verdict-cache ledger: hits replayed vs cones
	// re-checked, and the implication work each side represents.
	var vHits, vMisses, implSpent, implSaved int64
	for i := range results {
		if results[i].FromCache {
			vHits++
			implSaved += results[i].Metrics.Implications
		} else {
			vMisses++
			implSpent += results[i].Metrics.Implications
		}
	}
	s.vImplSpent.Add(implSpent)
	s.vImplSaved.Add(implSaved)

	// Encode to a buffer before touching headers: a mid-stream encode
	// failure after WriteHeader(200) would silently truncate the body,
	// which a consumer cannot tell apart from a complete response.
	var buf bytes.Buffer
	encErr := faultinject.Fire(ctx, faultinject.PointEncode)
	if encErr == nil {
		encErr = core.EncodeRecords(&buf, results)
	}
	if encErr != nil {
		WriteError(w, http.StatusInternalServerError, "encode: %v", encErr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set("X-Design-Cache", "hit")
	} else {
		w.Header().Set("X-Design-Cache", "miss")
	}
	if verdicts != nil {
		w.Header().Set("X-Verdict-Cache", fmt.Sprintf("hits=%d misses=%d", vHits, vMisses))
	}
	s.served.Add(1)
	_, _ = w.Write(buf.Bytes())
}
