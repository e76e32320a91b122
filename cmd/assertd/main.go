// Command assertd is the long-lived serving front end of the assertion
// checker: an HTTP/JSON API over the core batch machinery, with
// compiled designs cached (LRU-bounded) by content hash across
// requests, admission control in front of the check workers, a
// graceful SIGTERM drain, and (opt-in) a crash-safe verdict snapshot
// so a restarted server answers repeat traffic from cache.
//
// Usage:
//
//	assertd [-addr :8545] [-max-jobs N] [-max-concurrent N] [-max-queue N]
//	        [-max-depth N] [-timeout D] [-max-timeout D] [-drain-timeout D]
//	        [-cache-designs N] [-cache-verdicts N] [-faults] [-faults-spec SPEC]
//	        [-state-dir DIR] [-state-interval D] [-version-tag V]
//
// Endpoints:
//
//	POST /v1/check
//	    Body: {"design": "<verilog source>", "top": "mod",
//	           "invariants": ["a","b"], "witnesses": ["w"],
//	           "depth": 16, "engine": "atpg|bmc|bdd|portfolio",
//	           "jobs": 8, "timeout_ms": 30000}
//	    Response: the input-ordered per-property record array that
//	    `assertcheck -json` prints — byte-identical schema, so the two
//	    front ends are interchangeable. The X-Design-Cache response
//	    header reports whether the design compile was served from the
//	    content-hash cache ("hit") or performed ("miss"); the
//	    X-Verdict-Cache header ("hits=K misses=M") reports how many
//	    per-property verdicts were replayed from the cone-keyed verdict
//	    cache instead of re-verified — replayed records are byte-identical
//	    to the original run, including elapsed_ns and search metrics.
//	    Overload surfaces as 429 + Retry-After (admission queue full),
//	    draining as 503 + Retry-After; an expired request budget
//	    surfaces as unknown-verdict records, mirroring
//	    `assertcheck -timeout`.
//
//	GET /healthz
//	    Liveness ("ok" or "draining"), uptime and build version,
//	    design-cache and admission counters, and the durable-state
//	    block (snapshot inventory, quarantine counter, flush age and
//	    last error).
//
// Durable state: with -state-dir the server keeps one crash-safe
// snapshot (write-to-temp + fsync + atomic rename, CRC-validated) of
// the cone-keyed verdict cache (see -cache-verdicts), restored before
// the listener opens, so cached verdicts survive restarts — including
// crashes. Compiled designs are not persisted: a design's first request
// after a restart is a design-cache miss. A torn or corrupt snapshot
// (crash mid-write, bit rot) is quarantined to *.corrupt with a logged
// line and the server starts cold; it never crashes, loops, or changes
// a verdict. With the verdict cache disabled there is nothing to
// persist. No search state outlives a check, so every record depends
// only on its own property and every response is byte-reproducible.
//
// On SIGTERM/SIGINT the server stops admitting work (503), drains
// in-flight batches for up to -drain-timeout, snapshots its state, and
// exits.
//
// No count or duration flag may be negative, apart from -cache-designs
// and -cache-verdicts: a negative one is a usage mistake (exit status
// 2).
//
// -faults enables the X-Fault-Inject request header; -faults-spec arms
// a process-global fault rule set (reaching flows with no request
// context, like the state flusher) — both for degradation testing
// only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/service"
)

func main() {
	var (
		addr          = flag.String("addr", ":8545", "listen address")
		maxJobs       = flag.Int("max-jobs", 8, "per-request worker-pool cap")
		maxConcurrent = flag.Int("max-concurrent", 0, "concurrent check requests (0 = GOMAXPROCS)")
		maxQueue      = flag.Int("max-queue", 0, "admission queue depth (0 = 4x max-concurrent)")
		maxDepth      = flag.Int("max-depth", 0, "per-request frame-bound cap (0 = 128)")
		timeout       = flag.Duration("timeout", 0, "default per-request budget (0 = none); expired checks report unknown, mirroring assertcheck -timeout")
		maxTimeout    = flag.Duration("max-timeout", 0, "ceiling on per-request timeout overrides (0 = none)")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "how long to drain in-flight work on SIGTERM before exiting")
		cacheDesigns  = flag.Int("cache-designs", 0, "compiled-design cache entries (0 = 64, negative = unbounded)")
		cacheVerdicts = flag.Int("cache-verdicts", 0, "cone-keyed verdict cache entries (0 = 4096, negative = disabled)")
		faults        = flag.Bool("faults", false, "enable the X-Fault-Inject header (degradation testing only)")
		faultsSpec    = flag.String("faults-spec", "", "arm a process-global fault rule set, e.g. 'persist.write=short-write:16' (degradation testing only)")
		stateDir      = flag.String("state-dir", "", "directory for crash-safe durable state (empty = stateless)")
		stateInterval = flag.Duration("state-interval", 0, "periodic state flush cadence (0 = 30s)")
		versionTag    = flag.String("version-tag", "dev", "build version reported on /healthz")
	)
	flag.Parse()
	if code := checkUsage(os.Stderr, flag.CommandLine); code != 0 {
		os.Exit(code)
	}

	logf := func(format string, args ...any) {
		log.Printf("assertd: "+format, args...)
	}
	if *faultsSpec != "" {
		set, err := faultinject.Parse(*faultsSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "assertd:", err)
			os.Exit(2)
		}
		faultinject.SetGlobal(set)
	}

	srv := service.New(service.Options{
		MaxJobs:             *maxJobs,
		MaxConcurrent:       *maxConcurrent,
		MaxQueue:            *maxQueue,
		MaxDepth:            *maxDepth,
		DefaultTimeout:      *timeout,
		MaxTimeout:          *maxTimeout,
		DesignCacheEntries:  *cacheDesigns,
		VerdictCacheEntries: *cacheVerdicts,
		EnableFaults:        *faults,
		StateDir:            *stateDir,
		StateInterval:       *stateInterval,
		Version:             *versionTag,
		Logf:                logf,
	})
	if err := srv.StateError(); err != nil {
		fmt.Fprintln(os.Stderr, "assertd: state dir unusable:", err)
		os.Exit(1)
	}
	flushCtx, stopFlusher := context.WithCancel(context.Background())
	defer stopFlusher()
	go srv.RunStateFlusher(flushCtx)

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "assertd: listening on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "assertd:", err)
			os.Exit(1)
		}
	case s := <-sig:
		// Graceful drain: refuse new work (the service answers 503),
		// let in-flight batches finish under the drain budget, then
		// force-close whatever is left.
		fmt.Fprintf(os.Stderr, "assertd: %v — draining (timeout %v)\n", s, *drainTimeout)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		err := hs.Shutdown(ctx)
		// Final state flush after the drain: in-flight requests have
		// finished mutating the caches/stores by now, so this snapshot
		// is the complete picture. Runs even when the drain expired —
		// partial state beats none.
		stopFlusher()
		if ferr := srv.FlushState(context.Background()); ferr != nil {
			fmt.Fprintf(os.Stderr, "assertd: final state flush failed: %v\n", ferr)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "assertd: drain expired, closing: %v\n", err)
			_ = hs.Close()
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "assertd: drained")
	}
}

// checkUsage returns 2, after naming the flag on w, when a capacity or
// interval flag is negative, and 0 otherwise. The cache sizes are not
// checked: a negative one means unbounded or disabled. Each checked
// flag is an int or a time.Duration, printed with a leading '-' exactly
// when negative.
func checkUsage(w io.Writer, fs *flag.FlagSet) int {
	for _, name := range []string{"max-jobs", "max-concurrent", "max-queue", "max-depth",
		"timeout", "max-timeout", "drain-timeout", "state-interval"} {
		if v := fs.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			fmt.Fprintf(w, "assertd: -%s %s is negative\n", name, v)
			return 2
		}
	}
	return 0
}
