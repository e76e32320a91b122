// Command assertrouter is the multi-replica front end of the assertion
// checker: it serves the same POST /v1/check API assertd does, but
// shards each batch across a fleet of assertd replicas by consistent
// hash of the design content (keeping every replica's compiled-design
// cache hot for its slice of the design space) and reassembles the
// input-ordered response — byte-identical to a single replica's answer
// modulo elapsed_ns. Batches with fewer properties than -scatter-min
// skip the scatter/gather machinery and route whole to the design's
// primary replica: on tiny batches the per-sub-request overhead costs
// more than the parallelism buys.
//
// Usage:
//
//	assertrouter -replicas http://h1:8545,http://h2:8545[,...]
//	             [-replicas-file PATH] [-addr :8550] [-scatter-min N]
//	             [-health-interval D] [-drain-timeout D] [-faults]
//	             [-version-tag V]
//
// Failure handling (see internal/cluster): per-replica health checks
// drive ring membership (draining and dead replicas leave the ring);
// 429/503 shed answers are retried on the same replica honoring
// Retry-After; a hard failure moves the whole shard to the next ring
// member and feeds the failed replica's circuit breaker, and a replica
// whose breaker is open sits out of the ring until its cooldown ends.
//
// Membership is dynamic: SIGHUP re-reads the replica set — from
// -replicas-file when given (one URL per line, '#' comments), else by
// re-parsing the -replicas flag value — and diffs it into the ring.
// Added replicas start taking new batches once healthy; removed ones
// stop receiving new shards immediately while their in-flight shards
// finish; kept replicas carry breaker and health state across the
// reload. A reload that yields no usable URLs is rejected and the
// current membership stays.
//
// -scatter-min, -health-interval and -drain-timeout may not be negative:
// a negative one is a usage mistake (exit status 2), as is an empty
// replica set.
//
// GET /healthz aggregates the fleet: the router's own uptime/version
// and routing counters plus per-replica state, breaker position,
// uptime/version and served/shed ledgers. On SIGTERM/SIGINT the router
// refuses new batches (503), drains in-flight scatter/gathers, then
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// parseReplicaList splits a comma- or newline-separated URL list,
// trimming blanks, '#' comments and trailing slashes.
func parseReplicaList(s string) []string {
	var urls []string
	for _, u := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == '\n' || r == '\r' }) {
		if i := strings.IndexByte(u, '#'); i >= 0 {
			u = u[:i]
		}
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	return urls
}

// loadReplicas resolves the current replica set: the file wins when
// configured, else the flag value.
func loadReplicas(flagValue, file string) ([]string, error) {
	if file == "" {
		return parseReplicaList(flagValue), nil
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	return parseReplicaList(string(data)), nil
}

func main() {
	var (
		addr           = flag.String("addr", ":8550", "listen address")
		replicas       = flag.String("replicas", "", "comma-separated assertd base URLs (required unless -replicas-file)")
		replicasFile   = flag.String("replicas-file", "", "file with one assertd base URL per line ('#' comments); re-read on SIGHUP")
		scatterMin     = flag.Int("scatter-min", 4, "batches with fewer properties route whole to the primary replica instead of sharding (0 = always shard)")
		healthInterval = flag.Duration("health-interval", 0, "replica /healthz poll period (0 = 500ms)")
		drainTimeout   = flag.Duration("drain-timeout", 10*time.Second, "how long to drain in-flight batches on SIGTERM before exiting")
		faults         = flag.Bool("faults", false, "enable the X-Fault-Inject header incl. route.* points (degradation testing only)")
		versionTag     = flag.String("version-tag", "dev", "build version reported on /healthz")
	)
	flag.Parse()
	if code := checkUsage(os.Stderr, flag.CommandLine); code != 0 {
		os.Exit(code)
	}

	urls, err := loadReplicas(*replicas, *replicasFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "assertrouter:", err)
		os.Exit(2)
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "assertrouter: no replicas configured (-replicas or -replicas-file)")
		os.Exit(2)
	}

	rt, err := cluster.New(cluster.Options{
		Replicas:       urls,
		ScatterMin:     *scatterMin,
		HealthInterval: *healthInterval,
		EnableFaults:   *faults,
		Version:        *versionTag,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "assertrouter:", err)
		os.Exit(2)
	}
	hs := &http.Server{Addr: *addr, Handler: rt.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "assertrouter: listening on %s, %d replicas\n", *addr, len(urls))

	// SIGHUP reloads the membership without touching in-flight batches.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			next, err := loadReplicas(*replicas, *replicasFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "assertrouter: reload failed: %v; keeping current membership\n", err)
				continue
			}
			added, removed, err := rt.SetReplicas(next)
			if err != nil {
				fmt.Fprintf(os.Stderr, "assertrouter: reload rejected: %v; keeping current membership\n", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "assertrouter: reloaded replicas (%d total, +%d, -%d)\n",
				len(rt.Replicas()), added, removed)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "assertrouter:", err)
			os.Exit(1)
		}
	case s := <-sig:
		// Same drain shape as assertd: refuse new batches (503 +
		// Retry-After), let in-flight scatter/gathers finish under the
		// drain budget, then force-close.
		fmt.Fprintf(os.Stderr, "assertrouter: %v — draining (timeout %v)\n", s, *drainTimeout)
		rt.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "assertrouter: drain expired, closing: %v\n", err)
			_ = hs.Close()
			rt.Close()
			os.Exit(1)
		}
		rt.Close()
		fmt.Fprintln(os.Stderr, "assertrouter: drained")
	}
}

// checkUsage returns 2, after naming the flag on w, when a count or
// interval flag is negative, and 0 otherwise. Each checked flag is an
// int or a time.Duration, printed with a leading '-' exactly when
// negative.
func checkUsage(w io.Writer, fs *flag.FlagSet) int {
	for _, name := range []string{"scatter-min", "health-interval", "drain-timeout"} {
		if v := fs.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			fmt.Fprintf(w, "assertrouter: -%s %s is negative\n", name, v)
			return 2
		}
	}
	return 0
}
