// Package faultinject provides named failure points for the serving
// stack's degradation tests: compile, session setup, each engine's
// check loop and response encoding can be made to fail (error, panic,
// hang-until-cancel or sleep) on demand, so the test suite and the CI
// degrade-smoke job can prove every failure surfaces as a structured
// error — an attributed error record, a 4xx/5xx body or an
// unknown-verdict record — never a crash, hang or goroutine leak.
//
// Injection is off by default and costs one atomic load per Fire call
// until Activate is called (assertd's -faults flag, or a test). Once
// active, a Fire consults the request-scoped Set carried in the
// context (WithSet — the service builds one from the X-Fault-Inject
// header) and then the optional process-global Set (SetGlobal). A
// point with no armed rule fires nothing.
package faultinject

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The named failure points the serving path exposes, in request order.
const (
	PointCompile    = "compile"     // design front end (parse/elaborate/compile)
	PointSession    = "session"     // session setup over a compiled design
	PointEngineATPG = "engine.atpg" // ATPG engine check loop
	PointEngineBMC  = "engine.bmc"  // SAT-BMC engine check loop
	PointEngineBDD  = "engine.bdd"  // BDD engine check loop
	PointEncode     = "encode"      // response record encoding

	// The network-shaped points the cluster router exposes: the dial
	// side of a sub-request to a replica, and the response body read
	// coming back. Together with the refuse/reset modes they make
	// connection-refused and connection-reset-mid-body failures
	// injectable without a real network partition.
	PointRouteDial     = "route.dial"     // sub-request dispatch to a replica
	PointRouteResponse = "route.response" // replica response body read

	// The disk-shaped points the persist snapshot store exposes: the
	// atomic snapshot write and the snapshot read-back. Together with
	// the short-write/corrupt modes they make torn files and bit rot
	// injectable, so the recovery paths (quarantine + cold start) are
	// testable without pulling power mid-fsync.
	PointPersistWrite = "persist.write" // snapshot file write
	PointPersistRead  = "persist.read"  // snapshot file read-back
)

// Points lists every named failure point (the degrade test matrix).
var Points = []string{
	PointCompile, PointSession,
	PointEngineATPG, PointEngineBMC, PointEngineBDD,
	PointEncode,
	PointRouteDial, PointRouteResponse,
	PointPersistWrite, PointPersistRead,
}

// Mode is what an armed point does when fired.
type Mode uint8

const (
	// ModeError makes Fire return an injected error.
	ModeError Mode = iota
	// ModePanic makes Fire panic (exercising recover paths).
	ModePanic
	// ModeHang blocks Fire until the context is cancelled, then
	// returns nil — the check proceeds and observes the expired
	// context itself (deadline expiry → unknown verdicts).
	ModeHang
	// ModeSleep blocks Fire for the rule's duration (or until the
	// context is cancelled), then returns nil — simulated slowness.
	ModeSleep
	// ModeRefuse makes Fire return a RefusedError — the network-shaped
	// "connection refused" failure the router's dial point maps onto a
	// dispatch failure (nothing was sent, safe to retry elsewhere).
	ModeRefuse
	// ModeReset makes Fire return a ResetError — the network-shaped
	// "connection reset mid-body" failure the router's response point
	// turns into a truncated read (bytes were received, then the peer
	// vanished).
	ModeReset
	// ModeShortWrite makes Fire return a ShortWriteError carrying a
	// byte count — the disk-shaped "process died mid-write" failure the
	// persist store turns into a file truncated at N bytes, exactly the
	// artifact a SIGKILL between write() and fsync leaves behind.
	ModeShortWrite
	// ModeCorrupt makes Fire return a CorruptError — the disk-shaped
	// "bit rot" failure the persist store turns into a flipped byte in
	// the data it just read, which the CRC layer must catch.
	ModeCorrupt
)

type rule struct {
	mode Mode
	d    time.Duration
	// n is the byte count of a short-write rule: the write is truncated
	// after n bytes of the encoded snapshot.
	n int
	// remaining bounds how many times the rule fires (nil = unlimited).
	// A bounded rule — "refuse:2" — injects the fault on the first N
	// Fires and then stands down, which is how the tests prove recovery:
	// the first attempt fails, the retry succeeds.
	remaining *atomic.Int64
}

// Set maps failure points to armed rules. A Set is safe to share
// across goroutines after Parse; bounded rules carry an internal
// atomic budget, everything else is immutable.
type Set struct {
	rules map[string]rule
}

// Parse builds a Set from a spec like
//
//	"engine.atpg=panic,compile=error,engine.bmc=sleep:50ms,route.dial=refuse:2"
//
// Grammar: comma-separated point=mode items; mode is one of error,
// panic, hang, sleep:DURATION, refuse, reset (alias reset-mid-body).
// refuse and reset take an optional :N budget — the rule fires on the
// first N matching Fires, then disarms, so a spec can model a replica
// that refuses twice and then recovers. Unknown points and modes are
// errors so a typo in a test or an ops command fails loudly.
func Parse(spec string) (*Set, error) {
	s := &Set{rules: map[string]rule{}}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		point, modeStr, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: %q is not point=mode", item)
		}
		if !knownPoint(point) {
			return nil, fmt.Errorf("faultinject: unknown point %q (have %s)",
				point, strings.Join(Points, ", "))
		}
		var r rule
		modeName, arg, _ := strings.Cut(modeStr, ":")
		switch modeName {
		case "error":
			r.mode = ModeError
		case "panic":
			r.mode = ModePanic
		case "hang":
			r.mode = ModeHang
		case "sleep":
			r.mode = ModeSleep
			d, err := time.ParseDuration(arg)
			if err != nil {
				return nil, fmt.Errorf("faultinject: sleep duration %q: %v", arg, err)
			}
			r.d = d
		case "refuse", "reset", "reset-mid-body":
			r.mode = ModeRefuse
			if modeName != "refuse" {
				r.mode = ModeReset
			}
			if arg != "" {
				n, err := strconv.ParseInt(arg, 10, 64)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("faultinject: %s budget %q: want a positive integer", modeName, arg)
				}
				r.remaining = &atomic.Int64{}
				r.remaining.Store(n)
			}
		case "short-write":
			r.mode = ModeShortWrite
			n, err := strconv.Atoi(arg)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faultinject: short-write byte count %q: want a non-negative integer", arg)
			}
			r.n = n
		case "corrupt":
			r.mode = ModeCorrupt
			if arg != "" {
				n, err := strconv.ParseInt(arg, 10, 64)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("faultinject: corrupt budget %q: want a positive integer", arg)
				}
				r.remaining = &atomic.Int64{}
				r.remaining.Store(n)
			}
		default:
			return nil, fmt.Errorf("faultinject: unknown mode %q (error|panic|hang|sleep:D|refuse[:N]|reset[:N]|short-write:BYTES|corrupt[:N])", modeStr)
		}
		s.rules[point] = r
	}
	return s, nil
}

func knownPoint(p string) bool {
	for _, q := range Points {
		if p == q {
			return true
		}
	}
	return false
}

// active gates the whole package: Fire is a single atomic load when
// injection was never activated, so production paths pay nothing.
var active atomic.Bool

// globalSet is the process-wide armed set (assertd -faults-spec or a
// test); request-scoped sets take precedence per point.
var globalSet atomic.Pointer[Set]

// Activate enables fault injection process-wide (the rules still come
// from contexts or SetGlobal). It is a one-way switch per process —
// tests share it safely because rules are context-scoped.
func Activate() { active.Store(true) }

// SetGlobal arms a process-wide rule set (nil disarms) and activates
// injection when non-nil.
func SetGlobal(s *Set) {
	globalSet.Store(s)
	if s != nil {
		active.Store(true)
	}
}

type ctxKey struct{}

// WithSet attaches a request-scoped rule set to the context.
func WithSet(ctx context.Context, s *Set) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// InjectedError is the error type Fire returns in ModeError, carrying
// the point name for attribution.
type InjectedError struct{ Point string }

func (e *InjectedError) Error() string {
	return fmt.Sprintf("injected fault at %s", e.Point)
}

// RefusedError is the error Fire returns in ModeRefuse: the caller
// should behave as if the connection was refused before anything was
// sent (for the router: the sub-request never reached the replica and
// is safe to retry elsewhere).
type RefusedError struct{ Point string }

func (e *RefusedError) Error() string {
	return fmt.Sprintf("injected connection refused at %s", e.Point)
}

// ResetError is the error Fire returns in ModeReset: the caller should
// behave as if the peer reset the connection mid-body (for the router:
// a truncated response that must be discarded and re-fetched).
type ResetError struct{ Point string }

func (e *ResetError) Error() string {
	return fmt.Sprintf("injected connection reset at %s", e.Point)
}

// ShortWriteError is the error Fire returns in ModeShortWrite: the
// caller should behave as if the process died after writing the first
// N bytes — for the persist store, truncate the encoded snapshot at N
// bytes so the torn file a crash leaves behind lands on disk
// deterministically.
type ShortWriteError struct {
	Point string
	N     int
}

func (e *ShortWriteError) Error() string {
	return fmt.Sprintf("injected short write at %s (%d bytes)", e.Point, e.N)
}

// CorruptError is the error Fire returns in ModeCorrupt: the caller
// should behave as if the bytes it just read rotted on disk — for the
// persist store, flip a byte before validation so the CRC layer is
// exercised.
type CorruptError struct{ Point string }

func (e *CorruptError) Error() string {
	return fmt.Sprintf("injected corruption at %s", e.Point)
}

// Fire triggers the named point: it returns nil instantly when
// injection is inactive or the point is unarmed; otherwise it applies
// the armed rule (error / panic / hang / sleep / refuse / reset /
// short-write / corrupt).
// Hang and sleep honor ctx cancellation and return nil so the caller's
// own cancellation handling runs. A budget-bounded rule (refuse:N /
// reset:N) stops firing once its budget is spent.
func Fire(ctx context.Context, point string) error {
	if !active.Load() {
		return nil
	}
	r, ok := lookup(ctx, point)
	if !ok {
		return nil
	}
	if r.remaining != nil && r.remaining.Add(-1) < 0 {
		return nil
	}
	switch r.mode {
	case ModeError:
		return &InjectedError{Point: point}
	case ModePanic:
		panic(fmt.Sprintf("injected panic at %s", point))
	case ModeHang:
		<-ctx.Done()
		return nil
	case ModeSleep:
		t := time.NewTimer(r.d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
		return nil
	case ModeRefuse:
		return &RefusedError{Point: point}
	case ModeReset:
		return &ResetError{Point: point}
	case ModeShortWrite:
		return &ShortWriteError{Point: point, N: r.n}
	case ModeCorrupt:
		return &CorruptError{Point: point}
	}
	return nil
}

func lookup(ctx context.Context, point string) (rule, bool) {
	if s, _ := ctx.Value(ctxKey{}).(*Set); s != nil {
		if r, ok := s.rules[point]; ok {
			return r, true
		}
	}
	if s := globalSet.Load(); s != nil {
		if r, ok := s.rules[point]; ok {
			return r, true
		}
	}
	return rule{}, false
}
