// Package faultinject provides named failure points for the serving
// stack's degradation tests: compile, session setup, each engine's
// check loop, response encoding, the router's dispatch and the
// snapshot write can be made to fail (error or panic) or to stall
// (sleep) on demand, so the test suite and the CI smoke jobs can prove
// every failure surfaces as a structured error — an attributed error
// record, a 4xx/5xx body, an unknown-verdict record or a logged failed
// flush — never a crash, hang or goroutine leak.
//
// A point only fails: the code under test handles an injected error
// exactly as a real error from the same call, and acts out no failure
// of its own. Damage that only the outside world can do (a truncated
// body, a torn file) is done from outside, by the tests.
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

	// The cluster router's points: the dial side of a sub-request to a
	// replica, and the response body read coming back. An error at
	// either is a failed attempt, which the router fails over.
	PointRouteDial     = "route.dial"     // sub-request dispatch to a replica
	PointRouteResponse = "route.response" // replica response body read

	// The snapshot store's point: an error at the snapshot write is a
	// failed flush, which leaves the previous snapshot in place.
	PointPersistWrite = "persist.write" // snapshot file write
)

// Points lists every named failure point (the degrade test matrix).
var Points = []string{
	PointCompile, PointSession,
	PointEngineATPG, PointEngineBMC, PointEngineBDD,
	PointEncode,
	PointRouteDial, PointRouteResponse,
	PointPersistWrite,
}

// Mode is what an armed point does when fired.
type Mode uint8

const (
	// ModeError makes Fire return an InjectedError.
	ModeError Mode = iota
	// ModePanic makes Fire panic (exercising recover paths).
	ModePanic
	// ModeSleep blocks Fire for the rule's duration (or until the
	// context is cancelled), then returns nil — simulated slowness, or
	// with a long duration a stuck check that only its deadline ends.
	ModeSleep
)

type rule struct {
	mode Mode
	d    time.Duration
	// remaining bounds how many times an error rule fires (nil =
	// unlimited). A bounded rule — "error:2" — injects the fault on the
	// first N Fires and then stands down, which is how the tests prove
	// recovery: the first attempt fails, the retry succeeds.
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
//	"engine.atpg=panic,compile=error,engine.bmc=sleep:50ms,route.dial=error:2"
//
// Grammar: comma-separated point=mode items; mode is one of error[:N],
// panic or sleep:DURATION. error takes an optional :N budget — the
// rule fires on the first N matching Fires, then disarms, so a spec
// can model a replica that fails twice and then recovers. Unknown
// points and modes are errors so a typo in a test or an ops command
// fails loudly.
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
		modeName, arg, hasArg := strings.Cut(modeStr, ":")
		switch {
		case modeName == "error":
			r.mode = ModeError
			if hasArg {
				n, err := strconv.ParseInt(arg, 10, 64)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("faultinject: error budget %q: want a positive integer", arg)
				}
				r.remaining = &atomic.Int64{}
				r.remaining.Store(n)
			}
		case modeName == "panic" && !hasArg:
			r.mode = ModePanic
		case modeName == "sleep":
			r.mode = ModeSleep
			d, err := time.ParseDuration(arg)
			if err != nil {
				return nil, fmt.Errorf("faultinject: sleep duration %q: %v", arg, err)
			}
			r.d = d
		default:
			return nil, fmt.Errorf("faultinject: unknown mode %q (error[:N]|panic|sleep:D)", modeStr)
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

// InjectedError is the error Fire returns in ModeError, carrying the
// point name for attribution.
type InjectedError struct{ Point string }

func (e *InjectedError) Error() string {
	return fmt.Sprintf("injected fault at %s", e.Point)
}

// Fire triggers the named point: it returns nil instantly when
// injection is inactive or the point is unarmed; otherwise it applies
// the armed rule (error / panic / sleep). Sleep honors ctx
// cancellation and returns nil so the caller's own cancellation
// handling runs. A budgeted error rule (error:N) stops firing once its
// budget is spent.
func Fire(ctx context.Context, point string) error {
	if !active.Load() {
		return nil
	}
	r, ok := lookup(ctx, point)
	if !ok {
		return nil
	}
	switch r.mode {
	case ModeError:
		if r.remaining != nil && r.remaining.Add(-1) < 0 {
			return nil
		}
		return &InjectedError{Point: point}
	case ModePanic:
		panic(fmt.Sprintf("injected panic at %s", point))
	case ModeSleep:
		t := time.NewTimer(r.d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
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
