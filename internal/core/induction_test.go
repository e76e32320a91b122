package core

import (
	"context"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/internal/property"
	"repro/internal/sim"
)

// arbiter16 compiles the Table-2 arbiter: a sequential design with no
// 1-bit flip-flops, so the learned store is inert for it and its p5
// runs the induction step beside the bounded loop.
func arbiter16(t *testing.T) (*circuits.Design, *Design) {
	t.Helper()
	cd, err := circuits.Arbiter(16)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DesignFor(cd.NL)
	if err != nil {
		t.Fatal(err)
	}
	return cd, d
}

// raceMarkEngine records whether it ran under a portfolio race's
// context.
type raceMarkEngine struct{ marked atomic.Bool }

func (e *raceMarkEngine) Name() string { return "mark" }

func (e *raceMarkEngine) Check(ctx context.Context, prob Problem) EngineResult {
	e.marked.Store(ctx.Value(raceKey{}) != nil)
	return Result{Property: prob.Prop.Name, Verdict: VerdictProvedBounded, Engine: e.Name()}
}

// TestInductionBesideConditions pins when the induction step runs
// beside the bounded loop: only for an invariant with state in its
// cone, with induction on, when the learned store is inert for the
// netlist, and outside portfolio races.
func TestInductionBesideConditions(t *testing.T) {
	arb, arbD := arbiter16(t)
	alarm, err := circuits.AlarmClock()
	if err != nil {
		t.Fatal(err)
	}
	alarmD, err := DesignFor(alarm.NL)
	if err != nil {
		t.Fatal(err)
	}
	decNL := elaborate(t, decoderSrc, "dec")
	y, _ := decNL.SignalByName("y")
	decInv, err := property.NewInvariant(decNL, "dec-onehot", property.Builder{NL: decNL}.ExactlyOneBus(y))
	if err != nil {
		t.Fatal(err)
	}
	decD, err := DesignFor(decNL)
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	raced := context.WithValue(bg, raceKey{}, true)
	on := Options{MaxDepth: 3, UseInduction: true}
	for _, tc := range []struct {
		name string
		d    *Design
		p    property.Property
		opts Options
		ctx  context.Context
		want bool
	}{
		{"store-inert invariant", arbD, arb.Props[0], on, bg, true},
		{"induction off", arbD, arb.Props[0], Options{MaxDepth: 3}, bg, false},
		{"witness", arbD, arb.Props[1], on, bg, false},
		{"portfolio race", arbD, arb.Props[0], on, raced, false},
		{"store in use", alarmD, alarm.Props[2], on, bg, false},
		{"no store", alarmD, alarm.Props[2], Options{MaxDepth: 3, UseInduction: true, DisableLearnedStore: true}, bg, true},
		{"combinational cone", decD, decInv, on, bg, false},
	} {
		sess, err := tc.d.NewSession(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := sess.Design().ATPGPrep()
		if err != nil {
			t.Fatal(err)
		}
		if got := sess.inductionBeside(tc.ctx, tc.p, prep); got != tc.want {
			t.Errorf("%s: inductionBeside = %v, want %v", tc.name, got, tc.want)
		}
	}
	mark := &raceMarkEngine{}
	NewPortfolio(mark, &okEngine{name: "ok"}).Check(bg, Problem{NL: arb.NL, Prop: arb.Props[0], MaxDepth: 3})
	if !mark.marked.Load() {
		t.Error("a portfolio member's context does not carry the race mark")
	}
}

// traceString renders a trace's inputs frame by frame, signals sorted
// by name.
func traceString(nl *netlist.Netlist, tr *sim.Trace) string {
	var frames []string
	for _, in := range tr.Inputs {
		var sigs []string
		for s, v := range in {
			sigs = append(sigs, nl.Signals[s].Name+"="+v.String())
		}
		sort.Strings(sigs)
		frames = append(frames, strings.Join(sigs, " "))
	}
	return strings.Join(frames, " | ")
}

// TestInductionBesideFalsified checks a falsified invariant on the
// store-inert arbiter. The bounded loop finds the counterexample at
// depth 2 while the induction step, started beside it, is still
// searching; the result — verdict, depth, trace and every counter —
// must be the serial flow's, pinned below, so the cancelled step's
// work is never counted.
func TestInductionBesideFalsified(t *testing.T) {
	cd, err := circuits.Arbiter(16)
	if err != nil {
		t.Fatal(err)
	}
	nl := cd.NL
	b := property.Builder{NL: nl}
	grant, _ := nl.SignalByName("grant")
	mon := nl.Binary(netlist.KAnd, b.AtMostOneBus(grant), b.NeverValue(grant, 1<<15))
	p, err := property.NewInvariant(nl, "p5-no-grant15", mon)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(nl, Options{MaxDepth: 3, UseInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	res := c.Check(p)
	if res.Verdict != VerdictFalsified || res.Depth != 2 || !res.Validated {
		t.Fatalf("got %v at depth %d (validated %v), want a validated falsification at depth 2", res.Verdict, res.Depth, res.Validated)
	}
	if got := traceString(nl, res.Trace); got != wantFalsifiedTrace {
		t.Errorf("trace:\n got %s\nwant %s", got, wantFalsifiedTrace)
	}
	if len(res.InitState) != 0 {
		t.Errorf("init state %v, want none (every register is initialised)", res.InitState)
	}
	if res.Stats != wantFalsifiedStats {
		t.Errorf("stats:\n got %+v\nwant %+v", res.Stats, wantFalsifiedStats)
	}
}

// The serial flow's result for TestInductionBesideFalsified.
var (
	wantFalsifiedTrace = "clk=1'b0 req=16'b1000000000000000 rst=1'b0 | clk=1'b0 req=16'b0000000000000000 rst=1'b0"
	wantFalsifiedStats = atpg.Stats{Decisions: 1, Implications: 3689, MaxTrail: 1067, FrontierScans: 2,
		FrontierChecks: 1081, FrontierSkips: 1067, BitSkips: 1042}
)

// TestInductionBesideCancel cancels a check while its induction step
// runs beside the bounded loop: the check returns unknown within the
// ATPG poll budget and leaves no goroutine behind. Stopping a run
// cancels it and returns only once its function has returned.
func TestInductionBesideCancel(t *testing.T) {
	const cancelAfter = 20 * time.Millisecond
	const returnBudget = time.Second
	var sawCancel, returned atomic.Bool
	startInduction(context.Background(), func(ctx context.Context) (atpg.Status, atpg.Stats) {
		select {
		case <-ctx.Done():
			sawCancel.Store(true)
		case <-time.After(returnBudget):
		}
		time.Sleep(cancelAfter) // still unwinding after the cancel
		returned.Store(true)
		return atpg.StatusAbort, atpg.Stats{}
	}).stop()
	if !sawCancel.Load() || !returned.Load() {
		t.Fatalf("stop: run saw its cancel %v, had returned %v; want both", sawCancel.Load(), returned.Load())
	}

	// Without its local FSMs the arbiter's induction step runs far past
	// the cancel; with them it proves in milliseconds.
	cd, d := arbiter16(t)
	sess, err := d.NewSession(Options{MaxDepth: 3, UseInduction: true, DisableLocalFSM: true})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(cancelAfter, cancel)
	defer timer.Stop()
	start := time.Now()
	res := sess.CheckCtx(ctx, cd.Props[0])
	elapsed := time.Since(start)
	if res.Verdict != VerdictUnknown {
		t.Fatalf("cancelled check returned %v, want unknown", res.Verdict)
	}
	if elapsed > cancelAfter+returnBudget {
		t.Errorf("cancelled check took %v, budget %v after the cancel", elapsed, returnBudget)
	}
	// The timer's own goroutine may still be returning from cancel.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the check, %d before", n, base)
	}
}

// besidePanicEngine reads the result of an induction run whose
// function panics, as checkSearch does.
type besidePanicEngine struct{}

func (besidePanicEngine) Name() string { return EngineATPG }

func (besidePanicEngine) Check(ctx context.Context, prob Problem) EngineResult {
	r := startInduction(ctx, panicStep)
	defer r.stop()
	r.wait()
	return Result{Property: prob.Prop.Name, Verdict: VerdictProved, Engine: EngineATPG}
}

func panicStep(context.Context) (atpg.Status, atpg.Stats) { panic("induction step") }

// TestInductionBesidePanic: a panic on the induction goroutine is
// raised again where the check reads the step's result, so safeCheck
// turns it into the error record a panic on the checking goroutine
// gives and the batch survives; stopping the run never raises it.
func TestInductionBesidePanic(t *testing.T) {
	startInduction(context.Background(), panicStep).stop()

	c, props := tinySession(t)
	results := c.CheckAll(context.Background(), props, BatchOptions{Jobs: 2, Engine: besidePanicEngine{}})
	for i, r := range results {
		if r.Verdict != VerdictError || r.Err != "panic: induction step" || r.Property != props[i].Name {
			t.Errorf("slot %d: %+v, want an error record for %s carrying the panic", i, r, props[i].Name)
		}
	}
}

// TestInductionBesideConcurrentSessions runs 8 checks of arbiter16/p5
// at once on one Design, each with its induction step beside its
// bounded loop; each must reproduce the golden result exactly.
func TestInductionBesideConcurrentSessions(t *testing.T) {
	cd, d := arbiter16(t)
	want, ok := goldenEntry("arbiter16/p5")
	if !ok {
		t.Fatal("no golden entry for arbiter16/p5")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := d.NewSession(Options{MaxDepth: 3, UseInduction: true})
			if err != nil {
				t.Error(err)
				return
			}
			res := sess.ATPGEngine().Check(context.Background(), Problem{NL: cd.NL, Prop: cd.Props[0], MaxDepth: 3})
			if got := goldenOf(want.key, res); got != want {
				t.Errorf("worker %d:\n got %+v\nwant %+v", w, got, want)
			}
		}(w)
	}
	wg.Wait()
}
