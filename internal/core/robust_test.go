package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/lru"
	"repro/internal/netlist"
	"repro/internal/property"
)

// panicEngine panics on every Check — the poisoned-engine stand-in for
// the panic-isolation contract.
type panicEngine struct{ name string }

func (e *panicEngine) Name() string { return e.name }
func (e *panicEngine) Check(ctx context.Context, prob Problem) EngineResult {
	panic("poisoned engine: " + prob.Prop.Name)
}

// okEngine returns a fixed bounded verdict.
type okEngine struct{ name string }

func (e *okEngine) Name() string { return e.name }
func (e *okEngine) Check(ctx context.Context, prob Problem) EngineResult {
	return Result{Property: prob.Prop.Name, Verdict: VerdictProvedBounded, Engine: e.name, Validated: false}
}

func tinySession(t *testing.T) (*Session, []property.Property) {
	t.Helper()
	nl := netlist.New("tiny")
	a := nl.AddInput("a", 1)
	buf := nl.Unary(netlist.KBuf, a)
	var props []property.Property
	for _, n := range []string{"p0", "p1", "p2", "p3"} {
		p, err := property.NewWitness(nl, n, buf)
		if err != nil {
			t.Fatal(err)
		}
		props = append(props, p)
	}
	c, err := New(nl, Options{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c, props
}

// TestCheckAllIsolatesPanics pins the batch panic contract: a
// panicking engine run becomes an attributed VerdictError record —
// every input-order slot filled, the process alive — instead of an
// unwound worker goroutine.
func TestCheckAllIsolatesPanics(t *testing.T) {
	c, props := tinySession(t)
	results := c.CheckAll(context.Background(), props,
		BatchOptions{Jobs: 2, Engine: &panicEngine{name: "bad"}})
	if len(results) != len(props) {
		t.Fatalf("results = %d, want %d", len(results), len(props))
	}
	for i, res := range results {
		if res.Verdict != VerdictError {
			t.Errorf("results[%d].Verdict = %v, want error", i, res.Verdict)
		}
		if res.Engine != "bad" || res.Property != props[i].Name {
			t.Errorf("results[%d] attribution = %q/%q", i, res.Engine, res.Property)
		}
		if !strings.Contains(res.Err, "panic") || !strings.Contains(res.Err, props[i].Name) {
			t.Errorf("results[%d].Err = %q, want panic cause", i, res.Err)
		}
	}
	if RecordFromResult(results[0]).Error == "" {
		t.Error("error record lost its cause on the wire")
	}
}

// TestPortfolioSurvivesPanickingMember pins the race contract under
// panics: a member that panics loses (the healthy member's verdict
// wins), and a race where every member panics degrades to an error
// verdict — never a process crash.
func TestPortfolioSurvivesPanickingMember(t *testing.T) {
	_, props := tinySession(t)
	prob := Problem{Prop: props[0], MaxDepth: 2}

	p := NewPortfolio(&panicEngine{name: "bad"}, &okEngine{name: "good"})
	res := p.Check(context.Background(), prob)
	if res.Verdict != VerdictProvedBounded || res.Engine != "good" {
		t.Errorf("healthy member lost to a panic: %v from %q", res.Verdict, res.Engine)
	}

	allBad := NewPortfolio(&panicEngine{name: "bad1"}, &panicEngine{name: "bad2"})
	res = allBad.Check(context.Background(), prob)
	if res.Verdict != VerdictError || res.Err == "" {
		t.Errorf("all-panic race: verdict %v err %q, want attributed error", res.Verdict, res.Err)
	}

	// Single-member portfolios take the direct path; it must be
	// isolated too.
	solo := NewPortfolio(&panicEngine{name: "solo"})
	if res := solo.Check(context.Background(), prob); res.Verdict != VerdictError {
		t.Errorf("single-member panic verdict = %v, want error", res.Verdict)
	}
}

// TestErrorVerdictLosesToUnknown pins the winner ranking: an engine
// that crashed must not outrank one that merely ran out of budget.
func TestErrorVerdictLosesToUnknown(t *testing.T) {
	if verdictStrength(VerdictError) >= verdictStrength(VerdictUnknown) {
		t.Error("error outranks unknown")
	}
	if verdictStrength(VerdictUnknown) >= verdictStrength(VerdictProvedBounded) {
		t.Error("unknown outranks bounded")
	}
}

// TestEngineFaultPointsProduceErrorRecords drives the injected-fault
// path through the real session adapters: an armed engine point yields
// an attributed error record (error mode) or a recovered panic record
// (panic mode) with the session still usable afterwards.
func TestEngineFaultPointsProduceErrorRecords(t *testing.T) {
	faultinject.Activate()
	c, props := tinySession(t)

	set, err := faultinject.Parse("engine.atpg=error")
	if err != nil {
		t.Fatal(err)
	}
	ctx := faultinject.WithSet(context.Background(), set)
	results := c.CheckAll(ctx, props[:1], BatchOptions{Jobs: 1})
	if results[0].Verdict != VerdictError || results[0].Engine != EngineATPG {
		t.Fatalf("injected error: verdict %v engine %q", results[0].Verdict, results[0].Engine)
	}

	set, _ = faultinject.Parse("engine.atpg=panic")
	ctx = faultinject.WithSet(context.Background(), set)
	results = c.CheckAll(ctx, props[:1], BatchOptions{Jobs: 1})
	if results[0].Verdict != VerdictError || !strings.Contains(results[0].Err, "panic") {
		t.Fatalf("injected panic: verdict %v err %q", results[0].Verdict, results[0].Err)
	}

	// Unarmed context: the session still checks normally.
	results = c.CheckAll(context.Background(), props[:1], BatchOptions{Jobs: 1})
	if results[0].Verdict != VerdictWitnessFound {
		t.Fatalf("post-fault check verdict = %v, want witness-found", results[0].Verdict)
	}
}

// TestDesignCacheBounded pins the eviction behavior of the
// process-wide design cache: residency never exceeds the cap, evicted
// designs recompile on re-request (a fresh *Design — correctness never
// depends on residency), and the counters move.
func TestDesignCacheBounded(t *testing.T) {
	old := designCache
	designCache = lru.New[designKey, *lazy[*Design]](4)
	defer func() { designCache = old }()
	before := designCache.Stats()

	mk := func(name string) *netlist.Netlist {
		nl := netlist.New(name)
		a := nl.AddInput("a", 1)
		nl.Unary(netlist.KBuf, a)
		return nl
	}
	nls := make([]*netlist.Netlist, 8)
	designs := make([]*Design, 8)
	for i := range nls {
		nls[i] = mk("d" + string(rune('0'+i)))
		d, err := DesignFor(nls[i])
		if err != nil {
			t.Fatal(err)
		}
		designs[i] = d
	}
	st := designCache.Stats()
	if st.Len > 4 {
		t.Errorf("resident designs = %d, exceeds cap 4", st.Len)
	}
	if st.Evictions <= before.Evictions {
		t.Errorf("evictions did not advance: %d -> %d", before.Evictions, st.Evictions)
	}
	// nls[0] was evicted: DesignFor rebuilds, returning a fresh Design.
	d0, err := DesignFor(nls[0])
	if err != nil {
		t.Fatal(err)
	}
	if d0 == designs[0] {
		t.Error("evicted design was still returned (no rebuild)")
	}
	// The most recent netlist is still resident: same pointer back.
	d7, err := DesignFor(nls[7])
	if err != nil {
		t.Fatal(err)
	}
	if d7 != designs[7] {
		t.Error("resident design was rebuilt")
	}
}
