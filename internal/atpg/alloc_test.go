package atpg

import (
	"testing"

	"repro/internal/bv"
	"repro/internal/netlist"
)

// TestPropagateZeroAlloc pins the tentpole property of the implication
// core: on a single-word (≤64-bit) design, one full implication pass —
// assignment, queueing, forward evaluation, backward implication over
// adders and comparators, and the backtracking trail — performs zero
// heap allocations.
func TestPropagateZeroAlloc(t *testing.T) {
	nl := netlist.New("alloc")
	a := nl.AddInput("a", 8)
	b := nl.AddInput("b", 8)
	c := nl.AddInput("c", 8)
	sum := nl.Binary(netlist.KAdd, a, b)
	diff := nl.Binary(netlist.KSub, sum, c)
	gt := nl.Binary(netlist.KGt, sum, c)
	ored := nl.Binary(netlist.KOr, diff, a)
	_ = nl.Unary(netlist.KRedOr, ored)

	pinPassZeroAlloc(t, nl, "a single-word netlist", []requirement{
		{0, a, bv.MustParse("8'b1x0x_01x1")},
		{0, gt, bv.FromUint64(1, 1)},
		{0, c, bv.MustParse("8'bxxxx_10xx")},
	})
}

// TestPropagateZeroAllocWide pins the same pass on 96-bit signals,
// which bv keeps inline: assignment, queueing, forward evaluation,
// back-implication over a subtractor, an AND and an equality, and the
// trail perform zero heap allocations.
func TestPropagateZeroAllocWide(t *testing.T) {
	nl := netlist.New("alloc96")
	a := nl.AddInput("a", 96)
	b := nl.AddInput("b", 96)
	c := nl.AddInput("c", 96)
	diff := nl.Binary(netlist.KSub, a, b)
	masked := nl.Binary(netlist.KAnd, diff, c)
	eq := nl.Binary(netlist.KEq, masked, b)

	pinPassZeroAlloc(t, nl, "a 96-bit netlist", []requirement{
		{0, a, bv.FromUint64(64, 0x0123_4567_89ab_cdef).Zext(96).WithBit(90, bv.X).WithBit(7, bv.X)},
		{0, c, bv.Ones(96).WithBit(80, bv.X).WithBit(3, bv.X)},
		{0, eq, bv.FromUint64(1, 1)},
	})
}

// pinPassZeroAlloc builds a one-frame engine over nl and pins one
// implication pass at zero allocations: open a level, assign the
// requirements, propagate, backtrack.
func pinPassZeroAlloc(t *testing.T, nl *netlist.Netlist, what string, reqs []requirement) {
	t.Helper()
	e, err := New(nl, 1, ModeProve, Limits{}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !e.propagate() {
		t.Fatal("initial propagation conflicts")
	}
	pass := func() {
		e.pushLevel()
		for _, r := range reqs {
			if !e.assign(r.frame, r.sig, r.val) {
				t.Fatal("assign conflict")
			}
		}
		if !e.propagate() {
			t.Fatal("propagation conflict")
		}
		e.popLevel()
	}
	// One warm-up pass lets every pre-sized buffer reach steady state.
	pass()
	if raceEnabled {
		t.Log("race detector enabled: exercising the pass without pinning the alloc count")
		pass()
		return
	}
	if got := testing.AllocsPerRun(100, pass); got != 0 {
		t.Errorf("full propagate pass: %.2f allocs/op on %s, want 0", got, what)
	}
}

// TestDecisionCycleZeroAlloc pins the PR 2 property of the search
// layer: one steady-state decision cycle — incremental unjustified
// frontier scan, probability-guided control decision (BFS with flat
// accumulators, pooled decision node), application, propagation and
// backtrack — performs zero heap allocations on a single-word design.
func TestDecisionCycleZeroAlloc(t *testing.T) {
	nl := netlist.New("deccycle")
	in := make([]netlist.SignalID, 6)
	for i := range in {
		in[i] = nl.AddInput(string(rune('a'+i)), 1)
	}
	o1 := nl.Binary(netlist.KOr, in[0], in[1])
	o2 := nl.Binary(netlist.KOr, o1, in[2])
	a1 := nl.Binary(netlist.KAnd, in[3], in[4])
	x1 := nl.Binary(netlist.KXor, a1, in[5])
	top := nl.Binary(netlist.KAnd, o2, x1)

	e, err := New(nl, 1, ModeProve, Limits{}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Require(0, top, bv.FromUint64(1, 1)) || !e.propagate() {
		t.Fatal("setup conflicts")
	}
	cycle := func() {
		unjust := e.unjustifiedGates()
		if len(unjust) == 0 {
			t.Fatal("nothing unjustified")
		}
		d := e.makeControlDecision(unjust)
		if d == nil {
			t.Fatal("no control decision")
		}
		e.pushLevel()
		if !e.applyAlt(d.alts[0]) || !e.propagate() {
			t.Fatal("decision conflicts")
		}
		e.popLevel()
		e.putDecision(d)
	}
	cycle() // warm up pooled scratch
	if raceEnabled {
		t.Log("race detector enabled: exercising the cycle without pinning the alloc count")
		cycle()
		return
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("decision cycle: %.2f allocs/op on a single-word netlist, want 0", got)
	}
}

// TestConflictAnalysisZeroAlloc pins the PR 3 property of the conflict
// layer: analysing a recorded conflict — trail-chain walk, reason
// recursion, level-set accumulation, activity bumps — allocates
// nothing once the pooled scratch (visited stamps, worklist, level
// sets, activity table) reaches steady state.
func TestConflictAnalysisZeroAlloc(t *testing.T) {
	nl := netlist.New("confalloc")
	a := nl.AddInput("a", 8)
	b := nl.AddInput("b", 8)
	c := nl.AddInput("c", 8)
	sum := nl.Binary(netlist.KAdd, a, b)
	diff := nl.Binary(netlist.KSub, sum, c)
	ored := nl.Binary(netlist.KOr, diff, a)
	red := nl.Unary(netlist.KRedOr, ored)
	_ = red

	e, err := New(nl, 2, ModeProve, Limits{}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !e.propagate() {
		t.Fatal("initial propagation conflicts")
	}
	// Two levels of decision-style refinements (reasonFree entries, as
	// applyAlt would tag them) give the analysis real chains to walk.
	decide := func(sig netlist.SignalID, val bv.BV) bool {
		e.pushLevel()
		return e.applyAlt(alternative{asg: []requirement{{0, sig, val}}}) && e.propagate()
	}
	if !decide(a, bv.MustParse("8'b1x0x_01x1")) {
		t.Fatal("level-1 setup conflicts")
	}
	if !decide(c, bv.MustParse("8'bxxxx_10xx")) {
		t.Fatal("level-2 setup conflicts")
	}
	redGate := nl.Signals[red].Driver
	var set []uint64
	pass := func() {
		e.setConflictGate(gateAt{0, redGate})
		set = set[:0]
		e.analyzeConflictInto(&set, e.level())
		e.endConflict()
		if len(set) == 0 {
			t.Fatal("analysis found no levels")
		}
	}
	pass() // warm up pooled scratch and the activity table
	if raceEnabled {
		t.Log("race detector enabled: exercising the analysis without pinning the alloc count")
		pass()
		return
	}
	if got := testing.AllocsPerRun(100, pass); got != 0 {
		t.Errorf("conflict analysis: %.2f allocs/op, want 0", got)
	}
}
