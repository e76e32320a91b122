package core

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bv"
	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/internal/property"
	"repro/internal/sim"
)

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

// TestInterleavedInductionFalsified checks a falsified invariant on the
// arbiter: the pre-check, the bounded search at depth 1 and the step at
// k = 1 all fail to settle it, and the bounded search at depth 2 finds
// the counterexample. The result keeps the bounded search's verdict,
// depth and trace; its counters include the two failed steps.
func TestInterleavedInductionFalsified(t *testing.T) {
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

// The result of TestInterleavedInductionFalsified.
var (
	wantFalsifiedTrace = "clk=1'b0 req=16'b1000000000000000 rst=1'b0 | clk=1'b0 req=16'b0000000000000000 rst=1'b0"
	wantFalsifiedStats = atpg.Stats{Decisions: 5, Implications: 7519, ArithCalls: 2, MaxTrail: 1111, FrontierScans: 8,
		FrontierChecks: 2433, FrontierSkips: 5085, BitSkips: 2139}
)

// TestStepFollowsBoundedDepth: q resets to 0 and is 1 from then on, so
// the invariant q fails at reset only. The step at k = 1 closes (q = 1
// stays 1), so it is sound only after the bounded search at depth 1,
// which finds the counterexample first.
func TestStepFollowsBoundedDepth(t *testing.T) {
	nl := netlist.New("resetonly")
	q := nl.DffPlaceholder(1, bv.FromUint64(1, 0), "q")
	nl.ConnectDff(q, nl.ConstUint(1, 1))
	p, err := property.NewInvariant(nl, "q", q)
	if err != nil {
		t.Fatal(err)
	}
	for _, noFSM := range []bool{false, true} {
		c, err := New(nl, Options{MaxDepth: 4, UseInduction: true, DisableLocalFSM: noFSM})
		if err != nil {
			t.Fatal(err)
		}
		res := c.Check(p)
		if res.Verdict != VerdictFalsified || res.Depth != 1 || !res.Validated {
			t.Errorf("local FSMs off %v: got %v at depth %d (validated %v), want a validated falsification at depth 1",
				noFSM, res.Verdict, res.Depth, res.Validated)
		}
	}
}

// relSrc keeps two 8-bit registers equal, so a[0] == b[0] always
// holds. Each register alone takes every value, so the per-register
// machines cannot see the relation and the pre-check fails; the step
// at k = 1 closes.
const relSrc = `
module rel(clk, en, d, ok);
  input clk, en;
  input [7:0] d;
  output ok;
  reg [7:0] a;
  reg [7:0] b;
  assign ok = a[0] == b[0];
  always @(posedge clk) begin
    if (en) begin
      a <= a + d;
      b <= b + d;
    end
  end
  initial a = 8'd0;
  initial b = 8'd0;
endmodule
`

func relInvariant(t *testing.T) (*Design, property.Property) {
	t.Helper()
	nl := elaborate(t, relSrc, "rel")
	ps, err := property.FromNames(nl, []string{"ok"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DesignFor(nl)
	if err != nil {
		t.Fatal(err)
	}
	return d, ps[0]
}

// TestRelationalInvariantProvedAtFirstStep: the pre-check fails, the
// bounded search at depth 1 finds nothing and the step at k = 1
// closes, so the invariant is proved at depth 1 with the same counters
// whatever the depth bound.
func TestRelationalInvariantProvedAtFirstStep(t *testing.T) {
	d, p := relInvariant(t)
	var first Result
	for _, depth := range []int{4, 16} {
		sess, err := d.NewSession(Options{MaxDepth: depth, UseInduction: true})
		if err != nil {
			t.Fatal(err)
		}
		if depth == 4 {
			prep, err := d.ATPGPrep()
			if err != nil {
				t.Fatal(err)
			}
			if st, _ := sess.inductionStep(context.Background(), prep, p, 0, atpg.Limits{}); st == atpg.StatusUnsat {
				t.Fatal("the pre-check closes; the test needs a step after a bounded depth")
			}
		}
		res := sess.Check(p)
		if res.Verdict != VerdictProved || res.Depth != 1 {
			t.Fatalf("MaxDepth %d: got %v at depth %d, want proved at depth 1", depth, res.Verdict, res.Depth)
		}
		if depth == 4 {
			first = res
		} else if res.Stats != first.Stats {
			t.Errorf("MaxDepth 16 stats\n %+v\ndiffer from MaxDepth 4\n %+v", res.Stats, first.Stats)
		}
	}
}

// TestInductionBudgetPerCheck: without its local FSMs token_ring48/p3
// is not inductive at any k up to 3, and the pre-check and the three
// steps share one InductionDecisions budget. They take at most one
// decision past it together; with a budget per step they took that
// much each.
func TestInductionBudgetPerCheck(t *testing.T) {
	cd, err := circuits.TokenRing(48)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 200
	run := func(induct bool) Result {
		c, err := New(cd.NL, Options{MaxDepth: 3, UseInduction: induct, InductionDecisions: budget, DisableLocalFSM: true})
		if err != nil {
			t.Fatal(err)
		}
		return c.Check(cd.Props[0])
	}
	bounded, res := run(false), run(true)
	if res.Verdict != VerdictProvedBounded {
		t.Fatalf("verdict %v, want proved-bounded", res.Verdict)
	}
	if steps := res.Stats.Decisions - bounded.Stats.Decisions; steps != budget+1 {
		t.Errorf("the pre-check and steps took %d decisions, want the budget %d plus the one that stops the search", steps, budget)
	}
}
