package core

import (
	"context"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bv"
	"repro/internal/elab"
	"repro/internal/netlist"
	"repro/internal/property"
	"repro/internal/verilog"
)

func elaborate(t *testing.T, src, top string) *netlist.Netlist {
	t.Helper()
	ast, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := elab.Elaborate(ast, top, nil)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// decoderSrc is a 2-to-4 decoder: its output is always one-hot.
const decoderSrc = `
module dec(sel, y);
  input [1:0] sel;
  output reg [3:0] y;
  always @(*) begin
    case (sel)
      2'd0: y = 4'b0001;
      2'd1: y = 4'b0010;
      2'd2: y = 4'b0100;
      default: y = 4'b1000;
    endcase
  end
endmodule
`

func TestCombinationalInvariantProved(t *testing.T) {
	// A 2-to-4 decoder output is always one-hot: provable in one frame.
	nl := elaborate(t, decoderSrc, "dec")
	b := property.Builder{NL: nl}
	ySig, _ := nl.SignalByName("y")
	mon := b.ExactlyOneBus(ySig)
	p, err := property.NewInvariant(nl, "dec-onehot", mon)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := c.Check(p)
	if res.Verdict != VerdictProved {
		t.Fatalf("verdict = %v, want proved", res.Verdict)
	}
}

// TestCombinationalRecheckKeepsDepth checks a combinational-cone
// property again and again on one session. A session keeps no search
// state between checks, so every repeat must be the first check again:
// proved (or no witness) at depth 1, never a later depth or a bounded
// verdict, with the same effort counters.
func TestCombinationalRecheckKeepsDepth(t *testing.T) {
	nl := elaborate(t, decoderSrc, "dec")
	b := property.Builder{NL: nl}
	ySig, _ := nl.SignalByName("y")
	inv, err := property.NewInvariant(nl, "dec-onehot", b.ExactlyOneBus(ySig))
	if err != nil {
		t.Fatal(err)
	}
	wit, err := property.NewWitness(nl, "dec-two-hot", b.Equals(ySig, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		p         property.Property
		induction bool
		want      Verdict
	}{
		{"invariant", inv, false, VerdictProved},
		{"invariant+induction", inv, true, VerdictProved},
		{"witness", wit, false, VerdictNoWitness},
	} {
		c, err := New(nl, Options{MaxDepth: 5, UseInduction: tc.induction})
		if err != nil {
			t.Fatal(err)
		}
		var first atpg.Stats
		for i := 0; i < 6; i++ {
			res := c.Check(tc.p)
			if res.Verdict != tc.want || res.Depth != 1 {
				t.Errorf("%s check %d: %v at depth %d, want %v at depth 1", tc.name, i+1, res.Verdict, res.Depth, tc.want)
			}
			if i == 0 {
				first = res.Stats
			} else if res.Stats != first {
				t.Errorf("%s check %d: stats\n %+v\ndiffer from the first check's\n %+v", tc.name, i+1, res.Stats, first)
			}
		}
	}
}

func TestCombinationalInvariantFalsified(t *testing.T) {
	// Planted bug: sel==3 drives two lines.
	nl := elaborate(t, `
module dec(sel, y);
  input [1:0] sel;
  output reg [3:0] y;
  always @(*) begin
    case (sel)
      2'd0: y = 4'b0001;
      2'd1: y = 4'b0010;
      2'd2: y = 4'b0100;
      default: y = 4'b1001;
    endcase
  end
endmodule
`, "dec")
	b := property.Builder{NL: nl}
	ySig, _ := nl.SignalByName("y")
	mon := b.AtMostOneBus(ySig)
	p, _ := property.NewInvariant(nl, "dec-buggy", mon)
	c, _ := New(nl, Options{})
	res := c.Check(p)
	if res.Verdict != VerdictFalsified {
		t.Fatalf("verdict = %v, want falsified", res.Verdict)
	}
	if !res.Validated || res.Trace == nil {
		t.Error("counterexample not validated")
	}
	if res.Depth != 1 {
		t.Errorf("depth = %d, want 1", res.Depth)
	}
}

const counterSrc = `
module counter(clk, rst, en, q);
  input clk, rst, en;
  output [2:0] q;
  reg [2:0] q;
  always @(posedge clk or posedge rst) begin
    if (rst) q <= 3'd0;
    else if (en) begin
      if (q == 3'd5) q <= 3'd0;
      else q <= q + 1;
    end
  end
  initial q = 3'd0;
endmodule
`

func TestSequentialInvariantBounded(t *testing.T) {
	// Counter wraps at 5, so q <= 5 always. Requires assuming reset is
	// inactive? No: reset forces 0, still <= 5.
	nl := elaborate(t, counterSrc, "counter")
	b := property.Builder{NL: nl}
	q, _ := nl.SignalByName("q")
	mon := b.InRange(q, 0, 5)
	p, _ := property.NewInvariant(nl, "counter-range", mon)
	c, _ := New(nl, Options{MaxDepth: 8, UseInduction: true})
	res := c.Check(p)
	if res.Verdict != VerdictProved && res.Verdict != VerdictProvedBounded {
		t.Fatalf("verdict = %v, want proved(-bounded)", res.Verdict)
	}
	// Induction should close this: from q<=5, next is <= 5.
	if res.Verdict != VerdictProved {
		t.Errorf("induction did not close the proof: %v", res.Verdict)
	}
}

// counterBugSrc wraps at 6, so q reaches 6 and violates q <= 5.
const counterBugSrc = `
module counter(clk, rst, en, q);
  input clk, rst, en;
  output [2:0] q;
  reg [2:0] q;
  always @(posedge clk or posedge rst) begin
    if (rst) q <= 3'd0;
    else if (en) begin
      if (q == 3'd6) q <= 3'd0;
      else q <= q + 1;
    end
  end
  initial q = 3'd0;
endmodule
`

func TestSequentialFalsified(t *testing.T) {
	nl := elaborate(t, counterBugSrc, "counter")
	b := property.Builder{NL: nl}
	q, _ := nl.SignalByName("q")
	mon := b.InRange(q, 0, 5)
	p, _ := property.NewInvariant(nl, "counter-bug", mon)
	c, _ := New(nl, Options{MaxDepth: 10})
	res := c.Check(p)
	if res.Verdict != VerdictFalsified {
		t.Fatalf("verdict = %v, want falsified", res.Verdict)
	}
	if res.Depth < 6 {
		t.Errorf("counterexample depth %d suspiciously short", res.Depth)
	}
	if !res.Validated {
		t.Error("trace failed validation")
	}
}

// TestSameNameOtherAssumptions: one session checks q in [0,5] of the
// wrap-at-6 counter under en == 0, where it holds, and then the same
// named property alone. The second check must search for itself and
// find the violation at depth 7 (q counts 0..6 over frames 0..6).
func TestSameNameOtherAssumptions(t *testing.T) {
	nl := elaborate(t, counterBugSrc, "counter")
	b := property.Builder{NL: nl}
	q, _ := nl.SignalByName("q")
	en, _ := nl.SignalByName("en")
	p, err := property.NewInvariant(nl, "counter-bug", b.InRange(q, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	idle := p.WithAssume(b.Equals(en, 0))
	c, err := New(nl, Options{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res := c.Check(idle); res.Verdict != VerdictProvedBounded {
		t.Fatalf("under en == 0: %v, want proved-bounded", res.Verdict)
	}
	res := c.Check(p)
	if res.Verdict != VerdictFalsified || res.Depth != 7 || !res.Validated {
		t.Errorf("alone after the assumed check: %v at depth %d (validated %v, %d implications), want a validated falsification at depth 7",
			res.Verdict, res.Depth, res.Validated, res.Stats.Implications)
	}
}

func TestWitnessGeneration(t *testing.T) {
	// Witness: q reaches 3 (needs 4 frames: init + 3 increments).
	nl := elaborate(t, counterSrc, "counter")
	b := property.Builder{NL: nl}
	q, _ := nl.SignalByName("q")
	target := b.Reaches(q, 3)
	p, _ := property.NewWitness(nl, "counter-reach3", target)
	c, _ := New(nl, Options{MaxDepth: 10})
	res := c.Check(p)
	if res.Verdict != VerdictWitnessFound {
		t.Fatalf("verdict = %v, want witness-found", res.Verdict)
	}
	if !res.Validated {
		t.Error("witness failed validation")
	}
	if res.Depth != 4 {
		t.Errorf("witness depth = %d, want 4 (shortest)", res.Depth)
	}
}

func TestWitnessImpossible(t *testing.T) {
	// q never reaches 7 (wraps at 5).
	nl := elaborate(t, counterSrc, "counter")
	b := property.Builder{NL: nl}
	q, _ := nl.SignalByName("q")
	target := b.Reaches(q, 7)
	p, _ := property.NewWitness(nl, "counter-reach7", target)
	c, _ := New(nl, Options{MaxDepth: 8})
	res := c.Check(p)
	if res.Verdict != VerdictNoWitness {
		t.Fatalf("verdict = %v, want no-witness", res.Verdict)
	}
}

func TestAssumptionsConstrainSearch(t *testing.T) {
	// Without assumptions the two enables can collide; assuming the
	// environment keeps them exclusive, contention is impossible.
	src := `
module bus2(en0, en1, d0, d1);
  input en0, en1;
  input [7:0] d0, d1;
endmodule
`
	nl := elaborate(t, src, "bus2")
	b := property.Builder{NL: nl}
	en0, _ := nl.SignalByName("en0")
	en1, _ := nl.SignalByName("en1")
	d0, _ := nl.SignalByName("d0")
	d1, _ := nl.SignalByName("d1")
	mon := b.NoBusContention([]netlist.SignalID{en0, en1}, []netlist.SignalID{d0, d1})
	excl := b.AtMostOne(en0, en1)

	pNoAssume, _ := property.NewInvariant(nl, "bus2-free", mon)
	c, _ := New(nl, Options{})
	if res := c.Check(pNoAssume); res.Verdict != VerdictFalsified {
		t.Fatalf("unconstrained: %v, want falsified", res.Verdict)
	}
	pAssume, _ := property.NewInvariant(nl, "bus2-excl", mon)
	pAssume = pAssume.WithAssume(excl)
	if res := c.Check(pAssume); res.Verdict != VerdictProved {
		t.Fatalf("constrained: %v, want proved", res.Verdict)
	}
}

func TestDatapathProperty(t *testing.T) {
	// sum = a + b (4-bit): "sum never equals 9 when a == 4" is false —
	// the solver must find b = 5 through the arithmetic solver.
	src := `
module dp(a, b, sum);
  input [3:0] a, b;
  output [3:0] sum;
  assign sum = a + b;
endmodule
`
	nl := elaborate(t, src, "dp")
	b := property.Builder{NL: nl}
	aSig, _ := nl.SignalByName("a")
	sumSig, _ := nl.SignalByName("sum")
	aIs4 := b.Equals(aSig, 4)
	sumIs9 := b.Equals(sumSig, 9)
	bad := nl.Binary(netlist.KAnd, aIs4, sumIs9)
	mon := nl.Unary(netlist.KNot, bad)
	p, _ := property.NewInvariant(nl, "dp-sum9", mon)
	c, _ := New(nl, Options{})
	res := c.Check(p)
	if res.Verdict != VerdictFalsified {
		t.Fatalf("verdict = %v, want falsified", res.Verdict)
	}
	in := res.Trace.Inputs[0]
	av, _ := in[aSig].Uint64()
	bSig, _ := nl.SignalByName("b")
	bvv, _ := in[bSig].Uint64()
	if av != 4 || (av+bvv)&0xf != 9 {
		t.Errorf("trace a=%d b=%d does not witness sum 9", av, bvv)
	}
}

// TestCheckAllRepeatedPropertyMatchesFresh: a batch that names one
// true invariant twice gives both records the effort counters of a
// fresh single check, with one worker and with two. Neither copy may
// learn from the other.
func TestCheckAllRepeatedPropertyMatchesFresh(t *testing.T) {
	nl := elaborate(t, counterSrc, "counter")
	b := property.Builder{NL: nl}
	q, _ := nl.SignalByName("q")
	p, err := property.NewInvariant(nl, "counter-range", b.InRange(q, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxDepth: 6}
	fresh, err := New(nl, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Check(p)
	if want.Verdict != VerdictProvedBounded || want.Stats.Implications == 0 {
		t.Fatalf("fresh check: %v after %d implications, want proved-bounded after a search", want.Verdict, want.Stats.Implications)
	}
	for _, jobs := range []int{1, 2} {
		c, err := New(nl, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range c.CheckAll(context.Background(), []property.Property{p, p}, BatchOptions{Jobs: jobs}) {
			if res.Verdict != want.Verdict || res.Depth != want.Depth || res.Stats != want.Stats {
				t.Errorf("jobs %d, copy %d: %v at depth %d with stats\n %+v\nwant the fresh check's %v at depth %d with\n %+v",
					jobs, i, res.Verdict, res.Depth, res.Stats, want.Verdict, want.Depth, want.Stats)
			}
		}
	}
}

// TestShiftAmountChecks: a shift amount wider than 64 bits goes
// through the search and the counterexample replay. ok is the
// invariant the BDD engine proves; ok2 fails for a = 8'hff shifted by
// 8 or more. ok3 fails for c = 12, an amount past the width that the
// cube c[2] = 1 allows although 8 is not in it.
func TestShiftAmountChecks(t *testing.T) {
	src := `
module wshift(a, b, c, ok, ok2, ok3);
  input [7:0] a;
  input [64:0] b;
  input [7:0] c;
  output ok, ok2, ok3;
  wire [7:0] y;
  wire [7:0] z;
  assign y = a << b;
  assign z = a << c;
  assign ok = (y != 8'd255) | 1'b1;
  assign ok2 = ~((a == 8'hff) & (y == 8'd0));
  assign ok3 = ~(c[2] & (a == 8'hff) & (z == 8'd0));
endmodule
`
	nl := elaborate(t, src, "wshift")
	props, err := property.FromNames(nl, []string{"ok", "ok2", "ok3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(nl, Options{MaxDepth: 2, UseInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	if res := c.Check(props[0]); res.Verdict != VerdictProved {
		t.Errorf("ok: %v, want proved", res.Verdict)
	}
	for _, p := range props[1:] {
		if res := c.Check(p); res.Verdict != VerdictFalsified || !res.Validated {
			t.Errorf("%s: %v (validated %t), want a validated falsification", p.Name, res.Verdict, res.Validated)
		}
	}
}

// TestXDesignsNeverProved: with q reset to 0 and updated to 1'bx, or
// to a ? 1'bx : 1'b0, the invariant q == 0 fails one step after reset,
// since an x source is an unconstrained value. At depth 4 the
// portfolio answers falsified, by the BDD engine, and never proved.
// BMC's counterexample depends on the x choice, which replay does not
// yet follow, so BMC's and ATPG's verdicts are not pinned here.
func TestXDesignsNeverProved(t *testing.T) {
	for _, next := range []string{"1'bx", "a ? 1'bx : 1'b0"} {
		src := `
module xq(clk, a, ok);
  input clk;
  input a;
  output ok;
  reg q;
  assign ok = (q == 1'b0);
  always @(posedge clk) q <= ` + next + `;
  initial q = 1'b0;
endmodule
`
		nl := elaborate(t, src, "xq")
		props, err := property.FromNames(nl, []string{"ok"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(nl, Options{MaxDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		res := c.Portfolio().Check(context.Background(), Problem{NL: nl, Prop: props[0], MaxDepth: 4})
		if res.Verdict != VerdictFalsified || res.Engine != EngineBDD {
			t.Errorf("q <= %s: portfolio %v [%s], want falsified [%s]", next, res.Verdict, res.Engine, EngineBDD)
		}
	}
}

func TestUninitializedRegisterCex(t *testing.T) {
	// An uninitialized 1-bit register can violate "q is always 0".
	src := `
module ur(clk, q);
  input clk;
  output q;
  reg q;
  always @(posedge clk) q <= q;
endmodule
`
	nl := elaborate(t, src, "ur")
	qSig, _ := nl.SignalByName("q")
	mon := nl.Unary(netlist.KNot, qSig)
	p, _ := property.NewInvariant(nl, "ur-zero", mon)
	c, _ := New(nl, Options{MaxDepth: 3})
	res := c.Check(p)
	if res.Verdict != VerdictFalsified {
		t.Fatalf("verdict = %v, want falsified", res.Verdict)
	}
	if v, ok := res.InitState[qSig]; !ok {
		t.Error("init state for uninitialized register missing")
	} else if u, _ := v.Uint64(); u != 1 {
		t.Errorf("pinned init = %v, want 1", v)
	}
}

func TestResultMetadata(t *testing.T) {
	nl := elaborate(t, counterSrc, "counter")
	b := property.Builder{NL: nl}
	q, _ := nl.SignalByName("q")
	p, _ := property.NewInvariant(nl, "meta", b.InRange(q, 0, 5))
	c, _ := New(nl, Options{MaxDepth: 4})
	res := c.Check(p)
	if res.Property != "meta" {
		t.Errorf("property name = %q", res.Property)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not measured")
	}
	if res.AllocBytes == 0 {
		t.Error("alloc bytes not measured")
	}
	_ = bv.BV{}
}
