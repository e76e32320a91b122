package core

import (
	"testing"

	"repro/internal/bv"
	"repro/internal/elab"
	"repro/internal/estg"
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
// property again and again on one session: its store's no-counterexample
// cache covers the depths earlier checks exhausted, and a covered depth
// must end the check exactly as its search did — proved (or no witness)
// at depth 1 every time, never a later depth or a bounded verdict.
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
		for i := 0; i < 6; i++ {
			if res := c.Check(tc.p); res.Verdict != tc.want || res.Depth != 1 {
				t.Errorf("%s check %d: %v at depth %d, want %v at depth 1", tc.name, i+1, res.Verdict, res.Depth, tc.want)
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

func TestSequentialFalsified(t *testing.T) {
	// Buggy wrap at 6 means q reaches 6: violates q <= 5.
	src := `
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
	nl := elaborate(t, src, "counter")
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

func TestEstgStoreAccelerates(t *testing.T) {
	nl := elaborate(t, counterSrc, "counter")
	b := property.Builder{NL: nl}
	q, _ := nl.SignalByName("q")
	mon := b.InRange(q, 0, 5)
	store := estg.NewStore()
	c, _ := New(nl, Options{MaxDepth: 6, Store: store})
	p, _ := property.NewInvariant(nl, "counter-range", mon)
	r1 := c.Check(p)
	r2 := c.Check(p) // second run hits the cached no-cex results
	if r1.Verdict != r2.Verdict {
		t.Fatalf("verdicts differ: %v vs %v", r1.Verdict, r2.Verdict)
	}
	if r2.Stats.Decisions > r1.Stats.Decisions {
		t.Errorf("cached rerun used more decisions (%d > %d)", r2.Stats.Decisions, r1.Stats.Decisions)
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
