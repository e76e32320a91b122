package elab

import (
	"testing"

	"repro/internal/bv"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/verilog"
)

func mustElab(t *testing.T, src, top string) *netlist.Netlist {
	t.Helper()
	ast, err := verilog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	nl, err := Elaborate(ast, top, nil)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return nl
}

func mustSim(t *testing.T, nl *netlist.Netlist) *sim.Simulator {
	t.Helper()
	s, err := sim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCombinationalAssign(t *testing.T) {
	nl := mustElab(t, `
module add8(a, b, y, gt);
  input [7:0] a, b;
  output [7:0] y;
  output gt;
  assign y = a + b;
  assign gt = a > b;
endmodule
`, "add8")
	s := mustSim(t, nl)
	s.SetInputName("a", bv.FromUint64(8, 200))
	s.SetInputName("b", bv.FromUint64(8, 100))
	s.Eval()
	y, _ := s.GetName("y")
	if v, _ := y.Uint64(); v != 44 { // 300 mod 256
		t.Errorf("y = %d, want 44 (modular wrap)", v)
	}
	gt, _ := s.GetName("gt")
	if v, _ := gt.Uint64(); v != 1 {
		t.Errorf("gt = %d, want 1", v)
	}
}

func TestSequentialCounterWithAsyncReset(t *testing.T) {
	nl := mustElab(t, `
module counter(clk, rst, en, q);
  input clk, rst, en;
  output [3:0] q;
  reg [3:0] q;
  always @(posedge clk or posedge rst) begin
    if (rst) q <= 4'd0;
    else if (en) q <= q + 1;
  end
endmodule
`, "counter")
	if len(nl.FFs) != 1 {
		t.Fatalf("FFs = %d, want 1", len(nl.FFs))
	}
	s := mustSim(t, nl)
	set := func(rst, en uint64) {
		s.SetInputName("rst", bv.FromUint64(1, rst))
		s.SetInputName("en", bv.FromUint64(1, en))
	}
	set(1, 0)
	s.Step() // reset
	if q, _ := s.GetName("q"); q.String() != "4'b0000" {
		t.Fatalf("q after reset = %v", q)
	}
	set(0, 1)
	for i := 0; i < 5; i++ {
		s.Step()
	}
	if q, _ := s.GetName("q"); q.String() != "4'b0101" {
		t.Errorf("q after 5 = %v", q)
	}
	set(0, 0)
	s.Step()
	if q, _ := s.GetName("q"); q.String() != "4'b0101" {
		t.Errorf("q should hold, got %v", q)
	}
}

// TestInitialBlock: initial assignments set whole registers, selects
// of them and memory words, also through a concatenation; a bit no
// initial assignment sets stays x.
func TestInitialBlock(t *testing.T) {
	nl := mustElab(t, `
module m(clk, d, q, p, w);
  input clk; input [2:0] d; output [2:0] q; output [3:0] p; output [1:0] w;
  reg [2:0] q;
  reg [3:0] p;
  reg [1:0] mem [0:1];
  initial q = 3'd5;
  initial {p[3:2], mem[1]} = 4'b1001;
  initial p[0] = 1'b1;
  always @(posedge clk) begin
    q <= d;
    p <= p;
  end
  assign w = mem[1];
endmodule
`, "m")
	s := mustSim(t, nl)
	s.Eval()
	for name, want := range map[string]string{"q": "3'b101", "p": "4'b10x1", "w": "2'b01"} {
		if v, _ := s.GetName(name); v.String() != want {
			t.Errorf("initial %s = %v, want %s", name, v, want)
		}
	}
}

func TestCombAlwaysCaseWithDefault(t *testing.T) {
	nl := mustElab(t, `
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
`, "dec")
	s := mustSim(t, nl)
	for sel, want := range map[uint64]uint64{0: 1, 1: 2, 2: 4, 3: 8} {
		s.SetInputName("sel", bv.FromUint64(2, sel))
		s.Eval()
		y, _ := s.GetName("y")
		if v, _ := y.Uint64(); v != want {
			t.Errorf("sel=%d: y=%v, want %d", sel, y, want)
		}
	}
}

func TestIfElseChainPriority(t *testing.T) {
	nl := mustElab(t, `
module pri(a, b, y);
  input a, b;
  output reg [1:0] y;
  always @(*) begin
    y = 2'd0;
    if (a) y = 2'd1;
    else if (b) y = 2'd2;
  end
endmodule
`, "pri")
	s := mustSim(t, nl)
	cases := []struct{ a, b, want uint64 }{{0, 0, 0}, {1, 0, 1}, {0, 1, 2}, {1, 1, 1}}
	for _, c := range cases {
		s.SetInputName("a", bv.FromUint64(1, c.a))
		s.SetInputName("b", bv.FromUint64(1, c.b))
		s.Eval()
		y, _ := s.GetName("y")
		if v, _ := y.Uint64(); v != c.want {
			t.Errorf("a=%d b=%d: y=%v want %d", c.a, c.b, y, c.want)
		}
	}
}

func TestHierarchyAndParams(t *testing.T) {
	nl := mustElab(t, `
module addN #(parameter N = 4) (x, y, s);
  input [N-1:0] x, y;
  output [N-1:0] s;
  assign s = x + y;
endmodule

module top(a, b, c, out);
  input [7:0] a, b, c;
  output [7:0] out;
  wire [7:0] t;
  addN #(.N(8)) u1 (.x(a), .y(b), .s(t));
  addN #(.N(8)) u2 (.x(t), .y(c), .s(out));
endmodule
`, "top")
	s := mustSim(t, nl)
	s.SetInputName("a", bv.FromUint64(8, 10))
	s.SetInputName("b", bv.FromUint64(8, 20))
	s.SetInputName("c", bv.FromUint64(8, 30))
	s.Eval()
	out, _ := s.GetName("out")
	if v, _ := out.Uint64(); v != 60 {
		t.Errorf("out = %v, want 60", out)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	nl := mustElab(t, `
module ram(clk, we, waddr, raddr, din, dout);
  input clk, we;
  input [1:0] waddr, raddr;
  input [7:0] din;
  output [7:0] dout;
  reg [7:0] mem [0:3];
  always @(posedge clk) begin
    if (we) mem[waddr] <= din;
  end
  assign dout = mem[raddr];
endmodule
`, "ram")
	if len(nl.FFs) != 4 {
		t.Fatalf("memory should expand to 4 registers, got %d", len(nl.FFs))
	}
	s := mustSim(t, nl)
	write := func(addr, val uint64) {
		s.SetInputName("we", bv.FromUint64(1, 1))
		s.SetInputName("waddr", bv.FromUint64(2, addr))
		s.SetInputName("din", bv.FromUint64(8, val))
		s.Step()
	}
	write(0, 0xaa)
	write(2, 0x55)
	s.SetInputName("we", bv.FromUint64(1, 0))
	s.SetInputName("raddr", bv.FromUint64(2, 2))
	s.Eval()
	dout, _ := s.GetName("dout")
	if v, _ := dout.Uint64(); v != 0x55 {
		t.Errorf("dout = %v, want 0x55", dout)
	}
	s.SetInputName("raddr", bv.FromUint64(2, 0))
	s.Eval()
	dout, _ = s.GetName("dout")
	if v, _ := dout.Uint64(); v != 0xaa {
		t.Errorf("dout = %v, want 0xaa", dout)
	}
}

func TestForLoopUnroll(t *testing.T) {
	nl := mustElab(t, `
module rev(a, y);
  input [3:0] a;
  output reg [3:0] y;
  integer i;
  always @(*) begin
    y = 4'd0;
    for (i = 0; i < 4; i = i + 1) begin
      y[i] = a[3 - i];
    end
  end
endmodule
`, "rev")
	s := mustSim(t, nl)
	s.SetInputName("a", bv.MustParse("4'b1010"))
	s.Eval()
	y, _ := s.GetName("y")
	if y.String() != "4'b0101" {
		t.Errorf("y = %v, want reversed 0101", y)
	}
}

func TestConcatPartSelect(t *testing.T) {
	nl := mustElab(t, `
module cps(a, b, y, hi);
  input [3:0] a, b;
  output [7:0] y;
  output [1:0] hi;
  assign y = {a, b};
  assign hi = y[7:6];
endmodule
`, "cps")
	s := mustSim(t, nl)
	s.SetInputName("a", bv.MustParse("4'b1100"))
	s.SetInputName("b", bv.MustParse("4'b0011"))
	s.Eval()
	y, _ := s.GetName("y")
	if y.String() != "8'b11000011" {
		t.Errorf("y = %v", y)
	}
	hi, _ := s.GetName("hi")
	if hi.String() != "2'b11" {
		t.Errorf("hi = %v", hi)
	}
}

func TestTernaryAndReduction(t *testing.T) {
	nl := mustElab(t, `
module tr(sel, a, b, y, anyb);
  input sel;
  input [3:0] a, b;
  output [3:0] y;
  output anyb;
  assign y = sel ? a : b;
  assign anyb = |b;
endmodule
`, "tr")
	s := mustSim(t, nl)
	s.SetInputName("sel", bv.FromUint64(1, 1))
	s.SetInputName("a", bv.FromUint64(4, 9))
	s.SetInputName("b", bv.FromUint64(4, 0))
	s.Eval()
	y, _ := s.GetName("y")
	if v, _ := y.Uint64(); v != 9 {
		t.Errorf("y = %v", y)
	}
	anyb, _ := s.GetName("anyb")
	if v, _ := anyb.Uint64(); v != 0 {
		t.Errorf("anyb = %v", anyb)
	}
}

func TestCombCycleDetected(t *testing.T) {
	ast, err := verilog.Parse(`
module loop(y);
  output y;
  wire a, b;
  assign a = b;
  assign b = a;
  assign y = a;
endmodule
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Elaborate(ast, "loop", nil); err == nil {
		t.Error("combinational cycle not detected")
	}
}

func TestMultipleDriversRejected(t *testing.T) {
	ast, err := verilog.Parse(`
module md(a, y);
  input a; output y;
  assign y = a;
  assign y = ~a;
endmodule
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Elaborate(ast, "md", nil); err == nil {
		t.Error("multiple drivers not detected")
	}
}

func TestPartSelectDrivers(t *testing.T) {
	nl := mustElab(t, `
module psd(a, b, y);
  input [3:0] a, b;
  output [7:0] y;
  assign y[7:4] = a;
  assign y[3:0] = b;
endmodule
`, "psd")
	s := mustSim(t, nl)
	s.SetInputName("a", bv.FromUint64(4, 0xc))
	s.SetInputName("b", bv.FromUint64(4, 0x3))
	s.Eval()
	y, _ := s.GetName("y")
	if v, _ := y.Uint64(); v != 0xc3 {
		t.Errorf("y = %v, want 0xc3", y)
	}
}

func TestShiftOps(t *testing.T) {
	nl := mustElab(t, `
module sh(a, n, l, r);
  input [7:0] a; input [2:0] n;
  output [7:0] l, r;
  assign l = a << n;
  assign r = a >> n;
endmodule
`, "sh")
	s := mustSim(t, nl)
	s.SetInputName("a", bv.FromUint64(8, 0x81))
	s.SetInputName("n", bv.FromUint64(3, 1))
	s.Eval()
	l, _ := s.GetName("l")
	r, _ := s.GetName("r")
	if v, _ := l.Uint64(); v != 0x02 {
		t.Errorf("l = %v", l)
	}
	if v, _ := r.Uint64(); v != 0x40 {
		t.Errorf("r = %v", r)
	}
}

func TestCasez(t *testing.T) {
	nl := mustElab(t, `
module cz(x, y);
  input [3:0] x;
  output reg [1:0] y;
  always @(*) begin
    casez (x)
      4'b1xxx: y = 2'd3;
      4'b01xx: y = 2'd2;
      4'b001x: y = 2'd1;
      default: y = 2'd0;
    endcase
  end
endmodule
`, "cz")
	s := mustSim(t, nl)
	for _, c := range []struct{ x, want uint64 }{{0b1010, 3}, {0b0110, 2}, {0b0011, 1}, {0b0001, 0}} {
		s.SetInputName("x", bv.FromUint64(4, c.x))
		s.Eval()
		y, _ := s.GetName("y")
		if v, _ := y.Uint64(); v != c.want {
			t.Errorf("x=%04b: y=%v want %d", c.x, y, c.want)
		}
	}
}

func TestNegedgeResetActiveLow(t *testing.T) {
	nl := mustElab(t, `
module alr(clk, rst_n, d, q);
  input clk, rst_n, d;
  output reg q;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 1'b0;
    else q <= d;
  end
endmodule
`, "alr")
	s := mustSim(t, nl)
	s.SetInputName("rst_n", bv.FromUint64(1, 0))
	s.SetInputName("d", bv.FromUint64(1, 1))
	s.Step()
	q, _ := s.GetName("q")
	if v, _ := q.Uint64(); v != 0 {
		t.Errorf("q under reset = %v", q)
	}
	s.SetInputName("rst_n", bv.FromUint64(1, 1))
	s.Step()
	q, _ = s.GetName("q")
	if v, _ := q.Uint64(); v != 1 {
		t.Errorf("q after reset release = %v", q)
	}
}

// TestConcatenatedTargets: continuous assignments, a combinational
// block and a sequential block each assign one value to a
// concatenation, whose pieces take its bits most significant first. One
// continuous assignment drives two pieces of one net; the sequential
// block writes a memory word beside a register.
func TestConcatenatedTargets(t *testing.T) {
	nl := mustElab(t, `
module cat(clk, a, b, c, s, sw, q, r, w1, rr);
  input clk;
  input [3:0] a, b;
  output c;
  output [3:0] s;
  output [1:0] sw;
  output [1:0] q;
  output r;
  output [3:0] w1;
  output rr;
  reg [1:0] q;
  reg r, rr;
  reg [3:0] mem [0:3];
  assign {c, s} = a + b;
  assign {sw[0], sw[1]} = a[1:0];
  always @(*) {q, r} = a[2:0];
  always @(posedge clk) {mem[1], rr} <= {b, a[0]};
  assign w1 = mem[1];
endmodule
`, "cat")
	s := mustSim(t, nl)
	get := func(name string) uint64 {
		t.Helper()
		v, err := s.GetName(name)
		if err != nil {
			t.Fatal(err)
		}
		u, ok := v.Uint64()
		if !ok {
			t.Fatalf("%s = %v, want a known value", name, v)
		}
		return u
	}
	for _, in := range [][2]uint64{{9, 8}, {5, 3}, {15, 15}} {
		s.SetInputName("a", bv.FromUint64(4, in[0]))
		s.SetInputName("b", bv.FromUint64(4, in[1]))
		s.Step()
		s.Eval()
		if sum := in[0] + in[1]; get("c") != sum>>4 || get("s") != sum&15 {
			t.Errorf("a=%d b=%d: {c, s} = {%d, %d}, want %d", in[0], in[1], get("c"), get("s"), sum)
		}
		if get("sw") != (in[0]&1)<<1|in[0]>>1&1 {
			t.Errorf("a=%d: sw = %d, want a[0], a[1]", in[0], get("sw"))
		}
		if get("q") != in[0]>>1&3 || get("r") != in[0]&1 {
			t.Errorf("a=%d: {q, r} = {%d, %d}, want a[2:0]", in[0], get("q"), get("r"))
		}
		if get("w1") != in[1] || get("rr") != in[0]&1 {
			t.Errorf("after a=%d b=%d: {mem[1], rr} = {%d, %d}, want {b, a[0]}", in[0], in[1], get("w1"), get("rr"))
		}
	}
}

// TestUnwrittenMemoryWordsHold: a block that writes only word 0 leaves
// the other words holding their initial values.
func TestUnwrittenMemoryWordsHold(t *testing.T) {
	nl := mustElab(t, `
module hold(clk, a, w0, w1);
  input clk;
  input [1:0] a;
  output [1:0] w0, w1;
  reg [1:0] mem [0:3];
  always @(posedge clk) mem[0] <= a;
  initial mem[1] = 2'd2;
  assign w0 = mem[0];
  assign w1 = mem[1];
endmodule
`, "hold")
	s := mustSim(t, nl)
	for _, a := range []uint64{1, 3, 0} {
		s.SetInputName("a", bv.FromUint64(2, a))
		s.Step()
		s.Eval()
		w0, _ := s.GetName("w0")
		w1, _ := s.GetName("w1")
		if v, _ := w0.Uint64(); v != a || !w0.IsFullyKnown() {
			t.Errorf("after writing %d: word 0 = %v", a, w0)
		}
		if v, _ := w1.Uint64(); v != 2 || !w1.IsFullyKnown() {
			t.Errorf("after writing %d: word 1 = %v, want its initial 2", a, w1)
		}
	}
}

// TestNarrowAddressWritesOnlyItsWords: a 1-bit address reaches words 0
// and 1 of a 4-word memory; a write to address 0 leaves word 2 alone.
func TestNarrowAddressWritesOnlyItsWords(t *testing.T) {
	nl := mustElab(t, `
module narrow(clk, addr, d, w0, w2);
  input clk, addr;
  input [1:0] d;
  output [1:0] w0, w2;
  reg [1:0] mem [0:3];
  always @(posedge clk) mem[addr] <= d;
  initial mem[2] = 2'd1;
  assign w0 = mem[0];
  assign w2 = mem[2];
endmodule
`, "narrow")
	s := mustSim(t, nl)
	s.SetInputName("addr", bv.FromUint64(1, 0))
	s.SetInputName("d", bv.FromUint64(2, 3))
	s.Step()
	s.Eval()
	w0, _ := s.GetName("w0")
	w2, _ := s.GetName("w2")
	if w0.String() != "2'b11" || w2.String() != "2'b01" {
		t.Errorf("after writing 3 to address 0: word 0 = %v, word 2 = %v, want 2'b11 and its initial 2'b01", w0, w2)
	}
}

// TestDesignNamesOutrankAutomaticNames: nets named like the netlist's
// automatic names (n<id>) keep their names, so a property names the
// net the design means.
func TestDesignNamesOutrankAutomaticNames(t *testing.T) {
	nl := mustElab(t, `
module m(n1, b, y, n2);
  input [1:0] n1, b;
  output y, n2;
  assign y = n1[0] ^ b[0];
  assign n2 = n1[0] | ~n1[0];
endmodule
`, "m")
	s := mustSim(t, nl)
	for a := uint64(0); a < 4; a++ {
		s.SetInputName("n1", bv.FromUint64(2, a))
		s.SetInputName("b", bv.FromUint64(2, 0))
		s.Eval()
		if n2, _ := s.GetName("n2"); n2.String() != "1'b1" {
			t.Errorf("n1=%d: n2 = %v, want 1'b1", a, n2)
		}
	}
}
