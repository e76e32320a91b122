package verilog

import "testing"

const counterSrc = `
// simple counter
module counter #(parameter W = 4) (clk, rst, en, q);
  input clk, rst, en;
  output [W-1:0] q;
  reg [W-1:0] q;
  always @(posedge clk or posedge rst) begin
    if (rst)
      q <= 0;
    else if (en)
      q <= q + 1;
  end
endmodule
`

func TestParseCounter(t *testing.T) {
	src, err := Parse(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := src.FindModule("counter")
	if m == nil {
		t.Fatal("module not found")
	}
	if len(m.Ports) != 4 {
		t.Errorf("ports = %v", m.Ports)
	}
	if len(m.Params) != 1 || m.Params[0].Name != "W" {
		t.Errorf("params = %+v", m.Params)
	}
	var always *Always
	for _, it := range m.Items {
		if a, ok := it.(*Always); ok {
			always = a
		}
	}
	if always == nil {
		t.Fatal("no always block")
	}
	if len(always.Sens) != 2 || always.Sens[0].Edge != EdgePos || always.Sens[1].Signal != "rst" {
		t.Errorf("sensitivity = %+v", always.Sens)
	}
	blk, ok := always.Body.(*Block)
	if !ok || len(blk.Stmts) != 1 {
		t.Fatalf("body = %#v", always.Body)
	}
	ifs, ok := blk.Stmts[0].(*If)
	if !ok {
		t.Fatalf("stmt = %#v", blk.Stmts[0])
	}
	asg, ok := ifs.Then.(*AssignStmt)
	if !ok || !asg.NonBlocking {
		t.Errorf("then = %#v", ifs.Then)
	}
}

func TestParseExpressions(t *testing.T) {
	src := `
module e(a, b, c, y);
  input [7:0] a, b; input c; output [7:0] y;
  wire [7:0] w1 = a + b * 2;
  assign y = c ? (a & ~b) : {a[3:0], b[7:4]};
  wire t = &a | ^b && !c;
  wire [15:0] r = {2{a}};
  wire u = a == b || a < b;
endmodule
`
	// Note: "wire [7:0] w1 = ..." declaration assignment is not in our
	// subset; rewrite as separate assign.
	src = `
module e(a, b, c, y);
  input [7:0] a, b; input c; output [7:0] y;
  wire [7:0] w1;
  assign w1 = a + b * 2;
  assign y = c ? (a & ~b) : {a[3:0], b[7:4]};
  wire t;
  assign t = &a | ^b && !c;
  wire [15:0] r;
  assign r = {2{a}};
  wire u;
  assign u = a == b || a < b;
endmodule
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := s.FindModule("e")
	nAssign := 0
	for _, it := range m.Items {
		if _, ok := it.(*Assign); ok {
			nAssign++
		}
	}
	if nAssign != 5 {
		t.Errorf("assigns = %d, want 5", nAssign)
	}
}

func TestPrecedence(t *testing.T) {
	src := `
module p(a, b, c, y);
  input a, b, c; output y;
  assign y = a | b & c;
endmodule
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := s.FindModule("p")
	var asg *Assign
	for _, it := range m.Items {
		if a, ok := it.(*Assign); ok {
			asg = a
		}
	}
	top, ok := asg.RHS.(*Binary)
	if !ok || top.Op != "|" {
		t.Fatalf("top op = %#v, want |", asg.RHS)
	}
	if sub, ok := top.B.(*Binary); !ok || sub.Op != "&" {
		t.Fatalf("rhs of | = %#v, want &", top.B)
	}
}

func TestParseCaseAndInstance(t *testing.T) {
	src := `
module sub(x, z);
  input [1:0] x; output [1:0] z;
  assign z = x;
endmodule

module top(s, d, q);
  input [1:0] s; input [3:0] d; output reg [1:0] q;
  wire [1:0] w;
  sub #(.UNUSED(1)) u0 (.x(s), .z(w));
  always @(*) begin
    case (s)
      2'b00: q = d[1:0];
      2'b01, 2'b10: q = d[3:2];
      default: q = w;
    endcase
  end
endmodule
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	top := s.FindModule("top")
	if top == nil {
		t.Fatal("top missing")
	}
	var inst *Instance
	var alw *Always
	for _, it := range top.Items {
		switch v := it.(type) {
		case *Instance:
			inst = v
		case *Always:
			alw = v
		}
	}
	if inst == nil || inst.ModName != "sub" || len(inst.Conns) != 2 || inst.Conns[0].Name != "x" {
		t.Errorf("instance = %+v", inst)
	}
	if len(inst.ParamOvr) != 1 {
		t.Errorf("param override missing")
	}
	blk := alw.Body.(*Block)
	cs, ok := blk.Stmts[0].(*Case)
	if !ok {
		t.Fatalf("not a case: %#v", blk.Stmts[0])
	}
	if len(cs.Items) != 3 {
		t.Errorf("case items = %d", len(cs.Items))
	}
	if len(cs.Items[1].Labels) != 2 {
		t.Errorf("multi-label arm has %d labels", len(cs.Items[1].Labels))
	}
	if cs.Items[2].Labels != nil {
		t.Errorf("default arm should have nil labels")
	}
}

func TestParseMemoryDecl(t *testing.T) {
	src := `
module m(clk, we, addr, din, dout);
  input clk, we; input [3:0] addr; input [7:0] din; output [7:0] dout;
  reg [7:0] mem [0:15];
  always @(posedge clk) begin
    if (we) mem[addr] <= din;
  end
  assign dout = mem[addr];
endmodule
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := s.FindModule("m")
	var memDecl *Decl
	for _, it := range m.Items {
		if d, ok := it.(*Decl); ok && len(d.Names) == 1 && d.Names[0] == "mem" {
			memDecl = d
		}
	}
	if memDecl == nil || memDecl.ArrayHi == nil {
		t.Fatal("memory decl not parsed")
	}
}

func TestParseForLoop(t *testing.T) {
	src := `
module f(a, y);
  input [3:0] a; output reg [3:0] y;
  integer i;
  always @(*) begin
    y = 0;
    for (i = 0; i < 4; i = i + 1) begin
      y[i] = a[3 - i];
    end
  end
endmodule
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.FindModule("f") == nil {
		t.Fatal("module missing")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"module",
		"module m(a); input a;",
		"module m(a); input a; assign ; endmodule",
		"module m(a); input a; always @(posedge) ; endmodule",
		"module m(a); input a; wire w; assign w = (a; endmodule",
		"module m(a); input a; if (a) ; endmodule",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// lexAll lexes the whole of src, the final TEOF included.
func lexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TEOF {
			return out, nil
		}
	}
}

func TestLexerComments(t *testing.T) {
	toks, err := lexAll("a /* multi\nline */ b // line\nc `directive x\nd")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tk := range toks {
		if tk.Kind == TIdent {
			names = append(names, tk.Text)
		}
	}
	want := []string{"a", "b", "c", "d"}
	if len(names) != len(want) {
		t.Fatalf("idents = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("idents = %v", names)
		}
	}
}

func TestLexerNumbers(t *testing.T) {
	toks, err := lexAll("4'b10xx 8'hff 15 12'd4_095 'b01")
	if err != nil {
		t.Fatal(err)
	}
	var nums []string
	for _, tk := range toks {
		if tk.Kind == TNumber {
			nums = append(nums, tk.Text)
		}
	}
	if len(nums) != 5 {
		t.Fatalf("numbers = %v", nums)
	}
	if nums[0] != "4'b10xx" || nums[3] != "12'd4_095" || nums[4] != "'b01" {
		t.Errorf("numbers = %v", nums)
	}
}

// TestSelectsCarryTheirLine: the selects of targets and of reads record
// the line of their "[", so elaboration can cite it.
func TestSelectsCarryTheirLine(t *testing.T) {
	src, err := Parse("module m(a, y);\n  input [3:0] a; output [1:0] y;\n  assign y[1:0] =\n    {a[3], a[0]};\nendmodule\n")
	if err != nil {
		t.Fatal(err)
	}
	asg := src.Modules[0].Items[2].(*Assign)
	if r, ok := asg.LHS.(*RangeSel); !ok || r.Line != 3 {
		t.Errorf("target = %#v, want a part select on line 3", asg.LHS)
	}
	for _, p := range asg.RHS.(*ConcatExpr).Parts {
		if ix, ok := p.(*Index); !ok || ix.Line != 4 {
			t.Errorf("read = %#v, want a bit select on line 4", p)
		}
	}
}
