package elab

import (
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/verilog"
)

// expectError elaborates and requires a diagnostic mentioning want.
func expectError(t *testing.T, src, top, want string) {
	t.Helper()
	ast, err := verilog.Parse(src)
	if err != nil {
		t.Fatalf("parse should succeed, elaboration should fail: %v", err)
	}
	_, err = Elaborate(ast, top, nil)
	if err == nil {
		t.Fatalf("elaboration succeeded, want error containing %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err.Error(), want)
	}
}

func TestErrorUnknownTop(t *testing.T) {
	expectError(t, `module a(x); input x; endmodule`, "missing", "no module")
}

func TestErrorUndeclaredNet(t *testing.T) {
	expectError(t, `
module m(y);
  output y;
  assign y = ghost;
endmodule`, "m", "ghost")
}

func TestErrorAssignToUndeclared(t *testing.T) {
	expectError(t, `
module m(a);
  input a;
  assign ghost = a;
endmodule`, "m", "undeclared")
}

func TestErrorUnknownModule(t *testing.T) {
	expectError(t, `
module m(a, y);
  input a; output y;
  nothere u0 (.x(a), .z(y));
endmodule`, "m", "unknown module")
}

func TestErrorBadPort(t *testing.T) {
	expectError(t, `
module sub(x, z);
  input x; output z;
  assign z = x;
endmodule
module m(a, y);
  input a; output y;
  sub u0 (.nope(a), .z(y));
endmodule`, "m", "no port")
}

func TestErrorInout(t *testing.T) {
	expectError(t, `
module m(a);
  inout a;
endmodule`, "m", "inout")
}

func TestErrorNonConstantRange(t *testing.T) {
	expectError(t, `
module m(a, y);
  input [3:0] a; output y;
  wire w;
  assign w = a[a[0]:0];
  assign y = w;
endmodule`, "m", "")
}

func TestErrorMemoryTooLarge(t *testing.T) {
	expectError(t, `
module m(clk, a);
  input clk; input [9:0] a;
  reg [7:0] mem [0:1023];
  always @(posedge clk) mem[a] <= 8'd0;
endmodule`, "m", "memory bounds")
}

func TestErrorForLoopNonConst(t *testing.T) {
	expectError(t, `
module m(a, y);
  input [3:0] a; output reg [3:0] y;
  integer i;
  always @(*) begin
    y = 0;
    for (i = 0; i < a; i = i + 1) y[0] = 1;
  end
endmodule`, "m", "constant")
}

func TestErrorMultiEdgeWithoutResetIdiom(t *testing.T) {
	expectError(t, `
module m(clk, other, d, q);
  input clk, other, d; output reg q;
  always @(posedge clk or posedge other) q <= d;
endmodule`, "m", "async-reset")
}

func TestErrorDivisionByVariable(t *testing.T) {
	expectError(t, `
module m(a, b, y);
  input [3:0] a, b; output [3:0] y;
  assign y = a / b;
endmodule`, "m", "/")
}

// located matches the head of every elaboration error: "elab: ", the
// instance path and module, and the line.
var located = regexp.MustCompile(`^elab: [a-z0-9_.]+ line [0-9]+: `)

// seriesSource returns a leaf inverter and the given number of modules
// above it, each instancing the one below twice in series: nets resolve
// about 5·2^levels deep.
func seriesSource(levels int) string {
	var b strings.Builder
	b.WriteString("module m0(a, y); input a; output y; assign y = ~a; endmodule\n")
	for i := 1; i <= levels; i++ {
		fmt.Fprintf(&b, "module m%d(a, y); input a; output y; wire t; m%d u0(.a(a), .y(t)); m%d u1(.a(t), .y(y)); endmodule\n", i, i-1, i-1)
	}
	return b.String()
}

// treeSource is seriesSource with the two instances side by side and
// their outputs XOR-ed: 2^(levels+1)-1 instances, each level doubling
// the design.
func treeSource(levels int) string {
	var b strings.Builder
	b.WriteString("module m0(a, y); input a; output y; assign y = ~a; endmodule\n")
	for i := 1; i <= levels; i++ {
		fmt.Fprintf(&b, "module m%d(a, y); input a; output y; wire p, q; m%d u0(.a(a), .y(p)); m%d u1(.a(a), .y(q)); assign y = p ^ q; endmodule\n", i, i-1, i-1)
	}
	return b.String()
}

// chainSource returns module c, a chain of n inverting assigns, and
// module m, k instances of c in series.
func chainSource(n, k int) string {
	var b strings.Builder
	b.WriteString("module c(a, y);\n  input a; output y;\n  wire w0")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, ", w%d", i)
	}
	b.WriteString(";\n  assign w0 = a;\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "  assign w%d = ~w%d;\n", i, i-1)
	}
	fmt.Fprintf(&b, "  assign y = w%d;\nendmodule\nmodule m(t0, t%d);\n  input t0; output t%d;\n  wire t1", n, k, k)
	for i := 2; i < k; i++ {
		fmt.Fprintf(&b, ", t%d", i)
	}
	b.WriteString(";\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "  c u%d(.a(t%d), .y(t%d));\n", i, i, i+1)
	}
	b.WriteString("endmodule\n")
	return b.String()
}

// TestElaborationIsBounded: a design whose nets resolve too deep, or
// that elaborates too many instances, is an elab: error, never a stack
// overflow, and the 16-level sources fail before they allocate 64 MB.
// A source just inside either limit elaborates.
func TestElaborationIsBounded(t *testing.T) {
	for _, tc := range []struct {
		name, src, top, want string
		maxBytes             uint64
	}{
		{"series", seriesSource(16), "m16", "resolves through more than", 64 << 20},
		{"tree", treeSource(16), "m16", "more than 4096 module instances", 64 << 20},
		{"chains", chainSource(50000, 8), "m", "resolves through more than", 0},
	} {
		ast, err := verilog.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		var eerr error
		bytes := allocated(func() { _, eerr = Elaborate(ast, tc.top, nil) })
		if eerr == nil || !located.MatchString(eerr.Error()) || !strings.Contains(eerr.Error(), tc.want) {
			t.Errorf("%s (%d bytes): error %v, want an elab: error naming %q", tc.name, len(tc.src), eerr, tc.want)
		}
		if tc.maxBytes > 0 && bytes > tc.maxBytes {
			t.Errorf("%s (%d bytes): allocated %d bytes before failing", tc.name, len(tc.src), bytes)
		}
	}
	for _, tc := range []struct{ name, src, top string }{
		{"chain of 9990 nets", chainSource(9990, 1), "m"},
		{"tree of 4095 instances", treeSource(11), "m11"},
	} {
		ast, err := verilog.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		if _, err := Elaborate(ast, tc.top, nil); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestErrorsDoNotPanic: each source is wrong in a way elaboration must
// report as an error, never a panic and never a netlist. Besides the
// first four, each once panicked the elaborator or, like the dropped
// out-of-range target pieces, was silently accepted.
func TestErrorsDoNotPanic(t *testing.T) {
	// A module with input [1:0] a and the given items.
	m := func(items string) string {
		return "module m(clk, a, o);\n  input clk; input [1:0] a; output o;\n  " + items + "\nendmodule"
	}
	sources := []string{
		`module m(y); output y; wire w; assign y = w[5]; endmodule`,
		`module m(y); output [3:0] y; assign y[9:0] = 10'd0; endmodule`,
		`module m(y); output y; assign y = {0{1'b1}}; endmodule`,
		`module m(y); output y; sub u0(); endmodule`,
		// A concatenated target whose piece selects a select.
		m(`reg [1:0] q; reg r; always @(*) {q[1][0], r} = a; assign o = r;`),
		m(`reg [1:0] q; reg r; always @(posedge clk) {q[1][0], r} <= a; assign o = r;`),
		// A concatenated target naming an undeclared net.
		m(`reg r; always @(*) {nope[0], r} = a; assign o = r;`),
		m(`reg r; always @(posedge clk) {nope[0], r} <= a; assign o = r;`),
		// A memory word past the memory's last word, alone or concatenated.
		m(`reg [1:0] mem [0:3]; reg r; always @(posedge clk) {mem[4], r} <= {a, a[0]}; assign o = r;`),
		m(`reg [1:0] mem [0:3]; always @(posedge clk) mem[4] <= a; assign o = mem[0][0];`),
		m(`reg [1:0] mem [0:3]; always @(posedge clk) mem[0] <= a; assign o = mem[4][0];`),
		// Reversed and out-of-range selects, as targets and as reads.
		m(`wire [1:0] q; assign q[0:1] = a; assign o = q[0];`),
		m(`reg [1:0] q; always @(*) q[0:1] = a; assign o = q[0];`),
		m(`reg [1:0] q; always @(posedge clk) q[7:4] <= {a, a}; assign o = q[0];`),
		m(`assign o = a[0:1] == 0;`),
		m(`assign o = a[9:8] == 0;`),
		m(`assign o = a[-1];`),
		m(`wire [1:0] q; assign q[3:2] = a; assign o = q[0];`),
		m(`wire [1:0] q; assign q[2] = a[0]; assign o = q[0];`),
		m(`reg [1:0] q; initial q[2] = 1'b0; always @(posedge clk) q <= a; assign o = q[0];`),
		// A register assigned in two sequential blocks.
		m(`reg r; always @(posedge clk) r <= a[0]; always @(posedge clk) r <= a[1]; assign o = r;`),
		// An input assigned as a register.
		m(`always @(posedge clk) a <= ~a; assign o = a[0];`),
		// A port listed twice, an instance name used twice, a module
		// that instantiates itself, and a name that is both a net and
		// a memory.
		"module m(clk, a, a, o);\n  input clk; input [1:0] a; output o;\n  assign o = a[0];\nendmodule",
		"module s(x, y); input x; output y; reg y; always @(posedge x) y <= ~y; endmodule\n" +
			m(`wire p, q; s u0(.x(clk), .y(p)); s u0(.x(clk), .y(q)); assign o = p ^ q;`),
		m(`m u0(.clk(clk), .a(a), .o(o));`),
		m(`wire [1:0] mem; reg [1:0] mem [0:3]; assign o = a[0];`),
		// A memory written by a combinational block.
		m(`reg [1:0] mem [0:3]; always @(*) mem[0] = a; assign o = a[0];`),
	}
	for _, src := range sources {
		ast, err := verilog.Parse(src)
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("elaborate panicked on %q: %v", src, p)
				}
			}()
			if _, err := Elaborate(ast, "m", nil); err == nil {
				t.Errorf("elaborate accepted %q", src)
			} else if !located.MatchString(err.Error()) || strings.Count(err.Error(), "elab:") != 1 {
				t.Errorf("error %q on %q does not start with one elab:, a module and a line", err, src)
			}
		}()
	}
}

// TestErrorsNameModuleAndLine: every error Elaborate returns carries
// "elab: " once and names the instance, the module and the line,
// whichever helper found it.
func TestErrorsNameModuleAndLine(t *testing.T) {
	m := func(items string) string {
		return "module m(a, o);\n  input [1:0] a; output o;\n  " + items + "\nendmodule"
	}
	cases := []struct{ src, want string }{
		{m(`assign o = ghost + a;`), `elab: m line 3: undeclared identifier "ghost"`},
		{m(`assign o = a ? ghost : a;`), `elab: m line 3: undeclared identifier "ghost"`},
		{m(`assign o = {ghost, a};`), `elab: m line 3: undeclared identifier "ghost"`},
		{m(`assign o = {ghost{a}};`), `elab: m line 3: replication count must be constant: "ghost" is not a constant`},
		{m(`assign o = {0{a}};`), `elab: m line 3: bad replication count 0`},
		{m(`assign o = a[2];`), `elab: m line 3: select [2:2] is outside [1:0]`},
		{m(`assign o = a / a;`), `elab: m line 3: non-constant "/" is not supported`},
		{m(`assign o = 600'd0 == a;`), `elab: m line 3: literal wider than 513 bits`},
		{m("parameter W = 1;\n  parameter P = ghost;\n  assign o = a[0];"), `elab: m line 4: parameter P: "ghost" is not a constant`},
		{m("wire [ghost:0] w;\n  assign o = a[0];"), `elab: m line 3: bad range msb: "ghost" is not a constant`},
		{"module s(x, y);\n  input x; output y;\n  assign y = ghost;\nendmodule\n" + m(`s u0(.x(a[0]), .y(o));`),
			`elab: u0.s line 3: undeclared identifier "ghost"`},
	}
	for _, tc := range cases {
		ast, err := verilog.Parse(tc.src)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.src, err)
		}
		if _, err := Elaborate(ast, "m", nil); err == nil || err.Error() != tc.want {
			t.Errorf("%q: error %v, want %s", tc.src, err, tc.want)
		}
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWideValuesFailBeforeTheyAreBuilt: a replication count is checked
// before it multiplies a width, and a literal, concatenation,
// replication or assignment target wider than maxWidth is an error
// before anything that wide is allocated.
func TestWideValuesFailBeforeTheyAreBuilt(t *testing.T) {
	m := func(items string) string {
		return "module m(a, o);\n  input a; output o;\n  " + items + "\nendmodule"
	}
	cases := []struct{ src, want string }{
		{m(`assign o = 0 == {1<<26{a}};`), "bad replication count"},
		{m(`wire [7:0] w; assign w = {64{{512{{512{a}}}}}}; assign o = w[0];`), "wider than 513 bits"},
		{m(`assign o = 0 == {64{{512{{512{a}}}}}};`), "wider than 513 bits"},
		{m(`assign o = 0 == {{1<<20{a}}, a};`), "bad replication count"},
		{m(`assign o = 1000000000'd0 == 0;`), "wider than 513 bits"},
		{m(`parameter P = 1000000000'd0; assign o = P;`), "wider than 513 bits"},
		{m(`wire [511:0] w; assign w = 0; assign o = {w, w} == 0;`), "wider than 513 bits"},
		{m(`wire [511:0] w; assign w = 0; assign o = ^{w, w};`), "wider than 513 bits"},
		{m(`wire [511:0] w, v; assign {w, v} = 0; assign o = w[0];`), "wider than 513 bits"},
	}
	for _, tc := range cases {
		ast, err := verilog.Parse(tc.src)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.src, err)
		}
		var eerr error
		bytes := allocated(func() { _, eerr = Elaborate(ast, "m", nil) })
		if eerr == nil || !strings.HasPrefix(eerr.Error(), "elab: ") || !strings.Contains(eerr.Error(), tc.want) {
			t.Errorf("%q: error %v, want an elab: error naming %q", tc.src, eerr, tc.want)
		}
		if bytes > 1<<20 {
			t.Errorf("%q: allocated %d bytes before failing", tc.src, bytes)
		}
	}
}
