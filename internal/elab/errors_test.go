package elab

import (
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
			} else if !strings.HasPrefix(err.Error(), "elab: ") {
				t.Errorf("error %q on %q does not start with elab:", err, src)
			}
		}()
	}
}
