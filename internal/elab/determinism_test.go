package elab

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/verilog"
)

// determinismSrc exercises every elaboration path that iterates a map
// while emitting gates: several sequential registers (seqRegs), a
// memory (sc.mems), plain nets resolved by name (sc.nets), a submodule
// with multiple named port connections (conns/parentConns).
const determinismSrc = `
module leaf(a, b, x, y);
  input [3:0] a, b;
  output [3:0] x, y;
  assign x = a + b;
  assign y = a & b;
endmodule

module top(clk, in1, in2, sel, waddr, out, rd);
  input clk;
  input [3:0] in1, in2;
  input sel;
  input [1:0] waddr;
  output [3:0] out;
  output [3:0] rd;
  reg [3:0] r1, r2, r0;
  reg [3:0] mem [0:3];
  wire [3:0] lx, ly, zz, ww;
  leaf u0(.a(in1), .b(in2), .x(lx), .y(ly));
  assign zz = sel ? lx : ly;
  assign ww = zz ^ r1;
  assign out = ww | r2 | r0;
  assign rd = mem[waddr];
  always @(posedge clk) begin
    r0 <= in1;
    r1 <= zz;
    r2 <= r1 + in2;
    mem[waddr] <= in2;
  end
  initial r0 = 4'd0;
  initial r1 = 4'd1;
  initial r2 = 4'd2;
endmodule
`

// netlistSignature serializes everything about a netlist that the
// engine's behaviour can depend on: signal order, names, widths,
// drivers, and gate order with kinds and connections.
func netlistSignature(nl *netlist.Netlist) string {
	var sb strings.Builder
	for i := range nl.Signals {
		s := &nl.Signals[i]
		fmt.Fprintf(&sb, "s%d %s w%d d%d f%v\n", i, s.Name, s.Width, s.Driver, s.Fanout)
	}
	for i := range nl.Gates {
		g := &nl.Gates[i]
		fmt.Fprintf(&sb, "g%d k%d out%d in%v\n", i, g.Kind, g.Out, g.In)
	}
	fmt.Fprintf(&sb, "pi%v po%v ff%v\n", nl.PIs, nl.POs, nl.FFs)
	return sb.String()
}

// TestElaborationDeterministic elaborates the same source repeatedly
// and requires bit-identical netlists. Go randomizes map iteration
// order on every range statement, so each elaboration runs the
// (formerly order-sensitive) map loops — register and memory placeholders,
// sc.nets resolution, instance port connections, parent connections —
// over a freshly perturbed layout; any remaining order dependence shows
// up as a signature mismatch within a few iterations.
func TestElaborationDeterministic(t *testing.T) {
	ast, err := verilog.Parse(determinismSrc)
	if err != nil {
		t.Fatal(err)
	}
	var ref string
	for run := 0; run < 30; run++ {
		nl, err := Elaborate(ast, "top", nil)
		if err != nil {
			t.Fatal(err)
		}
		sig := netlistSignature(nl)
		if run == 0 {
			ref = sig
			continue
		}
		if sig != ref {
			t.Fatalf("run %d: netlist signature diverged\n--- first ---\n%s\n--- now ---\n%s", run, ref, sig)
		}
	}
}
