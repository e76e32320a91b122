package circuits

import (
	"fmt"
	"strings"

	"repro/internal/netlist"
	"repro/internal/property"
)

// Synthetic stand-ins for the paper's proprietary industrial designs.
// Each preserves the structural class its Table-2 property exercises:
//
//	industry_01  control FSM + pipelined datapath with unreachable
//	             (don't-care) states          -> p10
//	industry_02  152-bit tri-state bus, sequential grant decoder -> p11
//	industry_03  128-bit tri-state bus, combinational decoder    -> p12
//	industry_04  32-bit bus with consensus drivers               -> p13
//	industry_05  small FSM with don't-care encodings             -> p14
//
// Absolute gate counts differ from Table 1 (the originals are
// proprietary); the behaviour class and property difficulty ordering
// are what the reproduction preserves.

// industry01Src: a deep pipeline whose control FSM uses 10 of 16
// encodings; the remaining encodings are internal don't-cares that
// must be unreachable for the synthesizer to exploit them (p10).
func industry01Src(stages int) string {
	var sb strings.Builder
	sb.WriteString(`
module industry_01(clk, rst, start, mode, din, dout, state);
  input clk, rst, start;
  input [2:0] mode;
  input [15:0] din;
  output [15:0] dout;
  output [3:0] state;
  reg [3:0] state;
`)
	for i := 0; i < stages; i++ {
		fmt.Fprintf(&sb, "  reg [15:0] pipe%d;\n", i)
	}
	sb.WriteString(`
  always @(posedge clk or posedge rst) begin
    if (rst) state <= 4'd0;
    else begin
      case (state)
        4'd0: if (start) state <= 4'd1;
        4'd1: state <= (mode == 3'd0) ? 4'd2 : 4'd3;
        4'd2: state <= 4'd4;
        4'd3: state <= (mode[0]) ? 4'd5 : 4'd6;
        4'd4: state <= 4'd7;
        4'd5: state <= 4'd7;
        4'd6: state <= 4'd8;
        4'd7: state <= 4'd9;
        4'd8: state <= 4'd9;
        4'd9: state <= 4'd0;
        default: state <= 4'd0;
      endcase
    end
  end
  initial state = 4'd0;
  wire run;
  assign run = (state != 4'd0);
  always @(posedge clk) begin
    if (run) begin
      pipe0 <= din + {13'd0, mode};
`)
	for i := 1; i < stages; i++ {
		op := "+"
		if i%3 == 1 {
			op = "^"
		} else if i%3 == 2 {
			op = "-"
		}
		fmt.Fprintf(&sb, "      pipe%d <= pipe%d %s {pipe%d[7:0], pipe%d[15:8]};\n", i, i-1, op, i-1, i-1)
	}
	fmt.Fprintf(&sb, `    end
  end
  assign dout = pipe%d;
endmodule
`, stages-1)
	return sb.String()
}

// Industry01 elaborates the pipeline with p10 (don't-care states
// 10..15 unreachable).
func Industry01(stages int) (*Design, error) {
	src := industry01Src(stages)
	nl, err := build("industry_01", src, "industry_01")
	if err != nil {
		return nil, err
	}
	b := property.Builder{NL: nl}
	state, _ := nl.SignalByName("state")
	dc := nl.Binary(netlist.KGe, state, nl.ConstUint(4, 10))
	p10, err := property.NewInvariant(nl, "p10", b.DontCareUnreachable(dc))
	if err != nil {
		return nil, err
	}
	return &Design{
		Name: "industry_01", Source: src, NL: nl,
		Props: []property.Property{p10}, PropIDs: []string{"p10"},
	}, nil
}

// industry02Src: four masters drive a 152-bit bus; a registered 2-bit
// grant with a valid flag is decoded into tri-state enables, so at
// most one enable is ever active (p11).
const industry02Src = `
module industry_02(clk, rst, req, d0, d1, d2, d3, en, bus_or);
  input clk, rst;
  input [3:0] req;
  input [37:0] d0, d1, d2, d3;
  output [3:0] en;
  output [151:0] bus_or;
  reg [1:0] grant;
  reg valid;
  wire [151:0] w0, w1, w2, w3;
  assign w0 = {d0, d0, d0, d0};
  assign w1 = {d1, d1, d1, d1};
  assign w2 = {d2, d2, d2, d2};
  assign w3 = {d3, d3, d3, d3};
  assign en = valid ? (4'd1 << grant) : 4'd0;
  assign bus_or = (en[0] ? w0 : 152'd0) | (en[1] ? w1 : 152'd0)
                | (en[2] ? w2 : 152'd0) | (en[3] ? w3 : 152'd0);
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      grant <= 2'd0;
      valid <= 1'b0;
    end else begin
      valid <= |req;
      if (req[0]) grant <= 2'd0;
      else if (req[1]) grant <= 2'd1;
      else if (req[2]) grant <= 2'd2;
      else if (req[3]) grant <= 2'd3;
    end
  end
  initial grant = 2'd0;
  initial valid = 1'b0;
endmodule
`

// Industry02 elaborates the sequential 152-bit bus with p11.
func Industry02() (*Design, error) {
	nl, err := build("industry_02", industry02Src, "industry_02")
	if err != nil {
		return nil, err
	}
	b := property.Builder{NL: nl}
	en, _ := nl.SignalByName("en")
	w := make([]netlist.SignalID, 4)
	for i := range w {
		w[i], _ = nl.SignalByName(fmt.Sprintf("w%d", i))
	}
	enb := make([]netlist.SignalID, 4)
	for i := range enb {
		enb[i] = nl.Slice(en, i, i)
	}
	p11, err := property.NewInvariant(nl, "p11", b.NoBusContention(enb, w))
	if err != nil {
		return nil, err
	}
	return &Design{
		Name: "industry_02", Source: industry02Src, NL: nl,
		Props: []property.Property{p11}, PropIDs: []string{"p11"},
	}, nil
}

// industry03Src: combinational 128-bit bus; the enables come from a
// decoder over a select input, one-hot by construction (p12).
const industry03Src = `
module industry_03(sel, valid, d0, d1, d2, d3, en, bus_or);
  input [1:0] sel;
  input valid;
  input [31:0] d0, d1, d2, d3;
  output [3:0] en;
  output [127:0] bus_or;
  wire [127:0] w0, w1, w2, w3;
  assign w0 = {d0, d0, d0, d0};
  assign w1 = {d1, d1, d1, d1};
  assign w2 = {d2, d2, d2, d2};
  assign w3 = {d3, d3, d3, d3};
  assign en = valid ? (4'd1 << sel) : 4'd0;
  assign bus_or = (en[0] ? w0 : 128'd0) | (en[1] ? w1 : 128'd0)
                | (en[2] ? w2 : 128'd0) | (en[3] ? w3 : 128'd0);
endmodule
`

// Industry03 elaborates the combinational 128-bit bus with p12.
func Industry03() (*Design, error) {
	nl, err := build("industry_03", industry03Src, "industry_03")
	if err != nil {
		return nil, err
	}
	b := property.Builder{NL: nl}
	en, _ := nl.SignalByName("en")
	w := make([]netlist.SignalID, 4)
	for i := range w {
		w[i], _ = nl.SignalByName(fmt.Sprintf("w%d", i))
	}
	enb := make([]netlist.SignalID, 4)
	for i := range enb {
		enb[i] = nl.Slice(en, i, i)
	}
	p12, err := property.NewInvariant(nl, "p12", b.NoBusContention(enb, w))
	if err != nil {
		return nil, err
	}
	return &Design{
		Name: "industry_03", Source: industry03Src, NL: nl,
		Props: []property.Property{p12}, PropIDs: []string{"p12"},
	}, nil
}

// industry04Src: a 32-bit bus where two enables may be active at once —
// but both then drive the same source data, so the drivers are
// consensus and contention still cannot occur (p13 exercises the
// consensus disjunct of the property).
const industry04Src = `
module industry_04(sel, broadcast, d0, d1, d2, en, bus_or);
  input [1:0] sel;
  input broadcast;
  input [31:0] d0, d1, d2;
  output [2:0] en;
  output [31:0] bus_or;
  wire [31:0] w0, w1, w2;
  // Under broadcast both driver 0 and driver 1 are enabled, and both
  // source d0.
  assign w0 = d0;
  assign w1 = broadcast ? d0 : d1;
  assign w2 = d2;
  assign en = broadcast ? 3'b011 : ((sel == 2'd0) ? 3'b001 : ((sel == 2'd1) ? 3'b010 : 3'b100));
  assign bus_or = (en[0] ? w0 : 32'd0) | (en[1] ? w1 : 32'd0) | (en[2] ? w2 : 32'd0);
endmodule
`

// Industry04 elaborates the consensus bus with p13.
func Industry04() (*Design, error) {
	nl, err := build("industry_04", industry04Src, "industry_04")
	if err != nil {
		return nil, err
	}
	b := property.Builder{NL: nl}
	en, _ := nl.SignalByName("en")
	w := make([]netlist.SignalID, 3)
	for i := range w {
		w[i], _ = nl.SignalByName(fmt.Sprintf("w%d", i))
	}
	enb := make([]netlist.SignalID, 3)
	for i := range enb {
		enb[i] = nl.Slice(en, i, i)
	}
	p13, err := property.NewInvariant(nl, "p13", b.NoBusContention(enb, w))
	if err != nil {
		return nil, err
	}
	return &Design{
		Name: "industry_04", Source: industry04Src, NL: nl,
		Props: []property.Property{p13}, PropIDs: []string{"p13"},
	}, nil
}

// industry05Src: a 7-state controller in a 3-bit register; encoding 7
// is the internal don't-care that must be unreachable (p14).
const industry05Src = `
module industry_05(clk, rst, go, stop, abort, busy, state);
  input clk, rst, go, stop, abort;
  output busy;
  output [2:0] state;
  reg [2:0] state;
  assign busy = (state != 3'd0);
  always @(posedge clk or posedge rst) begin
    if (rst) state <= 3'd0;
    else begin
      case (state)
        3'd0: if (go) state <= 3'd1;
        3'd1: state <= abort ? 3'd6 : 3'd2;
        3'd2: state <= stop ? 3'd4 : 3'd3;
        3'd3: state <= 3'd5;
        3'd4: state <= 3'd0;
        3'd5: state <= stop ? 3'd4 : 3'd2;
        3'd6: state <= 3'd0;
        default: state <= 3'd0;
      endcase
    end
  end
  initial state = 3'd0;
endmodule
`

// Industry05 elaborates the controller with p14.
func Industry05() (*Design, error) {
	nl, err := build("industry_05", industry05Src, "industry_05")
	if err != nil {
		return nil, err
	}
	b := property.Builder{NL: nl}
	state, _ := nl.SignalByName("state")
	dc := b.Equals(state, 7)
	p14, err := property.NewInvariant(nl, "p14", b.DontCareUnreachable(dc))
	if err != nil {
		return nil, err
	}
	return &Design{
		Name: "industry_05", Source: industry05Src, NL: nl,
		Props: []property.Property{p14}, PropIDs: []string{"p14"},
	}, nil
}

// All elaborates the full Table-1 suite with default sizes.
func All() ([]*Design, error) {
	builders := []func() (*Design, error){
		AddrDecoder,
		func() (*Design, error) { return TokenRing(48) },
		func() (*Design, error) { return Arbiter(16) },
		AlarmClock,
		func() (*Design, error) { return Industry01(24) },
		Industry02,
		Industry03,
		Industry04,
		Industry05,
	}
	var out []*Design
	for _, b := range builders {
		d, err := b()
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
