// Package circuits provides the benchmark designs of the paper's
// Table 1 — the public circuits (addr_decoder, token_ring, arbiter,
// alarm_clock) reconstructed from their descriptions, and synthetic
// stand-ins for the proprietary industry_01..05 designs that preserve
// the structural class each property exercises (industry.go lists
// them). Every circuit is written in the Verilog subset and
// elaborated through the front end, exactly as the framework of Fig. 1
// prescribes; the properties p1–p14 of Table 2 are built as monitor
// networks by internal/property.
package circuits

import (
	"fmt"
	"strings"

	"repro/internal/elab"
	"repro/internal/netlist"
	"repro/internal/property"
	"repro/internal/verilog"
)

// Design is one elaborated benchmark with its Table-2 properties.
type Design struct {
	Name   string
	Source string
	NL     *netlist.Netlist
	Props  []property.Property
	// PropIDs holds the paper's property ids (p1, p2, ...) aligned
	// with Props.
	PropIDs []string
}

// Lines counts the Verilog source lines (Table 1 column).
func (d *Design) Lines() int {
	return len(strings.Split(strings.TrimSpace(d.Source), "\n"))
}

// TableDepth returns the frame bound used for a Table-2 property id —
// the single source of truth shared by cmd/assertcheck, the root
// benchmark/smoke suites and the batch tests.
func TableDepth(id string) int {
	switch id {
	case "p4":
		return 8
	case "p6", "p8":
		return 4
	case "p9":
		return 8
	default:
		return 3
	}
}

func build(name, src, top string) (*netlist.Netlist, error) {
	ast, err := verilog.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %v", name, err)
	}
	nl, err := elab.Elaborate(ast, top, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: elaborate: %v", name, err)
	}
	return nl, nil
}

// ---------------------------------------------------------------------
// addr_decoder: a write-port address decoder in front of a 32-cell
// register file. p1: any selected cell is writable (witness);
// p2: no two address lines are ever selected simultaneously.

const addrDecoderSrc = `
module addr_decoder(clk, we, addr, din, sel, written);
  input clk, we;
  input [4:0] addr;
  input [7:0] din;
  output [31:0] sel;
  output [31:0] written;
  reg [31:0] written;
  reg [7:0] cell0;
  wire [31:0] onehot;
  assign onehot = 32'd1 << addr;
  assign sel = we ? onehot : 32'd0;
  always @(posedge clk) begin
    if (we) written <= written | onehot;
    if (we & (addr == 5'd0)) cell0 <= din;
  end
  initial written = 32'd0;
  initial cell0 = 8'd0;
endmodule
`

// AddrDecoder elaborates the decoder and its properties p1/p2.
func AddrDecoder() (*Design, error) {
	nl, err := build("addr_decoder", addrDecoderSrc, "addr_decoder")
	if err != nil {
		return nil, err
	}
	b := property.Builder{NL: nl}
	written, _ := nl.SignalByName("written")
	sel, _ := nl.SignalByName("sel")
	// p1: cell 19, picked arbitrarily, can be written.
	cell := nl.Slice(written, 19, 19)
	p1, err := property.NewWitness(nl, "p1", cell)
	if err != nil {
		return nil, err
	}
	p2, err := property.NewInvariant(nl, "p2", b.AtMostOneBus(sel))
	if err != nil {
		return nil, err
	}
	return &Design{
		Name: "addr_decoder", Source: addrDecoderSrc, NL: nl,
		Props: []property.Property{p1, p2}, PropIDs: []string{"p1", "p2"},
	}, nil
}

// ---------------------------------------------------------------------
// token_ring: N clients pass a one-hot token; a client holding the
// token with its request asserted is granted the bus. p3: bus-select
// (grant) signals are one-hot-or-idle and the token itself is one-hot;
// p4: a specific client is granted within a bounded wait.

func tokenRingSrc(n int) string {
	return fmt.Sprintf(`
module token_ring(clk, req, hold, grant, token);
  parameter N = %d;
  input clk;
  input [N-1:0] req;
  input [N-1:0] hold;
  output [N-1:0] grant;
  output [N-1:0] token;
  reg [N-1:0] token;
  wire advance;
  assign grant = token & req;
  assign advance = ~|(token & hold);
  always @(posedge clk) begin
    if (advance) token <= {token[N-2:0], token[N-1]};
  end
  initial token = %d'd1;
endmodule
`, n, n)
}

// TokenRing elaborates an n-client ring with p3/p4.
func TokenRing(n int) (*Design, error) {
	src := tokenRingSrc(n)
	nl, err := build("token_ring", src, "token_ring")
	if err != nil {
		return nil, err
	}
	b := property.Builder{NL: nl}
	token, _ := nl.SignalByName("token")
	grant, _ := nl.SignalByName("grant")
	tokOneHot := b.ExactlyOneBus(token)
	grantAMO := b.AtMostOneBus(grant)
	p3, err := property.NewInvariant(nl, "p3", nl.Binary(netlist.KAnd, tokOneHot, grantAMO))
	if err != nil {
		return nil, err
	}
	// p4: a client a few hops from the initial token position is
	// granted (witness under free requests) — the token must travel.
	k := 5
	if n <= k {
		k = n - 1
	}
	gk := nl.Slice(grant, k, k)
	p4, err := property.NewWitness(nl, "p4", gk)
	if err != nil {
		return nil, err
	}
	return &Design{
		Name: "token_ring", Source: src, NL: nl,
		Props: []property.Property{p3, p4}, PropIDs: []string{"p3", "p4"},
	}, nil
}

// ---------------------------------------------------------------------
// arbiter: rotating-priority arbiter over N requesters. The priority
// pointer is a one-hot register; the grant goes to the first requester
// at or after the pointer. p5: grants are one-hot-or-zero; p6: a
// specific client is granted within a bounded wait.

func arbiterSrc(n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `
module arbiter(clk, rst, req, grant, busy);
  parameter N = %d;
  input clk, rst;
  input [N-1:0] req;
  output [N-1:0] grant;
  output busy;
  reg [N-1:0] ptr;
  reg [N-1:0] grant_r;
  integer i;
  // pfx[i] = some pointer bit at or below position i: splits requests
  // into the at-or-after-pointer group (hi) and the wrap-around group.
  reg [N-1:0] pfx;
  always @(*) begin
    pfx[0] = ptr[0];
    for (i = 1; i < N; i = i + 1) begin
      pfx[i] = pfx[i - 1] | ptr[i];
    end
  end
  wire [N-1:0] hi_req;
  wire [N-1:0] lo_req;
  assign hi_req = req & pfx;
  assign lo_req = req & ~pfx;
  // First-set-bit chains (rotating priority): a grant at position i
  // requires no lower request in its group.
  reg [N-1:0] hi_g;
  reg [N-1:0] lo_g;
  reg [N-1:0] none_hi;
  reg [N-1:0] none_lo;
  always @(*) begin
    none_hi[0] = 1'b1;
    none_lo[0] = 1'b1;
    hi_g[0] = hi_req[0];
    lo_g[0] = lo_req[0];
    for (i = 1; i < N; i = i + 1) begin
      none_hi[i] = none_hi[i - 1] & ~hi_req[i - 1];
      none_lo[i] = none_lo[i - 1] & ~lo_req[i - 1];
      hi_g[i] = hi_req[i] & none_hi[i];
      lo_g[i] = lo_req[i] & none_lo[i];
    end
  end
  wire [N-1:0] grant_w;
  assign grant_w = (|hi_req) ? hi_g : lo_g;
  assign grant = grant_r;
  assign busy = |grant_r;
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      ptr <= %d'd1;
      grant_r <= %d'd0;
    end else begin
      grant_r <= grant_w;
      if (|grant_w) ptr <= {grant_w[N-2:0], grant_w[N-1]};
    end
  end
  initial ptr = %d'd1;
  initial grant_r = %d'd0;
endmodule
`, n, n, n, n, n)
	return sb.String()
}

// Arbiter elaborates an n-requester rotating arbiter with p5/p6.
func Arbiter(n int) (*Design, error) {
	src := arbiterSrc(n)
	nl, err := build("arbiter", src, "arbiter")
	if err != nil {
		return nil, err
	}
	b := property.Builder{NL: nl}
	grant, _ := nl.SignalByName("grant")
	p5, err := property.NewInvariant(nl, "p5", b.AtMostOneBus(grant))
	if err != nil {
		return nil, err
	}
	gk := nl.Slice(grant, n-1, n-1)
	p6, err := property.NewWitness(nl, "p6", gk)
	if err != nil {
		return nil, err
	}
	return &Design{
		Name: "arbiter", Source: src, NL: nl,
		Props: []property.Property{p5, p6}, PropIDs: []string{"p5", "p6"},
	}, nil
}

// ---------------------------------------------------------------------
// alarm_clock: a 12-hour clock with minute/hour registers, time-set
// inputs and an alarm compare. p7: 11:59 rolls over to 12:00; p8: the
// hour display reaches 2 after power-on (witness); p9: the hour
// display never shows 13.

const alarmClockSrc = `
module alarm_clock(clk, tick, set_time, inc_hour, inc_min, alarm_en, alarm_match, hour, minute, ring);
  input clk, tick, set_time, inc_hour, inc_min, alarm_en;
  output alarm_match;
  output [3:0] hour;
  output [5:0] minute;
  output ring;
  reg [3:0] hour;
  reg [5:0] minute;
  reg [3:0] alarm_hour;
  reg [5:0] alarm_min;
  reg ring;
  wire min_wrap;
  wire [3:0] next_hour;
  assign min_wrap = (minute == 6'd59);
  assign next_hour = (hour == 4'd12) ? 4'd1 : (hour + 4'd1);
  assign alarm_match = alarm_en & (hour == alarm_hour) & (minute == alarm_min);
  always @(posedge clk) begin
    if (set_time) begin
      if (inc_hour) hour <= next_hour;
      if (inc_min) begin
        if (min_wrap) minute <= 6'd0;
        else minute <= minute + 6'd1;
      end
    end else if (tick) begin
      if (min_wrap) begin
        minute <= 6'd0;
        hour <= next_hour;
      end else begin
        minute <= minute + 6'd1;
      end
    end
    alarm_hour <= alarm_hour;
    alarm_min <= alarm_min;
    ring <= alarm_match;
  end
  initial hour = 4'd12;
  initial minute = 6'd0;
  initial alarm_hour = 4'd12;
  initial alarm_min = 6'd0;
  initial ring = 1'b0;
endmodule
`

// AlarmClock elaborates the clock with p7/p8/p9.
func AlarmClock() (*Design, error) {
	nl, err := build("alarm_clock", alarmClockSrc, "alarm_clock")
	if err != nil {
		return nil, err
	}
	b := property.Builder{NL: nl}
	hour, _ := nl.SignalByName("hour")
	minute, _ := nl.SignalByName("minute")
	// The registers' next-state nets: driver inputs of the flip-flops.
	hourNext := dffInput(nl, hour)
	minNext := dffInput(nl, minute)
	// p7: in normal time-keeping (tick, not set mode), 11:59 advances
	// to exactly 12:00; expressed over the registers' D inputs. (The
	// set mode may legitimately wrap minutes without touching hours.)
	tick, _ := nl.SignalByName("tick")
	setTime, _ := nl.SignalByName("set_time")
	ticking := nl.Binary(netlist.KAnd, tick, nl.Unary(netlist.KNot, setTime))
	at1159 := nl.Binary(netlist.KAnd, b.Equals(hour, 11), b.Equals(minute, 59))
	rolls := nl.Binary(netlist.KAnd, b.Equals(hourNext, 12), b.Equals(minNext, 0))
	cond := nl.Binary(netlist.KAnd, at1159, ticking)
	p7, err := property.NewInvariant(nl, "p7", b.Implies(cond, rolls))
	if err != nil {
		return nil, err
	}
	p8, err := property.NewWitness(nl, "p8", b.Reaches(hour, 2))
	if err != nil {
		return nil, err
	}
	p9, err := property.NewInvariant(nl, "p9", b.NeverValue(hour, 13))
	if err != nil {
		return nil, err
	}
	return &Design{
		Name: "alarm_clock", Source: alarmClockSrc, NL: nl,
		Props: []property.Property{p7, p8, p9}, PropIDs: []string{"p7", "p8", "p9"},
	}, nil
}

// dffInput returns the D input net of a register output signal.
func dffInput(nl *netlist.Netlist, q netlist.SignalID) netlist.SignalID {
	g := nl.Signals[q].Driver
	if g == netlist.None || nl.Gates[g].Kind != netlist.KDff {
		panic("circuits: not a register output")
	}
	return nl.Gates[g].In[0]
}
