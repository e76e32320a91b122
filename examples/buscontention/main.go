// Command buscontention checks industry-style tri-state bus contention
// properties (the paper's p11–p13): the enables driving a shared bus
// must be one-hot, or simultaneously-enabled drivers must agree on the
// data (consensus). It then plants a bug — a decoder that double-
// selects — and shows the generated counterexample.
package main

import (
	"fmt"
	"log"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/elab"
	"repro/internal/netlist"
	"repro/internal/property"
	"repro/internal/verilog"
)

func main() {
	healthy()
	planted()
}

func healthy() {
	fmt.Println("== industry_02/03/04: contention-free designs ==")
	for _, build := range []func() (*circuits.Design, error){
		circuits.Industry02, circuits.Industry03, circuits.Industry04,
	} {
		d, err := build()
		if err != nil {
			log.Fatal(err)
		}
		c, err := core.New(d.NL, core.Options{MaxDepth: 3, UseInduction: true})
		if err != nil {
			log.Fatal(err)
		}
		res := c.Check(d.Props[0])
		st := d.NL.Stats()
		fmt.Printf("  %-12s (%5d gates, bus via %d-bit data): %s -> %v in %v\n",
			d.Name, st.Gates, busWidth(d.NL), d.PropIDs[0], res.Verdict,
			res.Elapsed.Round(100000))
		expect(d.Name+" "+d.PropIDs[0], res.Verdict, core.VerdictProved)
	}
	fmt.Println()
}

// planted builds a broken decoder that enables two drivers with
// different data when sel==3 — the checker must produce a validated
// counterexample.
func planted() {
	fmt.Println("== planted contention bug ==")
	src := `
module buggy_bus(sel, d0, d1, d2, en, bus_or);
  input [1:0] sel;
  input [15:0] d0, d1, d2;
  output [2:0] en;
  output [15:0] bus_or;
  assign en = (sel == 2'd0) ? 3'b001 :
              (sel == 2'd1) ? 3'b010 :
              (sel == 2'd2) ? 3'b100 : 3'b011;
  assign bus_or = (en[0] ? d0 : 16'd0) | (en[1] ? d1 : 16'd0) | (en[2] ? d2 : 16'd0);
endmodule
`
	ast, err := verilog.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	nl, err := elab.Elaborate(ast, "buggy_bus", nil)
	if err != nil {
		log.Fatal(err)
	}
	b := property.Builder{NL: nl}
	en, _ := nl.SignalByName("en")
	var enb, datas []netlist.SignalID
	for i := 0; i < 3; i++ {
		enb = append(enb, nl.Slice(en, i, i))
		d, _ := nl.SignalByName(fmt.Sprintf("d%d", i))
		datas = append(datas, d)
	}
	p, err := property.NewInvariant(nl, "no-contention", b.NoBusContention(enb, datas))
	if err != nil {
		log.Fatal(err)
	}
	c, err := core.New(nl, core.Options{MaxDepth: 1})
	if err != nil {
		log.Fatal(err)
	}
	res := c.Check(p)
	fmt.Printf("  verdict: %v (validated=%v)\n", res.Verdict, res.Validated)
	expect("planted contention bug", res.Verdict, core.VerdictFalsified)
	if !res.Validated {
		log.Fatal("planted contention bug: counterexample not validated")
	}
	if res.Trace != nil {
		fmt.Println("  counterexample inputs:")
		fmt.Print("   ", res.Trace.Format(nl))
	}
}

func busWidth(nl *netlist.Netlist) int {
	if s, ok := nl.SignalByName("bus_or"); ok {
		return nl.Width(s)
	}
	return 0
}

// expect exits 1 on a verdict other than the one this example
// demonstrates, so running the example checks its answers.
func expect(what string, got, want core.Verdict) {
	if got != want {
		log.Fatalf("%s: verdict %v, want %v", what, got, want)
	}
}
