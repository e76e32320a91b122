// Command quickstart is the five-minute tour of the assertion checker:
// compile a small Verilog arbiter into an immutable core.Design, state
// a one-hot safety property and a witness obligation, and run the
// combined word-level-ATPG + modular-arithmetic engine on both through
// per-run sessions — including a concurrent batch, which is where the
// Design/Session split pays off (compile once, check from N workers).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/property"
)

const src = `
module grant2(clk, rst, req0, req1, g0, g1);
  input clk, rst, req0, req1;
  output g0, g1;
  reg g0, g1;
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      g0 <= 1'b0;
      g1 <= 1'b0;
    end else begin
      g0 <= req0;
      g1 <= req1 & ~req0;
    end
  end
  initial g0 = 1'b0;
  initial g1 = 1'b0;
endmodule
`

func main() {
	// 1. Front end: parse + elaborate ("quick synthesis") + compile
	// into an immutable core.Design — the artifact every session,
	// engine and worker below shares. The design also caches the
	// per-engine compiled forms (BMC frame template, BDD model, ATPG
	// prep), each built at most once on first use.
	design, err := core.CompileVerilog(src, "grant2")
	if err != nil {
		log.Fatal(err)
	}
	nl := design.Netlist()
	st := design.Stats()
	fmt.Printf("compiled grant2: %d gates, %d FFs, %d inputs\n", st.Gates, st.FFs, st.Ins)

	// 2. Properties: the grants must never both be active (invariant),
	// and client 1 must be grantable (witness).
	b := property.Builder{NL: nl}
	g0, _ := nl.SignalByName("g0")
	g1, _ := nl.SignalByName("g1")
	exclusive, err := property.NewInvariant(nl, "grants-exclusive", b.AtMostOne(g0, g1))
	if err != nil {
		log.Fatal(err)
	}
	grantable, err := property.NewWitness(nl, "client1-grantable", g1)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Check through a per-run session. Sessions are cheap — they
	// borrow everything compiled from the design and own only mutable
	// search state. The invariant is proved by induction; the witness
	// comes back as a concrete input trace, replay-validated on the
	// three-valued simulator.
	sess, err := design.NewSession(core.Options{MaxDepth: 8, UseInduction: true})
	if err != nil {
		log.Fatal(err)
	}
	want := map[string]core.Verdict{
		"grants-exclusive":  core.VerdictProved,
		"client1-grantable": core.VerdictWitnessFound,
	}
	res := sess.Check(exclusive)
	fmt.Printf("%-18s -> %v (depth %d, %d decisions, %v)\n",
		res.Property, res.Verdict, res.Depth, res.Stats.Decisions, res.Elapsed.Round(1000))
	expect(res.Property, res.Verdict, want[res.Property])

	res = sess.Check(grantable)
	fmt.Printf("%-18s -> %v (depth %d)\n", res.Property, res.Verdict, res.Depth)
	expect(res.Property, res.Verdict, want[res.Property])
	if res.Trace != nil {
		fmt.Print("witness trace:\n", res.Trace.Format(nl))
	}

	// 4. Batch: both properties on a concurrent worker pool, results in
	// input order. Workers share the one compiled design — this same
	// API backs the assertd HTTP front end (cmd/assertd), where designs
	// are additionally cached by content hash across requests:
	//
	//   curl -X POST localhost:8545/v1/check -d '{"design": "...",
	//     "top": "grant2", "invariants": ["..."], "jobs": 8}'
	batch := sess.CheckAll(context.Background(),
		[]property.Property{exclusive, grantable}, core.BatchOptions{Jobs: 2})
	for _, r := range batch {
		fmt.Printf("batch: %-18s -> %v [%s]\n", r.Property, r.Verdict, r.Engine)
		expect("batch "+r.Property, r.Verdict, want[r.Property])
	}
}

// expect exits 1 on a verdict other than the one this example
// demonstrates, so running the example checks its answers.
func expect(what string, got, want core.Verdict) {
	if got != want {
		log.Fatalf("%s: verdict %v, want %v", what, got, want)
	}
}
