// Command localfsm demonstrates the implemented §6 extension: local
// finite state machine extraction. Each register is imaged on its own,
// as a BDD of its next-state cone with every other register and input
// left free, from its reset value to the fixpoint; the reachable sets
// guide the ATPG away from illegal states and make one-hot/range
// invariants inductive. The token ring's 48-bit rotator, the arbiter's
// one-hot pointer and the alarm clock's hour register are the showcase
// machines.
package main

import (
	"fmt"
	"log"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/fsm"
)

func main() {
	showMachines()
	showEffect()
}

func showMachines() {
	fmt.Println("== extracted local FSMs ==")
	clock, err := circuits.AlarmClock()
	if err != nil {
		log.Fatal(err)
	}
	ring, err := circuits.TokenRing(48)
	if err != nil {
		log.Fatal(err)
	}
	arb, err := circuits.Arbiter(16)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range []*circuits.Design{clock, ring, arb} {
		ms, err := fsm.Extract(d.NL)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", d.Name)
		for _, m := range ms {
			name := d.NL.Signals[m.Q].Name
			if len(m.Values) <= 12 {
				vals := make([]uint64, len(m.Values))
				for i, v := range m.Values {
					vals[i], _ = v.Uint64()
				}
				fmt.Printf("  %-12s %2d bits, reachable %v\n", name, m.Width, vals)
			} else {
				fmt.Printf("  %-12s %2d bits, %d reachable states (of 2^%d)\n",
					name, m.Width, len(m.Values), m.Width)
			}
		}
	}
	fmt.Println()
}

func showEffect() {
	fmt.Println("== effect on the hard proofs ==")
	ring, _ := circuits.TokenRing(48)
	p3 := ring.Props[0]
	clock, _ := circuits.AlarmClock()
	p9 := clock.Props[2]
	runs := []struct {
		name    string
		d       *circuits.Design
		p       int
		disable bool
		want    core.Verdict
	}{
		{"token_ring p3 with STG guidance", ring, 0, false, core.VerdictProved},
		{"token_ring p3 without", ring, 0, true, core.VerdictProvedBounded},
		{"alarm_clock p9 with STG guidance", clock, 2, false, core.VerdictProved},
		{"alarm_clock p9 without", clock, 2, true, core.VerdictProved},
	}
	for _, r := range runs {
		prop := p3
		if r.p == 2 {
			prop = p9
		}
		c, err := core.New(r.d.NL, core.Options{MaxDepth: 4, UseInduction: true, DisableLocalFSM: r.disable})
		if err != nil {
			log.Fatal(err)
		}
		res := c.Check(prop)
		fmt.Printf("  %-34s %-16s %6d decisions  %v\n",
			r.name, res.Verdict, res.Stats.Decisions, res.Elapsed.Round(100000))
		expect(r.name, res.Verdict, r.want)
	}
}

// expect exits 1 on a verdict other than the one this example
// demonstrates, so running the example checks its answers.
func expect(what string, got, want core.Verdict) {
	if got != want {
		log.Fatalf("%s: verdict %v, want %v", what, got, want)
	}
}
