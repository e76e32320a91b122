// Command alarmclock runs the paper's alarm_clock case study (Table 2
// properties p7, p8, p9): the 11:59 → 12:00 rollover invariant, a
// witness sequence bringing the hour display to 2, and the proof that
// the hour display can never show 13.
package main

import (
	"fmt"
	"log"

	"repro/internal/circuits"
	"repro/internal/core"
)

func main() {
	d, err := circuits.AlarmClock()
	if err != nil {
		log.Fatal(err)
	}
	st := d.NL.Stats()
	fmt.Printf("alarm_clock: %d lines of Verilog, %d gates, %d FF bits\n\n",
		d.Lines(), st.Gates, st.FFs)

	want := map[string]core.Verdict{
		"p7": core.VerdictProved,
		"p8": core.VerdictWitnessFound,
		"p9": core.VerdictProved,
	}
	for i, p := range d.Props {
		id := d.PropIDs[i]
		depth := 4
		if id == "p9" {
			depth = 8
		}
		c, err := core.New(d.NL, core.Options{MaxDepth: depth, UseInduction: true})
		if err != nil {
			log.Fatal(err)
		}
		res := c.Check(p)
		fmt.Printf("%s (%s): %v  depth=%d decisions=%d implications=%d time=%v\n",
			id, p.Kind, res.Verdict, res.Depth, res.Stats.Decisions,
			res.Stats.Implications, res.Elapsed.Round(100000))
		expect(id, res.Verdict, want[id])
		if res.Trace != nil {
			fmt.Println("  trace (hour reaches 2 via set mode):")
			fmt.Print(indent(res.Trace.Format(d.NL)))
		}
		fmt.Println()
	}
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out += "    " + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}

// expect exits 1 on a verdict other than the one this example
// demonstrates, so running the example checks its answers.
func expect(what string, got, want core.Verdict) {
	if got != want {
		log.Fatalf("%s: verdict %v, want %v", what, got, want)
	}
}
