package circuits

import (
	"testing"

	"repro/internal/core"
)

// TestTable2Shape checks the qualitative shape of Table 2: every
// property completes, and the relative difficulty ordering the paper
// reports is visible (the sequential one-hot proofs p3/p5/p11 dominate
// the cheap combinational checks). With the §6 local FSMs the arbiter
// and token-ring proofs take a few milliseconds, so each wall time is
// the best of seven runs, and the ordering must also show in the
// implication counts, which do not depend on machine load.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table-2 run takes ~30s; run without -short for the perf yardstick")
	}
	designs, err := All()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := map[string]float64{}
	impls := map[string]int{}
	for _, d := range designs {
		for i, p := range d.Props {
			id := d.PropIDs[i]
			var res core.Result
			for run := 0; run < 7; run++ {
				c, _ := core.New(d.NL, core.Options{MaxDepth: depthFor(id), UseInduction: true})
				if r := c.Check(p); run == 0 || r.Elapsed < res.Elapsed {
					res = r
				}
			}
			elapsed[id] = res.Elapsed.Seconds()
			impls[id] = res.Stats.Implications
			t.Logf("%-14s %-4s %-16s depth=%d dec=%d impl=%d %.3fs %.1fMB",
				d.Name, id, res.Verdict, res.Depth, res.Stats.Decisions,
				res.Stats.Implications, res.Elapsed.Seconds(), float64(res.AllocBytes)/1e6)
		}
	}
	// The hardest properties must be the sequential one-hot invariants,
	// never the witness generations (paper: proofs cost more than
	// witnesses on the same design).
	if elapsed["p5"] < elapsed["p6"] || impls["p5"] <= impls["p6"] {
		t.Errorf("p5 (%.3fs, %d implications) should dominate p6 (%.3fs, %d)", elapsed["p5"], impls["p5"], elapsed["p6"], impls["p6"])
	}
	if elapsed["p3"] < elapsed["p4"] || impls["p3"] <= impls["p4"] {
		t.Errorf("p3 (%.3fs, %d implications) should dominate p4 (%.3fs, %d)", elapsed["p3"], impls["p3"], elapsed["p4"], impls["p4"])
	}
}
