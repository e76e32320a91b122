// Batch + portfolio suite over the Table-2 properties: the CI batch
// race job runs this under -race with -jobs=8 to exercise the
// concurrent scheduling layer (worker pool, engine racing with
// cancellation, the shared compiled designs) on real designs.
package repro

import (
	"context"
	"testing"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/property"
)

// shortTable2 collects the Table-2 properties whose single-engine
// checks complete in milliseconds — the batch suite's workload. The
// one exclusion is arbiter p5, whose serial ATPG induction proof runs
// ~0.3s (many seconds under -race); the portfolio test still covers
// it, because there the BDD engine wins the race in ~0.15s and
// cancellation stops the ATPG search early.
func shortTable2(t *testing.T) (designs []*circuits.Design, keep func(id string) bool) {
	t.Helper()
	ds, err := circuits.All()
	if err != nil {
		t.Fatal(err)
	}
	return ds, func(id string) bool { return id != "p5" }
}

// TestPortfolioTable2 races atpg/bmc/bdd on every Table-2 property and
// requires the portfolio verdict to equal the ATPG-alone verdict or
// strictly strengthen it (proved-bounded upgraded to proved by the
// unbounded BDD engine winning the race).
func TestPortfolioTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("portfolio suite runs in the dedicated CI job / full suite")
	}
	designs, err := circuits.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range designs {
		for i, p := range d.Props {
			id := d.PropIDs[i]
			c, err := core.New(d.NL, core.Options{MaxDepth: circuits.TableDepth(id), UseInduction: true})
			if err != nil {
				t.Fatal(err)
			}
			alone := c.Check(p)
			pf := c.Portfolio().Check(context.Background(), core.Problem{NL: d.NL, Prop: p, MaxDepth: circuits.TableDepth(id)})
			t.Logf("%s_%s: atpg=%v portfolio=%v [%s]", d.Name, id, alone.Verdict, pf.Verdict, pf.Engine)
			if pf.Verdict == alone.Verdict {
				continue
			}
			if alone.Verdict == core.VerdictProvedBounded && pf.Verdict == core.VerdictProved {
				continue // strictly strengthened by an unbounded engine
			}
			t.Errorf("%s_%s: portfolio verdict %v [%s] disagrees with atpg-alone %v",
				d.Name, id, pf.Verdict, pf.Engine, alone.Verdict)
		}
	}
}

// TestBatchCheckAllJobs8 runs every design's short properties through
// Session.CheckAll on an 8-worker pool (the CI -race configuration)
// and pins that results come back in input order with the verdicts the
// serial path produces.
func TestBatchCheckAllJobs8(t *testing.T) {
	if testing.Short() {
		t.Skip("batch suite runs in the dedicated CI job / full suite")
	}
	designs, keep := shortTable2(t)
	for _, d := range designs {
		var props []property.Property
		var ids []string
		maxDepth := 0
		for i, p := range d.Props {
			id := d.PropIDs[i]
			if !keep(id) {
				continue
			}
			props = append(props, p)
			ids = append(ids, id)
			if dep := circuits.TableDepth(id); dep > maxDepth {
				maxDepth = dep
			}
		}
		if len(props) == 0 {
			continue
		}
		c, err := core.New(d.NL, core.Options{MaxDepth: maxDepth, UseInduction: true})
		if err != nil {
			t.Fatal(err)
		}
		batch := c.CheckAll(context.Background(), props, core.BatchOptions{Jobs: 8})
		if len(batch) != len(props) {
			t.Fatalf("%s: %d results for %d properties", d.Name, len(batch), len(props))
		}
		for i, res := range batch {
			if res.Property != props[i].Name {
				t.Errorf("%s: result %d is %q, want input-order %q", d.Name, i, res.Property, props[i].Name)
			}
			serial := c.Check(props[i])
			if res.Verdict != serial.Verdict {
				t.Errorf("%s_%s: batch verdict %v, serial %v", d.Name, ids[i], res.Verdict, serial.Verdict)
			}
		}
	}
}

// TestBatchPortfolioJobs8 is the combined configuration the CI race
// job pins: CheckAll with an 8-worker pool where every worker races
// the full portfolio, over one multi-property design.
func TestBatchPortfolioJobs8(t *testing.T) {
	if testing.Short() {
		t.Skip("batch suite runs in the dedicated CI job / full suite")
	}
	designs, keep := shortTable2(t)
	for _, d := range designs {
		var props []property.Property
		for i, p := range d.Props {
			if keep(d.PropIDs[i]) {
				props = append(props, p)
			}
		}
		if len(props) < 2 {
			continue
		}
		c, err := core.New(d.NL, core.Options{MaxDepth: 4, UseInduction: true})
		if err != nil {
			t.Fatal(err)
		}
		batch := c.CheckAll(context.Background(), props, core.BatchOptions{Jobs: 8, Engine: c.Portfolio()})
		for i, res := range batch {
			if res.Property != props[i].Name {
				t.Errorf("%s: result %d out of order", d.Name, i)
			}
			if res.Verdict == core.VerdictUnknown {
				t.Errorf("%s/%s: portfolio returned unknown", d.Name, res.Property)
			}
		}
	}
}
