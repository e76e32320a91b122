package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/property"
)

// paperFlow checks p the way the paper's Fig. 1 loop does, from the
// loop's own phases on one session: the bounded search at depths
// 1..MaxDepth, then, for an invariant with state in its cone and no
// counterexample, the pre-check and the step at k = MaxDepth. The
// result carries the counters of every phase that ran and the wall
// time; a found trace is not replayed.
func paperFlow(t *testing.T, s *Session, p property.Property) Result {
	t.Helper()
	start := time.Now()
	ctx := context.Background()
	prep, err := s.d.ATPGPrep()
	if err != nil {
		t.Fatal(err)
	}
	res := func(v Verdict, depth int, st atpg.Stats) Result {
		return Result{Verdict: v, Depth: depth, Stats: st, Elapsed: time.Since(start)}
	}
	var agg atpg.Stats
	for depth := 1; depth <= s.opts.MaxDepth; depth++ {
		eng, st, err := s.bounded(ctx, prep, p, depth, s.opts.Limits)
		if err != nil {
			t.Fatal(err)
		}
		agg = addStats(agg, eng.Stats())
		switch {
		case st == atpg.StatusSat && p.Kind == property.Witness:
			return res(VerdictWitnessFound, depth, agg)
		case st == atpg.StatusSat:
			return res(VerdictFalsified, depth, agg)
		case st != atpg.StatusUnsat:
			t.Fatalf("%s: bounded search at depth %d aborted", p.Name, depth)
		}
		if r, ok := s.coneExhausted(p, depth, agg); ok {
			return res(r.Verdict, depth, agg)
		}
	}
	if p.Kind == property.Witness {
		return res(VerdictNoWitness, s.opts.MaxDepth, agg)
	}
	limits := atpg.Limits{MaxDecisions: 5000, MaxBacktracks: 10000}
	for _, k := range []int{0, s.opts.MaxDepth} {
		st, stats := s.inductionStep(ctx, prep, p, k, limits)
		agg = addStats(agg, stats)
		if st == atpg.StatusUnsat {
			return res(VerdictProved, s.opts.MaxDepth, agg)
		}
	}
	return res(VerdictProvedBounded, s.opts.MaxDepth, agg)
}

// TestTable2Shape checks the qualitative shape of Table 2 on the flow
// the paper runs (paperFlow): every property completes, and the
// sequential one-hot proofs p3 and p5 dominate the witnesses p4 and p6
// on the same designs (paper: proofs cost more than witnesses). Each
// wall time is the best of seven runs, each on a fresh session, and
// the ordering must also show in the implication counts, which do not
// depend on machine load. The default flow proves p3 and p5 at the
// pre-check, before any bounded search, so it must take fewer
// implications than the paper flow on both.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-time ordering over best-of-seven runs; run without -short")
	}
	designs, err := circuits.All()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := map[string]float64{}
	impls := map[string]int{}
	for _, d := range designs {
		cd, err := DesignFor(d.NL)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range d.Props {
			id := d.PropIDs[i]
			opts := Options{MaxDepth: circuits.TableDepth(id), UseInduction: true}
			var res Result
			for run := 0; run < 7; run++ {
				s, err := cd.NewSession(opts)
				if err != nil {
					t.Fatal(err)
				}
				if r := paperFlow(t, s, p); run == 0 || r.Elapsed < res.Elapsed {
					res = r
				}
			}
			elapsed[id] = res.Elapsed.Seconds()
			impls[id] = res.Stats.Implications
			t.Logf("%-14s %-4s %-16s depth=%d dec=%d impl=%d %.3fs",
				d.Name, id, res.Verdict, res.Depth, res.Stats.Decisions,
				res.Stats.Implications, res.Elapsed.Seconds())
			if id == "p3" || id == "p5" {
				s, err := cd.NewSession(opts)
				if err != nil {
					t.Fatal(err)
				}
				if def := s.Check(p); def.Verdict != VerdictProved || def.Stats.Implications >= res.Stats.Implications {
					t.Errorf("%s: default flow %v with %d implications, want proved with fewer than the paper flow's %d",
						id, def.Verdict, def.Stats.Implications, res.Stats.Implications)
				}
			}
		}
	}
	if elapsed["p5"] < elapsed["p6"] || impls["p5"] <= impls["p6"] {
		t.Errorf("p5 (%.3fs, %d implications) should dominate p6 (%.3fs, %d)", elapsed["p5"], impls["p5"], elapsed["p6"], impls["p6"])
	}
	if elapsed["p3"] < elapsed["p4"] || impls["p3"] <= impls["p4"] {
		t.Errorf("p3 (%.3fs, %d implications) should dominate p4 (%.3fs, %d)", elapsed["p3"], impls["p3"], elapsed["p4"], impls["p4"])
	}
}
