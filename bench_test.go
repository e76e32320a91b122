// Benchmarks regenerating every table and figure of the paper's
// evaluation:
//
//	BenchmarkTable1Elaboration    Table 1 (front-end + statistics)
//	BenchmarkTable2/...           Table 2 (one sub-benchmark per property;
//	                              ns/op is the cpu-time column, B/op the
//	                              memory column)
//	BenchmarkFig3...Fig5          the worked examples of §3.1 and §4.1
//	BenchmarkSection4Nonlinear    the §4 multiplier enumeration
//	BenchmarkScalingTokenRing     the §5 scaling claim: ATPG vs SAT-BMC
//	                              vs BDD reachability on growing rings
package repro

import (
	"fmt"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bmc"
	"repro/internal/bv"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/linsolve"
	"repro/internal/mc"
	"repro/internal/modarith"
	"repro/internal/netlist"
	"repro/internal/property"
)

// tableDepth is the canonical per-property frame bound.
func tableDepth(id string) int { return circuits.TableDepth(id) }

func BenchmarkTable1Elaboration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		designs, err := circuits.All()
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, d := range designs {
			total += d.NL.Stats().Gates
		}
		if total == 0 {
			b.Fatal("no gates")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	designs, err := circuits.All()
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range designs {
		for i := range d.Props {
			p := d.Props[i]
			id := d.PropIDs[i]
			name := fmt.Sprintf("%s_%s", d.Name, id)
			nl := d.NL
			b.Run(name, func(b *testing.B) {
				var last core.Result
				for n := 0; n < b.N; n++ {
					c, err := core.New(nl, core.Options{MaxDepth: tableDepth(id), UseInduction: true})
					if err != nil {
						b.Fatal(err)
					}
					last = c.Check(p)
				}
				if !acceptableVerdict(p, last.Verdict) {
					b.Fatalf("verdict %v", last.Verdict)
				}
				b.ReportMetric(float64(last.Stats.Decisions), "decisions")
				b.ReportMetric(float64(last.Stats.Implications), "implications")
			})
		}
	}
}

func acceptableVerdict(p property.Property, v core.Verdict) bool {
	if p.Kind == property.Witness {
		return v == core.VerdictWitnessFound
	}
	return v == core.VerdictProved || v == core.VerdictProvedBounded
}

// BenchmarkFig3AdderImplication measures the adder backward implication
// of Fig. 3 (out − known input, with implied carry-out).
func BenchmarkFig3AdderImplication(b *testing.B) {
	out := bv.MustParse("4'b0111")
	in := bv.MustParse("4'b1x1x")
	for i := 0; i < b.N; i++ {
		other, borrow := out.SubBorrow(in)
		if borrow != bv.One || other.Bit(1) != bv.Zero {
			b.Fatal("wrong implication")
		}
	}
}

// BenchmarkFig4ComparatorImplication measures the full comparator
// interval implication of Fig. 4 inside the engine.
func BenchmarkFig4ComparatorImplication(b *testing.B) {
	nl := netlist.New("fig4")
	a := nl.AddInput("in_a", 4)
	bb := nl.AddInput("in_b", 4)
	gt := nl.Binary(netlist.KGt, a, bb)
	for i := 0; i < b.N; i++ {
		eng, err := atpg.New(nl, 1, atpg.ModeProve, atpg.Limits{}, nil, false)
		if err != nil {
			b.Fatal(err)
		}
		eng.Require(0, a, bv.MustParse("4'bx01x"))
		eng.Require(0, bb, bv.MustParse("4'b1x0x"))
		eng.Require(0, gt, bv.FromUint64(1, 1))
		if !eng.Propagate() {
			b.Fatal("conflict")
		}
		if eng.Value(0, a).String() != "4'b101x" {
			b.Fatal("wrong implication")
		}
	}
}

// BenchmarkFig5LinearSolve measures the Gauss–Jordan closed-form solve
// of the Fig. 5 linear circuit.
func BenchmarkFig5LinearSolve(b *testing.B) {
	m := modarith.NewMod(4)
	for i := 0; i < b.N; i++ {
		s := linsolve.NewSystem(4, 4)
		s.AddEquation([]uint64{3, m.Neg(1), 0, m.Neg(2)}, 2, 4)
		s.AddEquation([]uint64{1, 2, m.Neg(2), 0}, 10, 4)
		ss := s.Solve()
		if !ss.Feasible || ss.Count() != 256 {
			b.Fatal("wrong solution count")
		}
	}
}

// BenchmarkSection4NonlinearEnum measures the factoring-based
// multiplier enumeration of §4 (the wrap-around example).
func BenchmarkSection4NonlinearEnum(b *testing.B) {
	aCube := bv.FromUint64(3, 4).Zext(4)
	bCube := bv.NewX(3).Zext(4)
	for i := 0; i < b.N; i++ {
		cands := linsolve.SolveMul(4, 12, aCube, bCube, 0)
		if len(cands) != 2 {
			b.Fatal("want exactly the two wrap-around solutions")
		}
	}
}

// BenchmarkModularInverse measures Definition 3/4 inverses at width 64.
func BenchmarkModularInverse(b *testing.B) {
	m := modarith.NewMod(64)
	for i := 0; i < b.N; i++ {
		if _, ok := m.Inverse(0xdeadbeef1); !ok {
			b.Fatal("inverse must exist")
		}
		s := m.InverseWithProduct(0xdeadbeef10, 0xcafebabe0)
		_ = s.Count()
	}
}

// BenchmarkScalingTokenRing regenerates the §5 scaling comparison: the
// token-ring one-hot invariant (p3) checked at growing client counts by
// the word-level ATPG engine, the SAT-based BMC baseline and the
// BDD-based reachability baseline. ns/op gives the time series; B/op
// the memory series; the BDD runs additionally report peak node counts.
func BenchmarkScalingTokenRing(b *testing.B) {
	for _, n := range []int{4, 8, 16, 24} {
		d, err := circuits.TokenRing(n)
		if err != nil {
			b.Fatal(err)
		}
		p := d.Props[0] // p3
		nl := d.NL
		b.Run(fmt.Sprintf("atpg/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := core.New(nl, core.Options{MaxDepth: 3})
				if err != nil {
					b.Fatal(err)
				}
				res := c.Check(p)
				if res.Verdict != core.VerdictProved && res.Verdict != core.VerdictProvedBounded {
					b.Fatalf("verdict %v", res.Verdict)
				}
			}
		})
		b.Run(fmt.Sprintf("satbmc/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := bmc.Check(nl, p, bmc.Options{MaxDepth: 3})
				if res.Verdict != bmc.BoundedOK {
					b.Fatalf("verdict %v", res.Verdict)
				}
			}
		})
		b.Run(fmt.Sprintf("bddmc/n=%d", n), func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				res := mc.Check(nl, p, mc.Options{MaxNodes: 8 << 20})
				if res.Verdict == mc.Falsified {
					b.Fatalf("verdict %v", res.Verdict)
				}
				nodes = res.PeakNodes
			}
			b.ReportMetric(float64(nodes), "bdd-nodes")
		})
	}
}

// BenchmarkEngineComparison runs the same hard property (alarm p9)
// through all three engines — the head-to-head behind §5's efficiency
// discussion.
func BenchmarkEngineComparison(b *testing.B) {
	d, err := circuits.AlarmClock()
	if err != nil {
		b.Fatal(err)
	}
	p9 := d.Props[2]
	nl := d.NL
	b.Run("atpg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, _ := core.New(nl, core.Options{MaxDepth: 8, UseInduction: true})
			res := c.Check(p9)
			if res.Verdict != core.VerdictProved && res.Verdict != core.VerdictProvedBounded {
				b.Fatalf("verdict %v", res.Verdict)
			}
		}
	})
	b.Run("satbmc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := bmc.Check(nl, p9, bmc.Options{MaxDepth: 8})
			if res.Verdict != bmc.BoundedOK {
				b.Fatalf("verdict %v", res.Verdict)
			}
		}
	})
	b.Run("bddmc", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			res := mc.Check(nl, p9, mc.Options{MaxNodes: 8 << 20})
			if res.Verdict == mc.Falsified {
				b.Fatalf("verdict %v", res.Verdict)
			}
			nodes = res.PeakNodes
		}
		b.ReportMetric(float64(nodes), "bdd-nodes")
	})
}

// ---------------------------------------------------------------------
// Ablations: each sub-benchmark removes one engine component on the
// workload that exercises it, quantifying what that component buys.
// The "full" variant is the baseline.

// BenchmarkAblationIdentity measures structural identity (congruence)
// tracking on a consensus bus-contention proof: without it, proving
// Ne(w0, w1) = 0 for two mux-equal 8-bit signals degenerates to value
// enumeration.
func BenchmarkAblationIdentity(b *testing.B) {
	build := func() (*netlist.Netlist, property.Property) {
		nl := netlist.New("consensus")
		bcast := nl.AddInput("bcast", 1)
		d0 := nl.AddInput("d0", 8)
		d1 := nl.AddInput("d1", 8)
		w0 := nl.NamedBuf("w0", d0)
		w1 := nl.Mux(bcast, d1, d0)
		pb := property.Builder{NL: nl}
		en := []netlist.SignalID{bcast, bcast}
		p, _ := property.NewInvariant(nl, "consensus", pb.NoBusContention(en, []netlist.SignalID{w0, w1}))
		return nl, p
	}
	for _, abl := range []struct {
		name  string
		feats atpg.Features
	}{
		{"full", atpg.Features{}},
		{"no-identity", atpg.Features{NoIdentity: true}},
	} {
		b.Run(abl.name, func(b *testing.B) {
			var dec int
			for i := 0; i < b.N; i++ {
				nl, p := build()
				c, _ := core.New(nl, core.Options{MaxDepth: 1, Features: abl.feats})
				res := c.Check(p)
				if res.Verdict != core.VerdictProved {
					b.Fatalf("verdict %v", res.Verdict)
				}
				dec = res.Stats.Decisions
			}
			b.ReportMetric(float64(dec), "decisions")
		})
	}
}

// BenchmarkAblationArithSolver measures the modular arithmetic phase on
// a two-equation datapath witness (a+b and a-b pinned at 12 bits):
// with the solver the values come out of one closed-form solve; without
// it the engine enumerates bits.
func BenchmarkAblationArithSolver(b *testing.B) {
	build := func() (*netlist.Netlist, property.Property) {
		nl := netlist.New("lin")
		a := nl.AddInput("a", 12)
		bIn := nl.AddInput("b", 12)
		sum := nl.Binary(netlist.KAdd, a, bIn)
		diff := nl.Binary(netlist.KSub, a, bIn)
		pb := property.Builder{NL: nl}
		both := nl.Binary(netlist.KAnd, pb.Equals(sum, 3000), pb.Equals(diff, 1000))
		p, _ := property.NewWitness(nl, "solve", both)
		return nl, p
	}
	for _, abl := range []struct {
		name  string
		feats atpg.Features
	}{
		{"full", atpg.Features{}},
		{"no-arith-solver", atpg.Features{NoArithSolver: true}},
	} {
		b.Run(abl.name, func(b *testing.B) {
			var dec int
			for i := 0; i < b.N; i++ {
				nl, p := build()
				c, _ := core.New(nl, core.Options{MaxDepth: 1, Features: abl.feats})
				res := c.Check(p)
				if res.Verdict != core.VerdictWitnessFound {
					b.Fatalf("verdict %v", res.Verdict)
				}
				dec = res.Stats.Decisions
			}
			b.ReportMetric(float64(dec), "decisions")
		})
	}
}

// BenchmarkAblationProbabilityOrder measures the §3.2 legal-probability
// decision ordering on the token-ring one-hot proof.
func BenchmarkAblationProbabilityOrder(b *testing.B) {
	d, err := circuits.TokenRing(16)
	if err != nil {
		b.Fatal(err)
	}
	for _, abl := range []struct {
		name  string
		feats atpg.Features
	}{
		{"full", atpg.Features{}},
		{"no-prob-order", atpg.Features{NoProbabilityOrder: true}},
	} {
		b.Run(abl.name, func(b *testing.B) {
			var dec int
			for i := 0; i < b.N; i++ {
				c, _ := core.New(d.NL, core.Options{MaxDepth: 3, Features: abl.feats})
				res := c.Check(d.Props[0])
				if res.Verdict != core.VerdictProved && res.Verdict != core.VerdictProvedBounded {
					b.Fatalf("verdict %v", res.Verdict)
				}
				dec = res.Stats.Decisions
			}
			b.ReportMetric(float64(dec), "decisions")
		})
	}
}

// BenchmarkAblationLocalFSM measures the §6 local-FSM guidance on the
// paper's hard property p9: with the hour register's state transition
// graph the illegal value 13 is excluded by implication; without it the
// proof needs search plus induction.
func BenchmarkAblationLocalFSM(b *testing.B) {
	d, err := circuits.AlarmClock()
	if err != nil {
		b.Fatal(err)
	}
	p9 := d.Props[2]
	for _, abl := range []struct {
		name    string
		disable bool
	}{
		{"full", false},
		{"no-local-fsm", true},
	} {
		b.Run(abl.name, func(b *testing.B) {
			var dec int
			for i := 0; i < b.N; i++ {
				c, _ := core.New(d.NL, core.Options{MaxDepth: 8, UseInduction: true, DisableLocalFSM: abl.disable})
				res := c.Check(p9)
				if res.Verdict != core.VerdictProved && res.Verdict != core.VerdictProvedBounded {
					b.Fatalf("verdict %v", res.Verdict)
				}
				dec = res.Stats.Decisions
			}
			b.ReportMetric(float64(dec), "decisions")
		})
	}
}
