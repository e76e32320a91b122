package atpg

import (
	"testing"

	"repro/internal/bv"
	"repro/internal/netlist"
)

// buildDomainNetlist returns a design with two domain-restricted
// registers whose cones differ in size, so the order in which the
// engine branches over their domains changes the implication count.
// Before domains were iterated in sorted order, that order came from Go
// map iteration and differed run to run.
func buildDomainNetlist() (*netlist.Netlist, netlist.SignalID, []Domain) {
	nl := netlist.New("det")
	d0 := nl.AddInput("d0", 2)
	d1 := nl.AddInput("d1", 2)
	q0 := nl.Dff(d0, bv.NewX(2), "q0")
	q1 := nl.Dff(d1, bv.NewX(2), "q1")
	// Asymmetric cones: q0 feeds an extra chain created before the
	// monitor, so it sits earlier in q0's fanout (and hence the FIFO
	// propagation queue) than the conflict-detecting comparator — a
	// wrong q0 branch evaluates the chain before conflicting, while a
	// wrong q1 branch conflicts immediately. Which register is branched
	// first therefore shows up in the implication count.
	r := nl.Unary(netlist.KRedOr, q0)
	_ = nl.Unary(netlist.KNot, r)
	// The monitor requires the two registers to differ: implication
	// cannot resolve that while both are unknown, the registers are too
	// wide for control decisions, so the engine must branch over the
	// domains.
	mon := nl.Binary(netlist.KNe, q0, q1)

	mkDomain := func(sig netlist.SignalID, raw []uint64) Domain {
		vals := make([]bv.BV, len(raw))
		for i, v := range raw {
			vals[i] = bv.FromUint64(nl.Width(sig), v)
		}
		return Domain{
			Sig: sig,
			FeasibleIn: func(_ int, cube bv.BV) bool {
				for _, v := range vals {
					if cube.Covers(v) {
						return true
					}
				}
				return false
			},
			Enumerate: func(_ int, cube bv.BV, fn func(bv.BV) bool) {
				for _, v := range vals {
					if cube.Covers(v) {
						if !fn(v) {
							return
						}
					}
				}
			},
		}
	}
	// Equal feasible-value counts: the tie between the two domains is
	// broken purely by iteration order.
	doms := []Domain{
		mkDomain(q0, []uint64{1, 2}),
		mkDomain(q1, []uint64{1, 2}),
	}
	return nl, mon, doms
}

// TestSolveDeterministicDomains runs the same solve repeatedly (domains
// registered in both insertion orders) and requires bit-identical
// search statistics: domain iteration is sorted by SignalID, so neither
// map iteration order nor registration order may leak into the search.
func TestSolveDeterministicDomains(t *testing.T) {
	nl, mon, doms := buildDomainNetlist()
	var ref Stats
	for run := 0; run < 12; run++ {
		e, err := New(nl, 1, ModeWitness, Limits{}, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if run%2 == 0 {
			e.AddDomain(doms[0])
			e.AddDomain(doms[1])
		} else {
			e.AddDomain(doms[1])
			e.AddDomain(doms[0])
		}
		if !e.Require(0, mon, bv.FromUint64(1, 1)) {
			t.Fatal("require conflicts")
		}
		if st := e.Solve(); st != StatusSat {
			t.Fatalf("run %d: status %v, want sat", run, st)
		}
		if run == 0 {
			ref = e.Stats()
			if ref.Decisions == 0 {
				t.Fatalf("expected at least one (domain) decision, got %+v", ref)
			}
			continue
		}
		if got := e.Stats(); got != ref {
			t.Fatalf("run %d: stats diverged:\n got %+v\nwant %+v", run, got, ref)
		}
	}
}
