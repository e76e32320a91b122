package bmc

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bv"
	"repro/internal/cnf"
	"repro/internal/netlist"
	"repro/internal/property"
	"repro/internal/sat"
	"repro/internal/sim"
)

// buildCounterMax builds a 3-bit counter that wraps at wrapAt.
func buildCounterMax(wrapAt uint64) (*netlist.Netlist, netlist.SignalID) {
	nl := netlist.New("cnt")
	q := nl.DffPlaceholder(3, bv.FromUint64(3, 0), "q")
	wrap := nl.Binary(netlist.KEq, q, nl.ConstUint(3, wrapAt))
	inc := nl.Binary(netlist.KAdd, q, nl.ConstUint(3, 1))
	next := nl.Mux(wrap, inc, nl.ConstUint(3, 0))
	nl.ConnectDff(q, next)
	return nl, q
}

func TestBMCProvedBounded(t *testing.T) {
	nl, q := buildCounterMax(5)
	b := property.Builder{NL: nl}
	mon := b.InRange(q, 0, 5)
	p, _ := property.NewInvariant(nl, "range", mon)
	res := Check(nl, p, Options{MaxDepth: 10})
	if res.Verdict != BoundedOK {
		t.Fatalf("verdict = %v, want bounded-ok", res.Verdict)
	}
	if res.Vars == 0 || res.Clauses == 0 {
		t.Error("no CNF emitted")
	}
}

func TestBMCFalsifies(t *testing.T) {
	nl, q := buildCounterMax(6) // reaches 6 > 5
	b := property.Builder{NL: nl}
	mon := b.InRange(q, 0, 5)
	p, _ := property.NewInvariant(nl, "range", mon)
	res := Check(nl, p, Options{MaxDepth: 10})
	if res.Verdict != Falsified {
		t.Fatalf("verdict = %v, want falsified", res.Verdict)
	}
	if res.Depth != 7 {
		t.Errorf("cex depth = %d, want 7 (q=6 after 6 steps)", res.Depth)
	}
	// Validate by simulation.
	s, err := sim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	violated := false
	s.Replay(res.Trace, func(cycle int) bool {
		if v, ok := s.Get(mon).Uint64(); ok && v == 0 {
			violated = true
		}
		return true
	})
	if !violated {
		t.Error("BMC trace does not violate the monitor in simulation")
	}
}

func TestBMCWitness(t *testing.T) {
	nl, q := buildCounterMax(5)
	b := property.Builder{NL: nl}
	target := b.Reaches(q, 3)
	p, _ := property.NewWitness(nl, "reach3", target)
	res := Check(nl, p, Options{MaxDepth: 10})
	if res.Verdict != Falsified { // "found" in witness terms
		t.Fatalf("verdict = %v, want found", res.Verdict)
	}
	if res.Depth != 4 {
		t.Errorf("witness depth = %d, want 4", res.Depth)
	}
}

func TestBMCCombinationalArith(t *testing.T) {
	// sum = a + b == 9 with a = 4 must be satisfiable (b = 5).
	nl := netlist.New("dp")
	a := nl.AddInput("a", 4)
	bIn := nl.AddInput("b", 4)
	sum := nl.Binary(netlist.KAdd, a, bIn)
	pb := property.Builder{NL: nl}
	bad := nl.Binary(netlist.KAnd, pb.Equals(a, 4), pb.Equals(sum, 9))
	mon := nl.Unary(netlist.KNot, bad)
	p, _ := property.NewInvariant(nl, "sum9", mon)
	res := Check(nl, p, Options{MaxDepth: 1})
	if res.Verdict != Falsified {
		t.Fatalf("verdict = %v, want falsified", res.Verdict)
	}
	av, _ := res.Trace.Inputs[0][a].Uint64()
	bvv, _ := res.Trace.Inputs[0][bIn].Uint64()
	if av != 4 || (av+bvv)&0xf != 9 {
		t.Errorf("model a=%d b=%d", av, bvv)
	}
}

func TestBMCMultiplier(t *testing.T) {
	// 4-bit multiplier: find b with 4*b ≡ 12 — wrap-around means b=3
	// or b=7 both work; SAT should find one.
	nl := netlist.New("mul")
	a := nl.AddInput("a", 4)
	bIn := nl.AddInput("b", 4)
	prod := nl.Binary(netlist.KMul, a, bIn)
	pb := property.Builder{NL: nl}
	bad := nl.Binary(netlist.KAnd, pb.Equals(a, 4), pb.Equals(prod, 12))
	mon := nl.Unary(netlist.KNot, bad)
	p, _ := property.NewInvariant(nl, "mul12", mon)
	res := Check(nl, p, Options{MaxDepth: 1})
	if res.Verdict != Falsified {
		t.Fatalf("verdict = %v, want falsified", res.Verdict)
	}
	bvv, _ := res.Trace.Inputs[0][bIn].Uint64()
	if bvv != 3 && bvv != 7 {
		t.Errorf("b = %d, want 3 or 7", bvv)
	}
}

func TestCNFAgainstSimulatorRandom(t *testing.T) {
	// Cross-validation: random combinational circuits, random inputs;
	// constraining the CNF to the input values must force the outputs
	// to the simulator's values.
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		nl := netlist.New("rand")
		w := 3 + r.Intn(3)
		a := nl.AddInput("a", w)
		bIn := nl.AddInput("b", w)
		kinds := []netlist.Kind{
			netlist.KAnd, netlist.KOr, netlist.KXor, netlist.KAdd,
			netlist.KSub, netlist.KMul, netlist.KNand,
		}
		sig := []netlist.SignalID{a, bIn}
		for i := 0; i < 4; i++ {
			k := kinds[r.Intn(len(kinds))]
			x := sig[r.Intn(len(sig))]
			y := sig[r.Intn(len(sig))]
			sig = append(sig, nl.Binary(k, x, y))
		}
		out := sig[len(sig)-1]
		cmp := nl.Binary(netlist.KLt, sig[len(sig)-2], out)
		// Simulate with random inputs.
		s, err := sim.New(nl)
		if err != nil {
			t.Fatal(err)
		}
		mask := uint64(1)<<uint(w) - 1
		av, bvv := r.Uint64()&mask, r.Uint64()&mask
		s.SetInput(a, bv.FromUint64(w, av))
		s.SetInput(bIn, bv.FromUint64(w, bvv))
		s.Eval()
		// Constrain CNF inputs to the same values; outputs must match.
		solver := newSolverWithBlast(t, nl)
		blaster := solver.b
		pin := func(sigID netlist.SignalID, val uint64, width int) {
			for i := 0; i < width; i++ {
				lit := blaster.Lit(0, sigID, i)
				if val>>uint(i)&1 == 1 {
					solver.s.AddClause(lit)
				} else {
					solver.s.AddClause(lit.Not())
				}
			}
		}
		pin(a, av, w)
		pin(bIn, bvv, w)
		if st := solver.s.Solve(); st != sat.Sat {
			t.Fatalf("trial %d: constrained CNF unsat", trial)
		}
		for _, sigID := range []netlist.SignalID{out, cmp} {
			want := s.Get(sigID)
			got := blaster.ModelValue(0, sigID)
			wantV, _ := want.Uint64()
			gotV, _ := got.Uint64()
			if wantV != gotV {
				t.Fatalf("trial %d: signal %d: cnf=%d sim=%d", trial, sigID, gotV, wantV)
			}
		}
	}
}

type solverPair struct {
	s *sat.Solver
	b *cnf.Blaster
}

func newSolverWithBlast(t *testing.T, nl *netlist.Netlist) solverPair {
	t.Helper()
	s := sat.NewSolver()
	b := cnf.New(nl, s)
	if err := b.BlastFrame(0); err != nil {
		t.Fatal(err)
	}
	return solverPair{s, b}
}

// TestCompiledCoversUnreadAssume: an assumption over a
// declared-but-unread input must constrain only that input — the
// template gives every signal bit a variable inside its frame block, so
// no literal can alias a later frame's block.
func TestCompiledCoversUnreadAssume(t *testing.T) {
	nl, q := buildCounterMax(6)
	u := nl.AddInput("u", 1) // unread by any gate
	b := property.Builder{NL: nl}
	mon := b.InRange(q, 0, 5)
	p, _ := property.NewInvariant(nl, "range", mon)
	p = p.WithAssume(u)

	tmpl, err := cnf.Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	if !tmpl.Covers(u) {
		t.Fatal("template does not cover the unread input")
	}
	got := CheckCompiled(context.Background(), tmpl, p, Options{MaxDepth: 10})
	want := Check(nl, p, Options{MaxDepth: 10})
	if got.Verdict != want.Verdict || got.Depth != want.Depth {
		t.Fatalf("unread-input assume: compiled %v@%d, direct %v@%d",
			got.Verdict, got.Depth, want.Verdict, want.Depth)
	}
	if got.Verdict != Falsified || got.Depth != 7 {
		t.Fatalf("got %v@%d, want falsified@7", got.Verdict, got.Depth)
	}
}

// TestWideShiftAmount: q' = q >> amt and q << amt, where only amount
// bit 63 (a 64-bit amount) or bit 64 (a 65-bit amount) can be set. An
// amount bit whose weight is at least the width shifts every bit out,
// so q stays in {0x18, 0} and reaches 0 one step after reset. Both
// answers come without a trace replay, which the simulator cannot run
// on amounts wider than 64 bits.
func TestWideShiftAmount(t *testing.T) {
	for _, kind := range []netlist.Kind{netlist.KShr, netlist.KShl} {
		for _, bit := range []int{63, 64} {
			nl := netlist.New("wideshift")
			on := nl.AddInput("on", 1)
			q := nl.DffPlaceholder(8, bv.FromUint64(8, 0x18), "q")
			nl.ConnectDff(q, nl.Binary(kind, q, nl.Concat(on, nl.ConstUint(bit, 0))))
			b := property.Builder{NL: nl}
			inv, _ := property.NewInvariant(nl, "in-set", nl.Binary(netlist.KOr, b.Reaches(q, 0x18), b.Reaches(q, 0)))
			if res := Check(nl, inv, Options{MaxDepth: 4}); res.Verdict != BoundedOK {
				t.Errorf("%v by amount bit %d: q in {0x18, 0} is %v, want bounded-ok", kind, bit, res.Verdict)
			}
			wit, _ := property.NewWitness(nl, "zero", b.Reaches(q, 0))
			if res := Check(nl, wit, Options{MaxDepth: 4}); res.Verdict != Falsified || res.Depth != 2 {
				t.Errorf("%v by amount bit %d: witness q == 0 is %v at depth %d, want found at depth 2", kind, bit, res.Verdict, res.Depth)
			}
		}
	}
}

// TestMuxPastDataList: a 1-bit select over the data list {0, 1, 2}
// never selects the third entry, so select 0 gives y = 0 and y != 0
// is falsified at depth 1.
func TestMuxPastDataList(t *testing.T) {
	nl := netlist.New("longmux")
	sel := nl.AddInput("sel", 1)
	y := nl.Mux(sel, nl.ConstUint(2, 0), nl.ConstUint(2, 1), nl.ConstUint(2, 2))
	p, _ := property.NewInvariant(nl, "nonzero", nl.Binary(netlist.KNe, y, nl.ConstUint(2, 0)))
	res := Check(nl, p, Options{MaxDepth: 4})
	if res.Verdict != Falsified || res.Depth != 1 {
		t.Fatalf("y != 0: %v at depth %d, want falsified at depth 1", res.Verdict, res.Depth)
	}
	if s, _ := res.Trace.Inputs[0][sel].Uint64(); s != 0 {
		t.Errorf("counterexample selects %d, want 0", s)
	}
}
