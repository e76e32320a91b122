package cnf

import (
	"math/rand"
	"testing"

	"repro/internal/bv"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// randomSeq builds a small random sequential netlist with a 1-bit
// comparator monitor. Its gates cover every kind: inverters and
// slices, concatenations and extensions (negated and shared literals),
// reductions, shifts, muxes (one whose 2-bit select can pass its three
// entries) and a constant operand with x bits.
func randomSeq(r *rand.Rand) (*netlist.Netlist, netlist.SignalID) {
	nl := netlist.New("rand")
	w := 2 + r.Intn(3)
	var sigs []netlist.SignalID
	for i := 0; i < 1+r.Intn(2); i++ {
		sigs = append(sigs, nl.AddInput(string(rune('a'+i)), w))
	}
	q := nl.DffPlaceholder(w, bv.FromUint64(w, uint64(r.Intn(1<<uint(w)))), "q")
	sigs = append(sigs, q)
	pick := func() netlist.SignalID { return sigs[r.Intn(len(sigs))] }
	kinds := []netlist.Kind{
		netlist.KAnd, netlist.KOr, netlist.KXor, netlist.KNand, netlist.KNor, netlist.KXnor,
		netlist.KAdd, netlist.KSub, netlist.KMul, netlist.KShl, netlist.KShr,
	}
	reductions := []netlist.Kind{netlist.KRedAnd, netlist.KRedOr, netlist.KRedXor}
	for i := 0; i < 3+r.Intn(4); i++ {
		var y netlist.SignalID
		switch r.Intn(7) {
		case 0:
			y = nl.Unary(netlist.KNot, pick())
		case 1:
			y = nl.Mux(nl.Slice(pick(), 0, 0), pick(), pick())
		case 2:
			y = nl.Mux(nl.Slice(pick(), 1, 0), pick(), pick(), pick())
		case 3:
			y = nl.Slice(nl.Concat(pick(), pick()), w+1, 2)
		case 4:
			y = nl.Zext(nl.Unary(reductions[r.Intn(len(reductions))], pick()), w)
		case 5:
			c := bv.FromUint64(w, r.Uint64()).WithBit(r.Intn(w), bv.X)
			y = nl.Binary(kinds[r.Intn(len(kinds))], pick(), nl.Const(c))
		default:
			y = nl.Binary(kinds[r.Intn(len(kinds))], pick(), pick())
		}
		sigs = append(sigs, y)
	}
	nl.ConnectDff(q, sigs[len(sigs)-1])
	cmp := []netlist.Kind{netlist.KEq, netlist.KNe, netlist.KLt, netlist.KGe}
	mon := nl.Binary(cmp[r.Intn(len(cmp))], pick(), pick())
	return nl, mon
}

// TestTemplateMatchesDirectBlast cross-checks the relocated-template
// encoding against the direct per-frame Blaster: for random sequential
// netlists and every depth, asking "can the monitor be 0 at the last
// frame" must be satisfiable in one encoding iff it is in the other.
func TestTemplateMatchesDirectBlast(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		nl, mon := randomSeq(r)
		if err := nl.Validate(); err != nil {
			continue
		}
		tmpl, err := Compile(nl)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		const maxDepth = 4
		// Direct path: one incremental solver, frames blasted gate by
		// gate (the pre-template encoding).
		ds := sat.NewSolver()
		db := New(nl, ds)
		db.PinInit()
		// Template path: one incremental solver, frames relocated.
		ts := sat.NewSolver()
		in := tmpl.NewInstance(ts)
		for depth := 1; depth <= maxDepth; depth++ {
			if err := db.BlastFrame(depth - 1); err != nil {
				t.Fatal(err)
			}
			if depth > 1 {
				db.LinkFrames(depth - 2)
			}
			in.EnsureFrames(depth)
			dRes := ds.Solve(db.Lit(depth-1, mon, 0).Not())
			tRes := ts.Solve(in.Lit(depth-1, mon, 0).Not())
			if dRes != tRes {
				t.Fatalf("trial %d depth %d: direct %v, template %v", trial, depth, dRes, tRes)
			}
		}
	}
}

// TestTemplateInstancesIdentical pins instantiation determinism: two
// instances of one template produce identical var/clause counts, and
// the per-frame layout is uniform (frame f's variables occupy one
// contiguous block).
func TestTemplateInstancesIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	nl, mon := randomSeq(r)
	if err := nl.Validate(); err != nil {
		t.Skip("degenerate random netlist")
	}
	tmpl, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := sat.NewSolver(), sat.NewSolver()
	i1, i2 := tmpl.NewInstance(s1), tmpl.NewInstance(s2)
	i1.EnsureFrames(3)
	i2.EnsureFrames(3)
	if s1.NumVars() != s2.NumVars() || s1.NumClauses() != s2.NumClauses() {
		t.Fatalf("instances differ: %d/%d vars, %d/%d clauses",
			s1.NumVars(), s2.NumVars(), s1.NumClauses(), s2.NumClauses())
	}
	if s1.NumVars() != 3*tmpl.FrameVars {
		t.Fatalf("3 frames allocate %d vars, want 3×%d", s1.NumVars(), tmpl.FrameVars)
	}
	for f := 0; f < 3; f++ {
		l1 := i1.Lit(f, mon, 0)
		l2 := i2.Lit(f, mon, 0)
		if l1 != l2 {
			t.Fatalf("frame %d monitor literal differs: %v vs %v", f, l1, l2)
		}
		if v := l1.Var(); v <= f*tmpl.FrameVars || v > (f+1)*tmpl.FrameVars {
			t.Fatalf("frame %d literal var %d outside its block (%d, %d]",
				f, v, f*tmpl.FrameVars, (f+1)*tmpl.FrameVars)
		}
	}
}
