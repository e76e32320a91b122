package atpg

import (
	"math/rand"
	"testing"

	"repro/internal/bv"
	"repro/internal/netlist"
)

func newEngine(t *testing.T, nl *netlist.Netlist, frames int, mode Mode) *Engine {
	t.Helper()
	e, err := New(nl, frames, mode, Limits{}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFig3AdderImplication(t *testing.T) {
	// Paper Fig. 3: 4-bit adder with output 4'b0111 and one input
	// 4'b1x1x implies the other input is (at least) 4'b1x0x.
	nl := netlist.New("fig3")
	a := nl.AddInput("a", 4)
	b := nl.AddInput("b", 4)
	sum := nl.Binary(netlist.KAdd, a, b)
	e := newEngine(t, nl, 1, ModeProve)
	if !e.Require(0, a, bv.MustParse("4'b1x1x")) {
		t.Fatal("require a")
	}
	if !e.Require(0, sum, bv.MustParse("4'b0111")) {
		t.Fatal("require sum")
	}
	if !e.propagate() {
		t.Fatal("conflict")
	}
	got := e.Value(0, b)
	if got.String() != "4'b1x0x" {
		t.Errorf("implied b = %v, want 4'b1x0x", got)
	}
}

func TestFig4ComparatorImplication(t *testing.T) {
	// Paper Fig. 4: (a > b) = 1 with a = 4'bx01x, b = 4'b1x0x implies
	// a = 4'b101x and b = 4'b100x.
	nl := netlist.New("fig4")
	a := nl.AddInput("in_a", 4)
	b := nl.AddInput("in_b", 4)
	gt := nl.Binary(netlist.KGt, a, b)
	e := newEngine(t, nl, 1, ModeProve)
	e.Require(0, a, bv.MustParse("4'bx01x"))
	e.Require(0, b, bv.MustParse("4'b1x0x"))
	e.Require(0, gt, bv.FromUint64(1, 1))
	if !e.propagate() {
		t.Fatal("conflict")
	}
	if got := e.Value(0, a); got.String() != "4'b101x" {
		t.Errorf("in_a = %v, want 4'b101x", got)
	}
	if got := e.Value(0, b); got.String() != "4'b100x" {
		t.Errorf("in_b = %v, want 4'b100x", got)
	}
}

func TestBooleanImplicationExample(t *testing.T) {
	// §3.1 Boolean example: 4-bit AND with a=4'b10xx, y=4'bx00x; new
	// implication b=4'b1x1x gives y=4'b100x and back-implies a=4'b100x.
	nl := netlist.New("bool")
	a := nl.AddInput("a", 4)
	b := nl.AddInput("b", 4)
	y := nl.Binary(netlist.KAnd, a, b)
	e := newEngine(t, nl, 1, ModeProve)
	e.Require(0, a, bv.MustParse("4'b10xx"))
	e.Require(0, y, bv.MustParse("4'bx00x"))
	e.Require(0, b, bv.MustParse("4'b1x1x"))
	if !e.propagate() {
		t.Fatal("conflict")
	}
	if got := e.Value(0, y); got.String() != "4'b100x" {
		t.Errorf("y = %v, want 4'b100x", got)
	}
	if got := e.Value(0, a); got.String() != "4'b100x" {
		t.Errorf("a = %v, want 4'b100x", got)
	}
}

func TestMuxImplication(t *testing.T) {
	// §3.1 Multiplexors: an input with empty intersection with the
	// output implies the select cannot choose it.
	nl := netlist.New("mux")
	sel := nl.AddInput("sel", 1)
	d0 := nl.AddInput("d0", 4)
	d1 := nl.AddInput("d1", 4)
	out := nl.Mux(sel, d0, d1)
	e := newEngine(t, nl, 1, ModeProve)
	e.Require(0, d0, bv.MustParse("4'b0000"))
	e.Require(0, d1, bv.MustParse("4'b1111"))
	e.Require(0, out, bv.MustParse("4'b1xxx"))
	if !e.propagate() {
		t.Fatal("conflict")
	}
	if got := e.Value(0, sel); got.String() != "1'b1" {
		t.Errorf("sel = %v, want 1 (d0 ruled out)", got)
	}
	if got := e.Value(0, out); got.String() != "4'b1111" {
		t.Errorf("out = %v, want merged 4'b1111", got)
	}
}

func TestMultiplierWrapAroundImplication(t *testing.T) {
	// §4 example: c = 12 (4 bits), a = 4 implies b in {3, 7} — the cube
	// union is 4'b0x11.
	nl := netlist.New("mul")
	a := nl.AddInput("a", 4)
	b := nl.AddInput("b", 4)
	c := nl.Binary(netlist.KMul, a, b)
	e := newEngine(t, nl, 1, ModeProve)
	e.Require(0, a, bv.FromUint64(4, 4))
	e.Require(0, c, bv.FromUint64(4, 12))
	if !e.propagate() {
		t.Fatal("conflict")
	}
	got := e.Value(0, b)
	if !got.Contains(3) || !got.Contains(7) {
		t.Errorf("b = %v should keep both 3 and 7", got)
	}
	if got.Contains(0) || got.Contains(2) {
		t.Errorf("b = %v should exclude impossible values", got)
	}
}

func TestSimpleJustificationSat(t *testing.T) {
	// y = a & b, require y = 1: search must find a = b = 1.
	nl := netlist.New("sat")
	a := nl.AddInput("a", 1)
	b := nl.AddInput("b", 1)
	y := nl.Binary(netlist.KAnd, a, b)
	e := newEngine(t, nl, 1, ModeWitness)
	e.Require(0, y, bv.FromUint64(1, 1))
	if st := e.Solve(); st != StatusSat {
		t.Fatalf("status = %v, want sat", st)
	}
	av, _ := e.Value(0, a).Uint64()
	bvv, _ := e.Value(0, b).Uint64()
	if av != 1 || bvv != 1 {
		t.Errorf("a=%d b=%d, want 1 1", av, bvv)
	}
}

func TestUnsatConflict(t *testing.T) {
	// y = a & ~a must be 0; requiring 1 is unsatisfiable.
	nl := netlist.New("unsat")
	a := nl.AddInput("a", 1)
	na := nl.Unary(netlist.KNot, a)
	y := nl.Binary(netlist.KAnd, a, na)
	e := newEngine(t, nl, 1, ModeProve)
	e.Require(0, y, bv.FromUint64(1, 1))
	if st := e.Solve(); st != StatusUnsat {
		t.Fatalf("status = %v, want unsat", st)
	}
}

func TestJustificationWithDecisions(t *testing.T) {
	// One-hot violation search over a 2-bit decoder: impossible —
	// y0 = ~s, y1 = s; y0&y1 must be 0.
	nl := netlist.New("onehot")
	s := nl.AddInput("s", 1)
	y0 := nl.Unary(netlist.KNot, s)
	y1 := nl.NamedBuf("y1", s)
	both := nl.Binary(netlist.KAnd, y0, y1)
	e := newEngine(t, nl, 1, ModeProve)
	e.Require(0, both, bv.FromUint64(1, 1))
	if st := e.Solve(); st != StatusUnsat {
		t.Fatalf("status = %v, want unsat", st)
	}
}

func TestSequentialUnrolling(t *testing.T) {
	// 2-bit counter starting at 0: q can be 2 at frame 2 (after two
	// increments) but never 3.
	nl := netlist.New("cnt")
	q := nl.DffPlaceholder(2, bv.FromUint64(2, 0), "q")
	one := nl.ConstUint(2, 1)
	nl.ConnectDff(q, nl.Binary(netlist.KAdd, q, one))
	e := newEngine(t, nl, 3, ModeWitness)
	if !e.Require(2, q, bv.FromUint64(2, 2)) {
		t.Fatal("require failed")
	}
	if st := e.Solve(); st != StatusSat {
		t.Fatalf("q=2 at frame 2: %v, want sat", st)
	}
	e2 := newEngine(t, nl, 3, ModeProve)
	if e2.Require(2, q, bv.FromUint64(2, 3)) {
		if st := e2.Solve(); st != StatusUnsat {
			t.Fatalf("q=3 at frame 2: %v, want unsat", st)
		}
	}
}

func TestDatapathLinearSolve(t *testing.T) {
	// a + b = 6 and a - b = 2 (4-bit): search must find a=4, b=2.
	nl := netlist.New("lin")
	a := nl.AddInput("a", 4)
	b := nl.AddInput("b", 4)
	sum := nl.Binary(netlist.KAdd, a, b)
	diff := nl.Binary(netlist.KSub, a, b)
	e := newEngine(t, nl, 1, ModeWitness)
	e.Require(0, sum, bv.FromUint64(4, 6))
	e.Require(0, diff, bv.FromUint64(4, 2))
	if st := e.Solve(); st != StatusSat {
		t.Fatalf("status = %v, want sat", st)
	}
	av, _ := e.Value(0, a).Uint64()
	bvv, _ := e.Value(0, b).Uint64()
	if (av+bvv)&0xf != 6 || (av-bvv)&0xf != 2 {
		t.Errorf("a=%d b=%d does not satisfy system", av, bvv)
	}
}

func TestDatapathInfeasible(t *testing.T) {
	// 2a = 1 mod 16 is infeasible (even times anything is even).
	nl := netlist.New("infeas")
	a := nl.AddInput("a", 4)
	two := nl.ConstUint(4, 2)
	prod := nl.Binary(netlist.KMul, two, a)
	e := newEngine(t, nl, 1, ModeProve)
	e.Require(0, prod, bv.FromUint64(4, 1))
	if st := e.Solve(); st != StatusUnsat {
		t.Fatalf("status = %v, want unsat", st)
	}
}

func TestControlDatapathMix(t *testing.T) {
	// sel ? (a+b) : (a-b) must equal 9 with a = 5: both branches are
	// satisfiable; the engine should find some assignment.
	nl := netlist.New("mix")
	sel := nl.AddInput("sel", 1)
	a := nl.AddInput("a", 4)
	b := nl.AddInput("b", 4)
	sum := nl.Binary(netlist.KAdd, a, b)
	diff := nl.Binary(netlist.KSub, a, b)
	out := nl.Mux(sel, diff, sum)
	e := newEngine(t, nl, 1, ModeWitness)
	e.Require(0, a, bv.FromUint64(4, 5))
	e.Require(0, out, bv.FromUint64(4, 9))
	if st := e.Solve(); st != StatusSat {
		t.Fatalf("status = %v, want sat", st)
	}
	selV, _ := e.Value(0, sel).Uint64()
	bvv, _ := e.Value(0, b).Uint64()
	var got uint64
	if selV == 1 {
		got = (5 + bvv) & 0xf
	} else {
		got = (5 - bvv) & 0xf
	}
	if got != 9 {
		t.Errorf("sel=%d b=%d gives %d, want 9", selV, bvv, got)
	}
}

func TestTrailRestoresPartialValues(t *testing.T) {
	// §3.1: backtracking must restore previously partially-implied
	// values, not reset to all-x.
	nl := netlist.New("trail")
	a := nl.AddInput("a", 4)
	e := newEngine(t, nl, 1, ModeProve)
	e.Require(0, a, bv.MustParse("4'b1xxx"))
	e.propagate()
	e.pushLevel()
	if !e.assign(0, a, bv.MustParse("4'b10xx")) {
		t.Fatal("assign failed")
	}
	e.popLevel()
	if got := e.Value(0, a); got.String() != "4'b1xxx" {
		t.Errorf("after backtrack a = %v, want partially-implied 4'b1xxx", got)
	}
}

func TestLegalProbabilityRules(t *testing.T) {
	// Definition 1 example: 2-input AND with output 0 gives legal-1
	// probability 1/3 per input.
	if q := andZeroQ(2); q < 0.333 || q > 0.334 {
		t.Errorf("andZeroQ(2) = %v, want 1/3", q)
	}
	if q := orOneQ(2); q < 0.666 || q > 0.667 {
		t.Errorf("orOneQ(2) = %v, want 2/3", q)
	}
	// AND with output 1: probability 1 (handled by the p1 term).
	c := candidate{p1: 1.0}
	if c.biasValue() != bv.One {
		t.Error("bias value for p1=1 should be One")
	}
	c2 := candidate{p1: 0.2}
	if c2.biasValue() != bv.Zero {
		t.Error("bias value for p1=0.2 should be Zero")
	}
	if c2.bias() < 3.9 || c2.bias() > 4.1 {
		t.Errorf("bias(0.2) = %v, want 4", c2.bias())
	}
}

func TestToggleRegisterUnsat(t *testing.T) {
	nl := netlist.New("toggle")
	q := nl.DffPlaceholder(1, bv.FromUint64(1, 0), "q")
	nl.ConnectDff(q, nl.Unary(netlist.KNot, q))
	e := newEngine(t, nl, 3, ModeProve)
	// q alternates 0,1,0: requiring q=1 at frame 2 conflicts through
	// the initial-value implication chain, without a decision.
	if e.Require(2, q, bv.FromUint64(1, 1)) && e.Solve() != StatusUnsat {
		t.Error("q = 1 at frame 2 should be unsatisfiable")
	}
}

func TestShiftImplication(t *testing.T) {
	nl := netlist.New("shift")
	a := nl.AddInput("a", 4)
	n := nl.AddInput("n", 2)
	y := nl.Binary(netlist.KShl, a, n)
	e := newEngine(t, nl, 1, ModeProve)
	e.Require(0, n, bv.FromUint64(2, 2))
	e.Require(0, y, bv.MustParse("4'b01xx"))
	if !e.propagate() {
		t.Fatal("conflict")
	}
	// y = a << 2: y[3:2] = a[1:0], so a = xx01 with low bits free.
	if got := e.Value(0, a); got.Bit(0) != bv.One || got.Bit(1) != bv.Zero {
		t.Errorf("a = %v, want low bits 01", got)
	}
	// Requiring a known 1 in shifted-out positions conflicts.
	e2 := newEngine(t, nl, 1, ModeProve)
	e2.Require(0, n, bv.FromUint64(2, 2))
	if e2.Require(0, y, bv.MustParse("4'bxx1x")) && e2.propagate() {
		t.Error("shl with low output bit 1 should conflict")
	}
}

func TestConcatSliceImplication(t *testing.T) {
	nl := netlist.New("cs")
	a := nl.AddInput("a", 2)
	b := nl.AddInput("b", 2)
	cc := nl.Concat(a, b)
	sl := nl.Slice(cc, 2, 1)
	e := newEngine(t, nl, 1, ModeProve)
	e.Require(0, sl, bv.MustParse("2'b10"))
	if !e.propagate() {
		t.Fatal("conflict")
	}
	// cc = {a,b}: slice [2:1] = {a[0], b[1]} = 10 -> a[0]=1, b[1]=0.
	if got := e.Value(0, a); got.Bit(0) != bv.One {
		t.Errorf("a = %v, want a[0]=1", got)
	}
	if got := e.Value(0, b); got.Bit(1) != bv.Zero {
		t.Errorf("b = %v, want b[1]=0", got)
	}
}

func TestEqNeImplication(t *testing.T) {
	nl := netlist.New("eqne")
	a := nl.AddInput("a", 3)
	b := nl.AddInput("b", 3)
	eq := nl.Binary(netlist.KEq, a, b)
	e := newEngine(t, nl, 1, ModeProve)
	e.Require(0, a, bv.MustParse("3'b10x"))
	e.Require(0, eq, bv.FromUint64(1, 1))
	if !e.propagate() {
		t.Fatal("conflict")
	}
	if got := e.Value(0, b); got.String() != "3'b10x" {
		t.Errorf("b = %v, want merged 3'b10x", got)
	}
	// NE with single unknown bit: a=101 fixed, b=10x, b != a -> b=100.
	nl2 := netlist.New("ne")
	a2 := nl2.AddInput("a", 3)
	b2 := nl2.AddInput("b", 3)
	ne := nl2.Binary(netlist.KNe, a2, b2)
	e2 := newEngine(t, nl2, 1, ModeProve)
	e2.Require(0, a2, bv.FromUint64(3, 5))
	e2.Require(0, b2, bv.MustParse("3'b10x"))
	e2.Require(0, ne, bv.FromUint64(1, 1))
	if !e2.propagate() {
		t.Fatal("conflict")
	}
	if got := e2.Value(0, b2); got.String() != "3'b100" {
		t.Errorf("b = %v, want 3'b100", got)
	}
}

// forcedDiffRef is the bit loop forcedDiff replaced, kept as its
// oracle: scan part bit by bit against the fully-known known.
func forcedDiffRef(known, part bv.BV) (want bv.BV, force, conflict bool) {
	idx := -1
	for i := 0; i < part.Width(); i++ {
		switch part.Bit(i) {
		case bv.X:
			if idx >= 0 {
				return bv.BV{}, false, false // more than one unknown: no implication
			}
			idx = i
		default:
			if part.Bit(i) != known.Bit(i) {
				return bv.BV{}, false, false // already differ: satisfied
			}
		}
	}
	if idx < 0 {
		return bv.BV{}, false, true // fully equal: conflict with ≠
	}
	t := bv.One
	if known.Bit(idx) == bv.One {
		t = bv.Zero
	}
	return part.WithBit(idx, t), true, false
}

// TestForcedDiffMatchesBitLoop checks the word-level ≠ kernel against
// the bit loop on cubes that agree with a known vector except for a few
// unknown bits and, sometimes, one flipped bit, at widths around both
// word boundaries of bv's inline storage.
func TestForcedDiffMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, w := range []int{1, 2, 7, 63, 64, 65, 96, 127, 128, 129, 200} {
		for trial := 0; trial < 300; trial++ {
			known := bv.FromUint64(64, rng.Uint64()).Zext(w)
			for i := 64; i < w; i++ {
				known = known.WithBit(i, bv.Trit(rng.Intn(2)))
			}
			part := known
			for n := rng.Intn(4); n > 0; n-- {
				part = part.WithBit(rng.Intn(w), bv.X)
			}
			if rng.Intn(4) == 0 {
				i := rng.Intn(w)
				if b := part.Bit(i); b != bv.X {
					part = part.WithBit(i, 1-b)
				}
			}
			want, force, conflict := forcedDiff(known, part)
			rwant, rforce, rconflict := forcedDiffRef(known, part)
			if force != rforce || conflict != rconflict || (force && !want.Equal(rwant)) {
				t.Fatalf("forcedDiff(%v, %v) = (%v, %v, %v), bit loop (%v, %v, %v)",
					known, part, want, force, conflict, rwant, rforce, rconflict)
			}
		}
	}
}

func TestWitnessVsProveMode(t *testing.T) {
	// Both modes must agree on satisfiability; they only order the
	// search differently (§3.2).
	build := func() (*netlist.Netlist, netlist.SignalID) {
		nl := netlist.New("mode")
		a := nl.AddInput("a", 1)
		b := nl.AddInput("b", 1)
		c := nl.AddInput("c", 1)
		ab := nl.Binary(netlist.KOr, a, b)
		y := nl.Binary(netlist.KAnd, ab, c)
		return nl, y
	}
	for _, mode := range []Mode{ModeProve, ModeWitness} {
		nl, y := build()
		e := newEngine(t, nl, 1, mode)
		e.Require(0, y, bv.FromUint64(1, 1))
		if st := e.Solve(); st != StatusSat {
			t.Errorf("mode %d: status %v, want sat", mode, st)
		}
	}
}
