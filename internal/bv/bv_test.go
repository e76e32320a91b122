package bv

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	cases := []struct{ in, want string }{
		{"4'b10xx", "4'b10xx"},
		{"4'b0111", "4'b0111"},
		{"8'hff", "8'b11111111"},
		{"8'hx0", "8'bxxxx0000"},
		{"12'd100", "12'b000001100100"},
		{"10xx", "4'b10xx"},
		{"3'o7", "3'b111"},
		{"6'o70", "6'b111000"},
		{"4'b1_0_1_0", "4'b1010"},
	}
	for _, c := range cases {
		b, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := b.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"4'b21", "0'b1", "'b1", "4'q1", "2'b111", "4'd16", "4'hg"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestBitAccess(t *testing.T) {
	b := MustParse("4'b10xx")
	want := []Trit{X, X, Zero, One}
	for i, w := range want {
		if got := b.Bit(i); got != w {
			t.Errorf("bit %d = %v, want %v", i, got, w)
		}
	}
	b2 := b.WithBit(0, One)
	if b.Bit(0) != X {
		t.Error("WithBit mutated receiver")
	}
	if b2.Bit(0) != One {
		t.Error("WithBit did not set bit")
	}
}

func TestFromUint64Truncates(t *testing.T) {
	b := FromUint64(4, 0x1f)
	if v, _ := b.Uint64(); v != 0xf {
		t.Errorf("got %d, want 15", v)
	}
}

func TestMinMax(t *testing.T) {
	b := MustParse("4'bx01x")
	if lo := b.MinUint64(); lo != 2 {
		t.Errorf("min = %d, want 2", lo)
	}
	if hi := b.MaxUint64(); hi != 11 {
		t.Errorf("max = %d, want 11", hi)
	}
}

func TestIntersectUnionCovers(t *testing.T) {
	a := MustParse("4'b10xx")
	b := MustParse("4'b1x0x")
	c, ok := a.Intersect(b)
	if !ok || c.String() != "4'b100x" {
		t.Errorf("intersect = %v ok=%v, want 4'b100x", c, ok)
	}
	if _, ok := MustParse("4'b1000").Intersect(MustParse("4'b0000")); ok {
		t.Error("disjoint cubes intersected")
	}
	u := a.Union(b)
	if u.String() != "4'b1xxx" {
		t.Errorf("union = %v, want 4'b1xxx", u)
	}
	if !u.Covers(a) || !u.Covers(b) {
		t.Error("union does not cover operands")
	}
	if a.Covers(u) {
		t.Error("narrow cube covers wider one")
	}
}

func TestRefine(t *testing.T) {
	a := MustParse("4'b1xxx")
	r, changed, ok := a.Refine(MustParse("4'bx0xx"))
	if !ok || !changed || r.String() != "4'b10xx" {
		t.Errorf("refine = %v changed=%v ok=%v", r, changed, ok)
	}
	_, changed, ok = r.Refine(r)
	if !ok || changed {
		t.Error("self-refine should be a no-op")
	}
	if _, _, ok := r.Refine(MustParse("4'b0xxx")); ok {
		t.Error("conflicting refine succeeded")
	}
}

// enumerate returns all fully-known completions of cube b (width <= 16).
func enumerate(b BV) []uint64 {
	var out []uint64
	for v := uint64(0); v < 1<<uint(b.Width()); v++ {
		if b.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

// randCube returns a random cube of the given width.
func randCube(r *rand.Rand, width int) BV {
	b := NewX(width)
	for i := 0; i < width; i++ {
		b = b.WithBit(i, Trit(r.Intn(3)))
	}
	return b
}

func TestBitwiseOpsExhaustive(t *testing.T) {
	// For every pair of 4-bit cubes drawn randomly, the three-valued
	// result must be the tightest cube containing all concrete results.
	r := rand.New(rand.NewSource(1))
	ops := []struct {
		name string
		tri  func(a, b BV) BV
		conc func(a, b uint64) uint64
	}{
		{"and", BV.And, func(a, b uint64) uint64 { return a & b }},
		{"or", BV.Or, func(a, b uint64) uint64 { return a | b }},
		{"xor", BV.Xor, func(a, b uint64) uint64 { return a ^ b }},
		{"add", BV.Add, func(a, b uint64) uint64 { return (a + b) & 0xf }},
		{"sub", BV.Sub, func(a, b uint64) uint64 { return (a - b) & 0xf }},
		{"mul", BV.Mul, func(a, b uint64) uint64 { return (a * b) & 0xf }},
	}
	for _, op := range ops {
		exact := op.name != "mul" && op.name != "add" && op.name != "sub"
		for trial := 0; trial < 200; trial++ {
			a, b := randCube(r, 4), randCube(r, 4)
			got := op.tri(a, b)
			// Soundness: every concrete result is inside got.
			union := NewX(4)
			first := true
			for _, av := range enumerate(a) {
				for _, bvv := range enumerate(b) {
					cv := op.conc(av, bvv)
					if !got.Contains(cv) {
						t.Fatalf("%s(%v,%v)=%v does not contain %d (%d op %d)", op.name, a, b, got, cv, av, bvv)
					}
					u := FromUint64(4, cv)
					if first {
						union, first = u, false
					} else {
						union = union.Union(u)
					}
				}
			}
			// Tightness for the per-bit ops.
			if exact && !union.Equal(got) {
				t.Fatalf("%s(%v,%v)=%v, tightest cube is %v", op.name, a, b, got, union)
			}
		}
	}
}

func TestAddCarryFig3(t *testing.T) {
	// Fig. 3 of the paper: out = 4'b0111, one input 4'b1x1x. Subtracting
	// gives the other input 4'b1x0x and an implied carry-out of 1.
	out := MustParse("4'b0111")
	in := MustParse("4'b1x1x")
	other, borrow := out.SubBorrow(in)
	if other.String() != "4'b1x0x" {
		t.Errorf("implied other input = %v, want 4'b1x0x", other)
	}
	if borrow != One {
		t.Errorf("implied carry-out = %v, want 1", borrow)
	}
}

func TestSubBorrowSound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		a, b := randCube(r, 5), randCube(r, 5)
		diff, borrow := a.SubBorrow(b)
		for _, av := range enumerate(a) {
			for _, bvv := range enumerate(b) {
				d := (av - bvv) & 0x1f
				if !diff.Contains(d) {
					t.Fatalf("SubBorrow(%v,%v) diff %v misses %d", a, b, diff, d)
				}
				wraps := av < bvv
				if borrow == One && !wraps || borrow == Zero && wraps {
					t.Fatalf("SubBorrow(%v,%v) borrow %v wrong for %d-%d", a, b, borrow, av, bvv)
				}
			}
		}
	}
}

func TestBackwardBitwiseSound(t *testing.T) {
	// For AND: any (a,b) with a&b in out and b in other must have a in BackAnd.
	r := rand.New(rand.NewSource(3))
	type backOp struct {
		name string
		back func(out, other BV) BV
		conc func(a, b uint64) uint64
	}
	ops := []backOp{
		{"and", BackAnd, func(a, b uint64) uint64 { return a & b }},
		{"or", BackOr, func(a, b uint64) uint64 { return a | b }},
		{"xor", BackXor, func(a, b uint64) uint64 { return a ^ b }},
	}
	for _, op := range ops {
		for trial := 0; trial < 300; trial++ {
			out, other := randCube(r, 4), randCube(r, 4)
			imp := op.back(out, other)
			for a := uint64(0); a < 16; a++ {
				feasible := false
				for _, b := range enumerate(other) {
					if out.Contains(op.conc(a, b)) {
						feasible = true
						break
					}
				}
				if feasible && !imp.Contains(a) {
					t.Fatalf("Back%s(%v,%v)=%v wrongly excludes a=%d", op.name, out, other, imp, a)
				}
			}
		}
	}
}

func TestBackRed(t *testing.T) {
	in := MustParse("4'b11x1")
	got := BackRedAnd(NewX(1).WithBit(0, Zero), in)
	if got.String() != "4'b1101" {
		t.Errorf("BackRedAnd zero: %v, want 4'b1101", got)
	}
	got = BackRedAnd(NewX(1).WithBit(0, One), MustParse("4'bxxxx"))
	if got.String() != "4'b1111" {
		t.Errorf("BackRedAnd one: %v", got)
	}
	got = BackRedOr(NewX(1).WithBit(0, Zero), MustParse("4'bxxxx"))
	if got.String() != "4'b0000" {
		t.Errorf("BackRedOr zero: %v", got)
	}
	got = BackRedOr(NewX(1).WithBit(0, One), MustParse("4'b00x0"))
	if got.String() != "4'b0010" {
		t.Errorf("BackRedOr one: %v, want 4'b0010", got)
	}
}

func TestTightenToRangeFig4(t *testing.T) {
	// Fig. 4: in_a = 4'bx01x tightened to [9,11] gives 4'b101x;
	// in_b = 4'b1x0x tightened to [8,10] gives 4'b100x.
	a, ok := MustParse("4'bx01x").TightenToRange(FromUint64(4, 9), FromUint64(4, 11))
	if !ok || a.String() != "4'b101x" {
		t.Errorf("in_a tighten = %v ok=%v, want 4'b101x", a, ok)
	}
	b, ok := MustParse("4'b1x0x").TightenToRange(FromUint64(4, 8), FromUint64(4, 10))
	if !ok || b.String() != "4'b100x" {
		t.Errorf("in_b tighten = %v ok=%v, want 4'b100x", b, ok)
	}
}

func TestTightenToRangeSound(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		c := randCube(r, 5)
		lo := uint64(r.Intn(32))
		hi := lo + uint64(r.Intn(int(32-lo)))
		got, ok := c.TightenToRange(FromUint64(5, lo), FromUint64(5, hi))
		anyIn := false
		for _, v := range enumerate(c) {
			in := v >= lo && v <= hi
			if in {
				anyIn = true
				if !ok {
					t.Fatalf("tighten(%v,[%d,%d]) reported infeasible but %d fits", c, lo, hi, v)
				}
				if !got.Contains(v) {
					t.Fatalf("tighten(%v,[%d,%d])=%v excludes in-range %d", c, lo, hi, got, v)
				}
			}
		}
		if !anyIn && ok {
			t.Fatalf("tighten(%v,[%d,%d]) succeeded with empty intersection", c, lo, hi)
		}
	}
}

func TestReductions(t *testing.T) {
	cases := []struct {
		in                  string
		redand, redor, redx Trit
	}{
		{"4'b1111", One, One, Zero},
		{"4'b0000", Zero, Zero, Zero},
		{"4'b1x11", X, One, X},
		{"4'b0x00", Zero, X, X},
		{"4'b1010", Zero, One, Zero},
		{"4'b1011", Zero, One, One},
	}
	for _, c := range cases {
		b := MustParse(c.in)
		if got := b.RedAnd().Bit(0); got != c.redand {
			t.Errorf("RedAnd(%s) = %v, want %v", c.in, got, c.redand)
		}
		if got := b.RedOr().Bit(0); got != c.redor {
			t.Errorf("RedOr(%s) = %v, want %v", c.in, got, c.redor)
		}
		if got := b.RedXor().Bit(0); got != c.redx {
			t.Errorf("RedXor(%s) = %v, want %v", c.in, got, c.redx)
		}
	}
}

func TestConcatSliceZext(t *testing.T) {
	hi, lo := MustParse("2'b1x"), MustParse("3'b0x1")
	c := Concat(hi, lo)
	if c.String() != "5'b1x0x1" {
		t.Errorf("concat = %v", c)
	}
	if s := c.Slice(4, 3); s.String() != "2'b1x" {
		t.Errorf("slice = %v", s)
	}
	if z := lo.Zext(5); z.String() != "5'b000x1" {
		t.Errorf("zext = %v", z)
	}
	if z := c.Zext(2); z.String() != "2'bx1" {
		t.Errorf("truncate = %v", z)
	}
}

func TestWideVectors(t *testing.T) {
	w := 152
	b := NewX(w)
	if !b.IsAllX() {
		t.Error("NewX not all-x")
	}
	b = b.WithBit(151, One).WithBit(0, Zero)
	if b.Bit(151) != One || b.Bit(0) != Zero || b.Bit(75) != X {
		t.Error("wide bit access broken")
	}
	o := Ones(w)
	if !o.IsFullyKnown() {
		t.Error("Ones not fully known")
	}
	and := b.And(o)
	if and.Bit(151) != One || and.Bit(0) != Zero || and.Bit(75) != X {
		t.Error("wide And broken")
	}
	if o.Cmp(o.Clone()) != 0 {
		t.Error("wide Cmp broken")
	}
	if !o.Max().Equal(o) || !NewX(w).Min().Equal(FromUint64(0, 0).Zext(w)) {
		t.Error("wide Min/Max broken")
	}
}

func TestShifts(t *testing.T) {
	b := MustParse("4'b01x1")
	if got := b.Shl(FromUint64(2, 1)); got.String() != "4'b1x10" {
		t.Errorf("shl = %v", got)
	}
	if got := b.Shr(FromUint64(2, 2)); got.String() != "4'b0001" {
		t.Errorf("shr = %v", got)
	}
	// Unknown shift amount: union over amounts.
	got := MustParse("4'b0001").Shl(MustParse("2'b0x"))
	if !got.Contains(1) || !got.Contains(2) {
		t.Errorf("dynamic shl %v should contain 1 and 2", got)
	}
	if got.Contains(4) {
		t.Errorf("dynamic shl %v should not contain 4", got)
	}
	// Amounts at or past the width shift every bit out, whether or not
	// the width itself is in the cube.
	ff := MustParse("8'b11111111")
	for amt, want := range map[string]string{
		"8'b1xxxxxxx": "8'b00000000", // every amount past the width
		"8'b0000x1xx": "8'bxxxx0000", // 4..7 and 12..15, not 8
		"8'b0000x0xx": "8'bxxxxxxxx", // 0..3, 8..11
	} {
		if got := ff.Shl(MustParse(amt)); got.String() != want {
			t.Errorf("8'hff << %s = %v, want %s", amt, got, want)
		}
	}
}

// TestWideShiftAmounts: an amount bit of weight 2^64 or more shifts
// every bit out when it is 1, leaves the low 64 bits to decide when
// all such bits are 0, and adds zero to the low-bit result when one
// is x.
func TestWideShiftAmounts(t *testing.T) {
	a := MustParse("8'b00000011")
	amt := func(high string, low BV) BV { return Concat(MustParse(high), low) }
	lo := func(v uint64) BV { return FromUint64(64, v) }
	for _, tc := range []struct {
		name     string
		amt      BV
		shl, shr string
	}{
		{"65-bit, high 0", amt("1'b0", lo(1)), "8'b00000110", "8'b00000001"},
		{"65-bit, high 1", amt("1'b1", lo(1)), "8'b00000000", "8'b00000000"},
		{"65-bit, high x", amt("1'bx", lo(1)), "8'b00000xx0", "8'b0000000x"},
		{"65-bit, high 0, low past the width", amt("1'b0", lo(1<<63)), "8'b00000000", "8'b00000000"},
		{"70-bit, high 0", amt("6'b000000", lo(2)), "8'b00001100", "8'b00000000"},
		{"70-bit, high 0, low x", amt("6'b000000", Concat(lo(0).Slice(61, 0), MustParse("2'bx1"))), "8'b000xxxx0", "8'b0000000x"},
		{"70-bit, one high bit x", amt("6'b00x000", lo(1)), "8'b00000xx0", "8'b0000000x"},
		{"70-bit, top bit 1, rest x", amt("6'b1xxxxx", NewX(64)), "8'b00000000", "8'b00000000"},
	} {
		if got := a.Shl(tc.amt); got.String() != tc.shl {
			t.Errorf("%s: shl = %v, want %s", tc.name, got, tc.shl)
		}
		if got := a.Shr(tc.amt); got.String() != tc.shr {
			t.Errorf("%s: shr = %v, want %s", tc.name, got, tc.shr)
		}
	}
	// Wide data: the rule does not depend on the data width.
	w := Ones(96)
	if got := w.Shl(amt("6'b000001", lo(4))); !got.Equal(FromUint64(96, 0)) {
		t.Errorf("96-bit shl by 2^64+4 = %v, want zero", got)
	}
	if got, want := w.Shr(amt("6'b000000", lo(4))), w.Shr(FromUint64(8, 4)); !got.Equal(want) {
		t.Errorf("96-bit shr by a 70-bit 4 = %v, want %v", got, want)
	}
}

func TestQuickIntersectSound(t *testing.T) {
	// Property: v in a∩b  <=>  v in a and v in b.
	f := func(av, kv, bvv, kb uint16, v uint16) bool {
		a := cubeFromMasks(12, uint64(av), uint64(kv))
		b := cubeFromMasks(12, uint64(bvv), uint64(kb))
		val := uint64(v) & 0xfff
		c, ok := a.Intersect(b)
		inBoth := a.Contains(val) && b.Contains(val)
		if !ok {
			return !inBoth
		}
		return c.Contains(val) == inBoth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionCovers(t *testing.T) {
	f := func(av, kv, bvv, kb uint16) bool {
		a := cubeFromMasks(10, uint64(av), uint64(kv))
		b := cubeFromMasks(10, uint64(bvv), uint64(kb))
		u := a.Union(b)
		return u.Covers(a) && u.Covers(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func cubeFromMasks(width int, val, known uint64) BV {
	b := NewX(width)
	for i := 0; i < width; i++ {
		if known>>uint(i)&1 == 1 {
			b = b.WithBit(i, Trit(val>>uint(i)&1))
		}
	}
	return b
}

func TestCountSolutions(t *testing.T) {
	if n := MustParse("4'b10xx").CountSolutions(); n != 4 {
		t.Errorf("count = %d, want 4", n)
	}
	if n := MustParse("4'b1011").CountSolutions(); n != 1 {
		t.Errorf("count = %d, want 1", n)
	}
}

func TestLtEqThree(t *testing.T) {
	if LtThree(MustParse("4'b001x"), MustParse("4'b1x0x")) != One {
		t.Error("3 < 8 should be One")
	}
	if LtThree(MustParse("4'b1x0x"), MustParse("4'b001x")) != Zero {
		t.Error("8..13 < 2..3 should be Zero")
	}
	if LtThree(MustParse("4'bx01x"), MustParse("4'b1x0x")) != X {
		t.Error("overlapping ranges should be X")
	}
	if EqThree(MustParse("4'b1010"), MustParse("4'b1010")) != One {
		t.Error("equal known should be One")
	}
	if EqThree(MustParse("4'b101x"), MustParse("4'b0101")) != Zero {
		t.Error("disjoint should be Zero")
	}
	if EqThree(MustParse("4'b101x"), MustParse("4'b1010")) != X {
		t.Error("overlap should be X")
	}
}
