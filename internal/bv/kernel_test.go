package bv

import (
	"math/rand"
	"testing"
)

// Differential tests of the word-parallel kernels. Each reference below
// computes its op one trit at a time; the kernel must return the same
// cube, trit for trit, on every input.

// tritAnd/tritOr/tritXor/tritNot/tritMaj implement Kleene logic on
// single trits.

func tritAnd(a, b Trit) Trit {
	if a == Zero || b == Zero {
		return Zero
	}
	if a == One && b == One {
		return One
	}
	return X
}

func tritOr(a, b Trit) Trit {
	if a == One || b == One {
		return One
	}
	if a == Zero && b == Zero {
		return Zero
	}
	return X
}

func tritXor(a, b Trit) Trit {
	if a == X || b == X {
		return X
	}
	if a != b {
		return One
	}
	return Zero
}

func tritNot(a Trit) Trit {
	switch a {
	case Zero:
		return One
	case One:
		return Zero
	}
	return X
}

func tritMaj(a, b, c Trit) Trit {
	return tritOr(tritOr(tritAnd(a, b), tritAnd(a, c)), tritAnd(b, c))
}

// addCarryRef is the per-trit ripple-carry adder.
func addCarryRef(a, b BV, cin Trit) (BV, Trit) {
	sum := NewX(a.width)
	c := cin
	for i := 0; i < a.width; i++ {
		ai, bi := a.getTrit(i), b.getTrit(i)
		sum.setBit(i, tritXor(tritXor(ai, bi), c))
		c = tritMaj(ai, bi, c)
	}
	return sum, c
}

// subBorrowRef is the per-trit ripple-borrow subtractor:
// borrow-out = (¬a ∧ b) ∨ (br ∧ ¬(a ⊕ b)), each connective Kleene.
func subBorrowRef(a, b BV) (BV, Trit) {
	diff := NewX(a.width)
	br := Zero
	for i := 0; i < a.width; i++ {
		ai, bi := a.getTrit(i), b.getTrit(i)
		diff.setBit(i, tritXor(tritXor(ai, bi), br))
		br = tritOr(tritAnd(tritNot(ai), bi), tritAnd(br, tritNot(tritXor(ai, bi))))
	}
	return diff, br
}

// depositRef places src bits [srcLo, srcLo+n) at bit at of an all-x
// vector of the given width, one trit at a time.
func depositRef(width, at int, src BV, srcLo, n int) BV {
	r := NewX(width)
	for k := 0; k < n; k++ {
		r.setBit(at+k, src.getTrit(srcLo+k))
	}
	return r
}

func sliceRef(b BV, hi, lo int) BV { return depositRef(hi-lo+1, 0, b, lo, hi-lo+1) }

func concatRef(hi, lo BV) BV {
	r := depositRef(hi.width+lo.width, 0, lo, 0, lo.width)
	for k := 0; k < hi.width; k++ {
		r.setBit(lo.width+k, hi.getTrit(k))
	}
	return r
}

func zextRef(b BV, width int) BV {
	n := min(b.width, width)
	r := depositRef(width, 0, b, 0, n)
	for i := n; i < width; i++ {
		r.setBit(i, Zero)
	}
	return r
}

func shlRef(b BV, n int) BV {
	r := NewX(b.width)
	for i := 0; i < b.width; i++ {
		if i < n {
			r.setBit(i, Zero)
		} else {
			r.setBit(i, b.getTrit(i-n))
		}
	}
	return r
}

func shrRef(b BV, n int) BV {
	r := NewX(b.width)
	for i := 0; i < b.width; i++ {
		if i+n >= b.width {
			r.setBit(i, Zero)
		} else {
			r.setBit(i, b.getTrit(i+n))
		}
	}
	return r
}

// shiftRef is the union of ref(b, v) over every amount v in the cube
// amt, an amount at or past the width giving zero.
func shiftRef(b, amt BV, ref func(BV, int) BV) BV {
	var acc BV
	first := true
	for v := 0; v < 1<<amt.width; v++ {
		if !amt.Contains(uint64(v)) {
			continue
		}
		r := FromUint64(b.width, 0)
		if v < b.width {
			r = ref(b, v)
		}
		if first {
			acc, first = r, false
		} else {
			acc = acc.Union(r)
		}
	}
	return acc
}

func hasOneInRef(b BV, lo, n int) bool {
	for i := lo; i < lo+n; i++ {
		if b.getTrit(i) == One {
			return true
		}
	}
	return false
}

// reduceRef folds op over the trits of b starting from init.
func reduceRef(b BV, init Trit, op func(a, b Trit) Trit) BV {
	out := init
	for i := 0; i < b.width; i++ {
		out = op(out, b.getTrit(i))
	}
	r := NewX(1)
	r.setBit(0, out)
	return r
}

// backRedAndRef: output 0 with every bit but one known 1 forces that
// bit to 0.
func backRedAndRef(out, in BV) BV {
	if out.getTrit(0) == One {
		return Ones(in.width)
	}
	return forceSoleXRef(out.getTrit(0) == Zero, in, Zero)
}

// backRedOrRef: output 1 with every bit but one known 0 forces that
// bit to 1.
func backRedOrRef(out, in BV) BV {
	if out.getTrit(0) == Zero {
		return FromUint64(in.width, 0)
	}
	return forceSoleXRef(out.getTrit(0) == One, in, One)
}

// forceSoleXRef scans in bit by bit: when active, no bit is known t
// and exactly one bit is x, that bit is set to t.
func forceSoleXRef(active bool, in BV, t Trit) BV {
	if !active {
		return in
	}
	idx := -1
	for i := 0; i < in.width; i++ {
		switch in.getTrit(i) {
		case t:
			return in
		case X:
			if idx >= 0 {
				return in
			}
			idx = i
		}
	}
	if idx >= 0 {
		return in.WithBit(idx, t)
	}
	return in
}

// knownBeyondRef reports whether some bit is known in b and x in o:
// the per-trit form of the mask test DeltaKnown(o, b) != 0 by which the
// engine finds an unjustified gate.
func knownBeyondRef(b, o BV) bool {
	for i := 0; i < b.width; i++ {
		if b.getTrit(i) != X && o.getTrit(i) == X {
			return true
		}
	}
	return false
}

func cubeFromTrits(w int, idx int) BV {
	b := NewX(w)
	for i := 0; i < w; i++ {
		b.setBit(i, Trit(idx%3))
		idx /= 3
	}
	return b
}

// checkArith checks the width-preserving kernels on a and b (equal
// widths) against their references.
func checkArith(t testing.TB, a, b BV) {
	t.Helper()
	same := func(op string, got, want BV) {
		t.Helper()
		if !got.Equal(want) {
			t.Fatalf("%s(%v, %v) = %v, per-trit reference gives %v", op, a, b, got, want)
		}
	}
	for _, cin := range []Trit{Zero, One, X} {
		gotS, gotC := a.AddCarry(b, cin)
		wantS, wantC := addCarryRef(a, b, cin)
		same("AddCarry/"+cin.String(), gotS, wantS)
		if gotC != wantC {
			t.Fatalf("AddCarry(%v, %v, %v) carry = %v, per-trit reference gives %v", a, b, cin, gotC, wantC)
		}
		if cin == Zero {
			same("Add", a.Add(b), wantS)
		}
	}
	gotD, gotB := a.SubBorrow(b)
	wantD, wantB := subBorrowRef(a, b)
	same("SubBorrow", gotD, wantD)
	if gotB != wantB {
		t.Fatalf("SubBorrow(%v, %v) borrow = %v, per-trit reference gives %v", a, b, gotB, wantB)
	}
	same("Sub", a.Sub(b), wantD)
	same("Concat", Concat(a, b), concatRef(a, b))
	amt := b.Slice(min(b.width, 5)-1, 0)
	same("Shl", a.Shl(amt), shiftRef(a, amt, shlRef))
	same("Shr", a.Shr(amt), shiftRef(a, amt, shrRef))
	same("RedAnd", a.RedAnd(), reduceRef(a, One, tritAnd))
	same("RedOr", a.RedOr(), reduceRef(a, Zero, tritOr))
	same("RedXor", a.RedXor(), reduceRef(a, Zero, tritXor))
	for _, o := range []Trit{Zero, One, X} {
		out := FromUint64(1, uint64(o))
		if o == X {
			out = NewX(1)
		}
		same("BackRedAnd/"+o.String(), BackRedAnd(out, a), backRedAndRef(out, a))
		same("BackRedOr/"+o.String(), BackRedOr(out, a), backRedOrRef(out, a))
	}
	if got, want := DeltaKnown(b, a) != 0, knownBeyondRef(a, b); got != want {
		t.Fatalf("DeltaKnown(%v, %v) != 0 is %v, per-trit reference gives %v", b, a, got, want)
	}
}

// checkOffset checks the kernels that take a bit offset, at offset at
// (0 <= at < a.Width()).
func checkOffset(t testing.TB, a, b BV, at int) {
	t.Helper()
	w := a.width
	same := func(op string, got, want BV) {
		t.Helper()
		if !got.Equal(want) {
			t.Fatalf("%s at %d of %v = %v, per-trit reference gives %v", op, at, a, got, want)
		}
	}
	hi := at + (w-1-at)/2
	same("Slice/low", a.Slice(at, 0), sliceRef(a, at, 0))
	same("Slice/high", a.Slice(w-1, at), sliceRef(a, w-1, at))
	same("Slice/mid", a.Slice(hi, at), sliceRef(a, hi, at))
	same("Concat/split", Concat(a.Slice(w-1, at), b), concatRef(a.Slice(w-1, at), b))
	same("Zext/trunc", a.Zext(at), zextRef(a, at))
	same("Zext/ext", a.Zext(w+at), zextRef(a, w+at))
	same("Deposit/to", Deposit(w, at, b, 0, w-at), depositRef(w, at, b, 0, w-at))
	same("Deposit/from", Deposit(w, 0, b, at, w-at), depositRef(w, 0, b, at, w-at))
	same("Deposit/wider", Deposit(w+at, at, b, 0, w), depositRef(w+at, at, b, 0, w))
	same("BackZext", BackZext(a, at+1), zextRef(a, at+1))
	same("shiftLeftKnown", a.shiftLeftKnown(at), shlRef(a, at))
	same("shiftRightKnown", a.shiftRightKnown(at), shrRef(a, at))
	for _, r := range [][2]int{{0, at}, {at, w - at}, {at, (w - at) / 2}} {
		if got, want := a.HasOneIn(r[0], r[1]), hasOneInRef(a, r[0], r[1]); got != want {
			t.Fatalf("HasOneIn(%d, %d) of %v = %v, per-trit reference gives %v", r[0], r[1], a, got, want)
		}
	}
}

// TestAddCarrySmallMatchesRipple checks AddCarry against the per-trit
// ripple: exhaustive over all cube pairs up to width 4 and every
// carry-in, random at the word-boundary widths.
func TestAddCarrySmallMatchesRipple(t *testing.T) {
	for w := 1; w <= 4; w++ {
		n := 1
		for i := 0; i < w; i++ {
			n *= 3
		}
		for ia := 0; ia < n; ia++ {
			a := cubeFromTrits(w, ia)
			for ib := 0; ib < n; ib++ {
				b := cubeFromTrits(w, ib)
				for _, cin := range []Trit{Zero, One, X} {
					gotS, gotC := a.AddCarry(b, cin)
					wantS, wantC := addCarryRef(a, b, cin)
					if !gotS.Equal(wantS) || gotC != wantC {
						t.Fatalf("AddCarry(%v, %v, %v) = (%v, %v), ripple reference gives (%v, %v)",
							a, b, cin, gotS, gotC, wantS, wantC)
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{31, 32, 63, 64} {
		for trial := 0; trial < 2000; trial++ {
			a, b := randCube(rng, w), randCube(rng, w)
			cin := Trit(rng.Intn(3))
			gotS, gotC := a.AddCarry(b, cin)
			wantS, wantC := addCarryRef(a, b, cin)
			if !gotS.Equal(wantS) || gotC != wantC {
				t.Fatalf("w=%d AddCarry(%v, %v, %v) = (%v, %v), want (%v, %v)",
					w, a, b, cin, gotS, gotC, wantS, wantC)
			}
		}
	}
}

// TestKernelsExhaustiveSmall checks every kernel on every cube pair up
// to width 4, at every bit offset.
func TestKernelsExhaustiveSmall(t *testing.T) {
	for w := 1; w <= 4; w++ {
		n := 1
		for i := 0; i < w; i++ {
			n *= 3
		}
		for ia := 0; ia < n; ia++ {
			a := cubeFromTrits(w, ia)
			for ib := 0; ib < n; ib++ {
				b := cubeFromTrits(w, ib)
				checkArith(t, a, b)
				for at := 0; at < w; at++ {
					checkOffset(t, a, b, at)
				}
			}
		}
	}
}

// kernelWidths straddle the word boundaries of both representations.
var kernelWidths = []int{31, 32, 63, 64, 65, 96, 127, 128, 129, 152}

// edgeCube returns structured operands random cubes rarely produce:
// long carry and borrow chains across word boundaries, and a single
// unknown bit inside an otherwise known word.
func edgeCube(rng *rand.Rand, w int) BV {
	switch rng.Intn(6) {
	case 0:
		return Ones(w)
	case 1:
		return FromUint64(w, 0)
	case 2:
		return NewX(w)
	case 3:
		return FromUint64(w, 1)
	case 4:
		return Ones(w).WithBit(rng.Intn(w), X)
	default:
		return FromUint64(w, 0).WithBit(rng.Intn(w), X)
	}
}

// TestKernelsMatchTritsRandom checks every kernel on random and
// structured cube pairs at the word-boundary widths, at every bit
// offset.
func TestKernelsMatchTritsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, w := range kernelWidths {
		for trial := 0; trial < 40; trial++ {
			var a, b BV
			switch trial % 4 {
			case 0:
				a, b = randCube(rng, w), randCube(rng, w)
			case 1:
				a, b = edgeCube(rng, w), randCube(rng, w)
			case 2:
				a, b = randCube(rng, w), edgeCube(rng, w)
			default:
				a, b = edgeCube(rng, w), edgeCube(rng, w)
			}
			checkArith(t, a, b)
			checkArith(t, b, a)
			for at := 0; at < w; at++ {
				checkOffset(t, a, b, at)
			}
		}
	}
}

// decodeCube reads width trits from data, two bits per trit (0, 1, and
// x for 2 or 3); missing bytes read as x.
func decodeCube(width int, data []byte) BV {
	b := NewX(width)
	for i := 0; i < width && i/4 < len(data); i++ {
		if t := Trit(data[i/4] >> (2 * (i % 4)) & 3); t < X {
			b.setBit(i, t)
		}
	}
	return b
}

// FuzzKernelsMatchTrits decodes a width (1..160), a bit offset and two
// cubes, and checks every word-parallel kernel against its per-trit
// reference. The seed corpus in testdata/fuzz runs under plain go test.
func FuzzKernelsMatchTrits(f *testing.F) {
	f.Fuzz(func(t *testing.T, width, at uint8, a, b []byte) {
		w := 1 + int(width)%160
		x, y := decodeCube(w, a), decodeCube(w, b)
		checkArith(t, x, y)
		checkOffset(t, x, y, int(at)%w)
	})
}
