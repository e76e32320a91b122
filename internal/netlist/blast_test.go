package netlist

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bv"
)

// bits is Blast's plain bool instance.
type bits struct{}

func (bits) Const(v bool) bool  { return v }
func (bits) Not(a bool) bool    { return !a }
func (bits) And(a, b bool) bool { return a && b }
func (bits) Or(a, b bool) bool  { return a || b }
func (bits) Xor(a, b bool) bool { return a != b }

func (bits) Ite(c, t, e bool) bool {
	if c {
		return t
	}
	return e
}

// randomCube returns a w-bit cube with about one bit in xOneIn unknown.
func randomCube(r *rand.Rand, w, xOneIn int) bv.BV {
	v := bv.NewX(w)
	for i := 0; i < w; i++ {
		if r.Intn(xOneIn) != 0 {
			v = v.WithBit(i, bv.Trit(r.Intn(2)))
		}
	}
	return v
}

// complete draws a value for every x bit of c.
func complete(r *rand.Rand, c bv.BV) (bits []bool, cube bv.BV) {
	bits = make([]bool, c.Width())
	for i := range bits {
		switch c.Bit(i) {
		case bv.One:
			bits[i] = true
		case bv.X:
			bits[i] = r.Intn(2) == 1
		}
		if bits[i] {
			c = c.WithBit(i, bv.One)
		} else {
			c = c.WithBit(i, bv.Zero)
		}
	}
	return bits, c
}

// randomGate builds a netlist of one gate of the given kind over fresh
// inputs, its main operands w bits wide: shift amounts of up to 70
// bits, mux selects of 1–3 bits over data lists shorter and longer than
// 2^w, or of 29–34 bits, and constants with x bits.
func randomGate(r *rand.Rand, k Kind, w int) (*Netlist, *Gate) {
	n := New("blast")
	in := func(w int) SignalID { return n.AddInput(fmt.Sprintf("i%d", len(n.PIs)), w) }
	var out SignalID
	switch k {
	case KConst:
		out = n.Const(randomCube(r, w, 3))
	case KBuf, KNot, KRedAnd, KRedOr, KRedXor:
		out = n.Unary(k, in(w))
	case KShl, KShr:
		out = n.Binary(k, in(w), in(1+r.Intn(70)))
	case KMux:
		sw := 1 + r.Intn(3)
		if r.Intn(4) == 0 {
			sw = 29 + r.Intn(6)
		}
		sel := in(sw)
		data := make([]SignalID, 1+r.Intn(min(1<<sw, 8)+2))
		for i := range data {
			data[i] = in(w)
		}
		out = n.Mux(sel, data...)
	case KConcat:
		parts := make([]SignalID, 1+r.Intn(3))
		for i := range parts {
			parts[i] = in(1 + r.Intn(w))
		}
		out = n.Concat(parts...)
	case KSlice:
		lo := r.Intn(w)
		out = n.Slice(in(w), lo+r.Intn(w-lo), lo)
	case KZext:
		out = n.Zext(in(w), 1+r.Intn(130))
	default:
		out = n.Binary(k, in(w), in(w))
	}
	return n, &n.Gates[n.Signals[out].Driver]
}

// FuzzBlastMatchesEval checks Blast's bool instance against EvalGate
// on one random gate of every combinational kind, 1–130 bits wide.
// The inputs carry some x bits; for a random completion of them, every
// output bit EvalGate knows — over the partial inputs or over their
// completion — must equal Blast's bit, with the free bits of x sources
// drawn at random.
func FuzzBlastMatchesEval(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, kind, width uint8) {
		r := rand.New(rand.NewSource(seed))
		n, g := randomGate(r, Kind(kind)%KDff, 1+int(width)%130)
		cubes := make([]bv.BV, len(g.In))
		vals := make([][]bool, len(g.In))
		done := make([]bv.BV, len(g.In))
		for i, s := range g.In {
			cubes[i] = randomCube(r, n.Width(s), 4)
			vals[i], done[i] = complete(r, cubes[i])
		}
		got := Blast[bool](bits{}, n, g, vals, func(int) bool { return r.Intn(2) == 1 })
		for _, in := range [][]bv.BV{cubes, done} {
			want := n.EvalGate(g, in)
			if want.Width() != len(got) {
				t.Fatalf("%s: Blast gives %d bits, EvalGate %d", g.Kind, len(got), want.Width())
			}
			for i, b := range got {
				if w := want.Bit(i); w != bv.X && (w == bv.One) != b {
					t.Fatalf("%s over %v: bit %d is %v, EvalGate says %v", g.Kind, in, i, b, want)
				}
			}
		}
	})
}
