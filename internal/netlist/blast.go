package netlist

import (
	"fmt"

	"repro/internal/bv"
)

// Algebra is a Boolean algebra over bit values of type T: the
// operations Blast expands a word-level gate into. The bit-level
// engines instantiate it with CNF literals (internal/cnf) and BDD
// nodes (internal/mc).
type Algebra[T any] interface {
	Const(v bool) T
	Not(a T) T
	And(a, b T) T
	Or(a, b T) T
	Xor(a, b T) T
	Ite(c, t, e T) T
}

// Blast expands combinational gate g into one value per output bit,
// bit 0 least significant, from the bits of its inputs (in[k] holds
// g.In[k]'s bits). It is the bit-level reading of EvalGate: for fully
// known inputs, every output bit EvalGate knows equals Blast's bit.
//
// Two gates have an output that can be x whatever their inputs: a
// constant with x bits, and a mux whose select is past its data list.
// The one x rule is that such an x source is an unconstrained value,
// chosen afresh in every frame, so Blast takes those bits from
// free(bit), and each caller hands out values nothing else constrains.
func Blast[T any](a Algebra[T], n *Netlist, g *Gate, in [][]T, free func(bit int) T) []T {
	out := make([]T, n.Width(g.Out))
	switch g.Kind {
	case KConst:
		for i := range out {
			switch g.Const.Bit(i) {
			case bv.One:
				out[i] = a.Const(true)
			case bv.Zero:
				out[i] = a.Const(false)
			default:
				out[i] = free(i)
			}
		}
	case KBuf:
		copy(out, in[0])
	case KNot:
		for i := range out {
			out[i] = a.Not(in[0][i])
		}
	case KAnd, KNand:
		for i := range out {
			out[i] = a.And(in[0][i], in[1][i])
		}
	case KOr, KNor:
		for i := range out {
			out[i] = a.Or(in[0][i], in[1][i])
		}
	case KXor, KXnor:
		for i := range out {
			out[i] = a.Xor(in[0][i], in[1][i])
		}
	case KRedAnd:
		out[0] = fold(a.And, a.Const(true), in[0])
	case KRedOr:
		out[0] = fold(a.Or, a.Const(false), in[0])
	case KRedXor:
		out[0] = fold(a.Xor, a.Const(false), in[0])
	case KAdd:
		out = add(a, in[0], in[1], a.Const(false))
	case KSub:
		// a - b = a + ~b + 1.
		nb := make([]T, len(out))
		for i := range nb {
			nb[i] = a.Not(in[1][i])
		}
		out = add(a, in[0], nb, a.Const(true))
	case KMul:
		// Shift-and-add: row i is (b << i) & a_i.
		for i := range out {
			out[i] = a.Const(false)
		}
		for i := range out {
			row := make([]T, len(out))
			for j := range row {
				if j < i {
					row[j] = a.Const(false)
				} else {
					row[j] = a.And(in[1][j-i], in[0][i])
				}
			}
			out = add(a, out, row, a.Const(false))
		}
	case KShl, KShr:
		// A barrel shifter; an amount bit whose weight is at least the
		// width shifts every bit out.
		copy(out, in[0])
		for level, s := range in[1] {
			shift := len(out)
			if level < 31 {
				shift = min(1<<level, len(out))
			}
			next := make([]T, len(out))
			for i := range next {
				from := i + shift
				if g.Kind == KShl {
					from = i - shift
				}
				shifted := a.Const(false)
				if from >= 0 && from < len(out) {
					shifted = out[from]
				}
				next[i] = a.Ite(s, shifted, out[i])
			}
			out = next
		}
	case KEq, KNe:
		eq := a.Const(true)
		for i := range in[0] {
			eq = a.And(eq, a.Not(a.Xor(in[0][i], in[1][i])))
		}
		out[0] = eq
	case KLt, KGe:
		out[0] = less(a, in[0], in[1])
	case KGt, KLe:
		out[0] = less(a, in[1], in[0])
	case KMux:
		out = mux(a, in[0], in[1:], len(out), free)
	case KConcat:
		// In[0] is most significant.
		pos := len(out)
		for _, bits := range in {
			pos -= len(bits)
			copy(out[pos:], bits)
		}
	case KSlice:
		copy(out, in[0][g.Lo:g.Hi+1])
	case KZext:
		for i := copy(out, in[0]); i < len(out); i++ {
			out[i] = a.Const(false)
		}
	default:
		panic(fmt.Sprintf("netlist: Blast on %s", g.Kind))
	}
	switch g.Kind {
	case KNand, KNor, KXnor, KNe, KLe, KGe:
		for i := range out {
			out[i] = a.Not(out[i])
		}
	}
	return out
}

// fold combines bits left to right from init.
func fold[T any](op func(x, y T) T, init T, bits []T) T {
	for _, b := range bits {
		init = op(init, b)
	}
	return init
}

// add returns the bits of x + y + c, modulo 2^len(x): a ripple-carry
// chain whose carry is the majority (x ∧ y) ∨ (c ∧ (x ∨ y)).
func add[T any](a Algebra[T], x, y []T, c T) []T {
	sum := make([]T, len(x))
	for i := range x {
		sum[i] = a.Xor(a.Xor(x[i], y[i]), c)
		c = a.Or(a.And(x[i], y[i]), a.And(c, a.Or(x[i], y[i])))
	}
	return sum
}

// less returns unsigned x < y, scanning from bit 0 up: the comparison
// so far holds unless bit i decides it, x_i < y_i.
func less[T any](a Algebra[T], x, y []T) T {
	lt := a.Const(false)
	for i := range x {
		lt = a.Or(a.And(a.Not(x[i]), y[i]), a.And(a.Not(a.Xor(x[i], y[i])), lt))
	}
	return lt
}

// mux returns data[sel] as a sum of products: each entry's bits are
// gated by the product term of the select value that picks it. Entries
// past 2^len(sel) can never be selected. A select past the data list
// gives the free bits.
func mux[T any](a Algebra[T], sel []T, data [][]T, w int, free func(bit int) T) []T {
	if len(sel) < 31 && 1<<len(sel) < len(data) {
		data = data[:1<<len(sel)]
	}
	pass := selPasses(len(sel), len(data))
	terms := make([]T, len(data))
	hit := a.Const(false)
	for k := range data {
		terms[k] = a.Const(true)
		for j, s := range sel {
			if k>>j&1 == 0 {
				s = a.Not(s)
			}
			terms[k] = a.And(terms[k], s)
		}
		if pass {
			hit = a.Or(hit, terms[k])
		}
	}
	out := make([]T, w)
	for i := range out {
		out[i] = a.Const(false)
		for k, d := range data {
			out[i] = a.Or(out[i], a.And(terms[k], d[i]))
		}
		if pass {
			out[i] = a.Or(out[i], a.And(a.Not(hit), free(i)))
		}
	}
	return out
}

// selPasses reports whether a select of selWidth bits can take a value
// past a data list of n entries.
func selPasses(selWidth, n int) bool {
	return selWidth >= 31 || 1<<selWidth > n
}

// CanBeX reports whether a gate's output can be x with fully known
// inputs: a constant with x bits, or a mux whose select can pass its
// data list. Blast takes such a gate's x bits from its free hook.
func (n *Netlist) CanBeX(g *Gate) bool {
	switch g.Kind {
	case KConst:
		return !g.Const.IsFullyKnown()
	case KMux:
		return selPasses(n.Width(g.In[0]), len(g.In)-1)
	}
	return false
}
