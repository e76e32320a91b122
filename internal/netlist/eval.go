package netlist

import (
	"fmt"

	"repro/internal/bv"
)

// EvalGate computes the three-valued forward value of a combinational
// gate from its input cubes. This single definition of forward
// semantics is shared by the simulator (internal/sim) and the
// implication engine (internal/atpg), so the two can never disagree.
// It panics on KDff (sequential) and on arity mismatches.
func (n *Netlist) EvalGate(g *Gate, in []bv.BV) bv.BV {
	switch g.Kind {
	case KConst:
		return g.Const
	case KBuf:
		return in[0]
	case KNot:
		return in[0].Not()
	case KAnd:
		return in[0].And(in[1])
	case KOr:
		return in[0].Or(in[1])
	case KXor:
		return in[0].Xor(in[1])
	case KNand:
		v := in[0].And(in[1])
		bv.NotInto(&v, v)
		return v
	case KNor:
		v := in[0].Or(in[1])
		bv.NotInto(&v, v)
		return v
	case KXnor:
		v := in[0].Xor(in[1])
		bv.NotInto(&v, v)
		return v
	case KRedAnd:
		return in[0].RedAnd()
	case KRedOr:
		return in[0].RedOr()
	case KRedXor:
		return in[0].RedXor()
	case KAdd:
		return in[0].Add(in[1])
	case KSub:
		return in[0].Sub(in[1])
	case KMul:
		return in[0].Mul(in[1])
	case KShl:
		return in[0].Shl(in[1])
	case KShr:
		return in[0].Shr(in[1])
	case KEq:
		return tritBit(bv.EqThree(in[0], in[1]))
	case KNe:
		return tritBit(notTrit(bv.EqThree(in[0], in[1])))
	case KLt:
		return tritBit(bv.LtThree(in[0], in[1]))
	case KGt:
		return tritBit(bv.LtThree(in[1], in[0]))
	case KLe:
		return tritBit(notTrit(bv.LtThree(in[1], in[0])))
	case KGe:
		return tritBit(notTrit(bv.LtThree(in[0], in[1])))
	case KMux:
		return evalMux(in, n.Width(g.Out))
	case KConcat:
		// In[0] is most significant.
		out := in[len(in)-1]
		for i := len(in) - 2; i >= 0; i-- {
			out = bv.Concat(in[i], out)
		}
		return out
	case KSlice:
		return in[0].Slice(g.Hi, g.Lo)
	case KZext:
		return in[0].Zext(n.Width(g.Out))
	default:
		panic(fmt.Sprintf("netlist: EvalGate on %s", g.Kind))
	}
}

func tritBit(t bv.Trit) bv.BV { return bv.NewX(1).WithBit(0, t) }

func notTrit(t bv.Trit) bv.Trit {
	switch t {
	case bv.Zero:
		return bv.One
	case bv.One:
		return bv.Zero
	}
	return bv.X
}

// evalMux returns data[sel] when the select is fully known and the
// union of all selectable data cubes otherwise (§3.1 "Multiplexors":
// the output is the cube union of the input values).
func evalMux(in []bv.BV, width int) bv.BV {
	sel := in[0]
	data := in[1:]
	if v, ok := sel.Uint64(); ok {
		if v < uint64(len(data)) {
			return data[v]
		}
		return bv.NewX(width)
	}
	var out bv.BV
	first, owned := true, false
	for i, d := range data {
		if !selCanBe(sel, uint64(i)) {
			continue
		}
		if first {
			out, first = d, false
		} else {
			if !owned {
				// Widths > 128 share spill storage with the caller's value
				// table; take ownership before mutating in place.
				out, owned = out.Clone(), true
			}
			out.UnionInPlace(d)
		}
	}
	if first {
		return bv.NewX(width)
	}
	// Selector values beyond the data list leave the output unknown.
	if maxSel(sel) >= uint64(len(data)) {
		return bv.NewX(width)
	}
	return out
}

func selCanBe(sel bv.BV, v uint64) bool {
	if sel.Width() > 64 {
		return true
	}
	return sel.Contains(v)
}

func maxSel(sel bv.BV) uint64 {
	if sel.Width() > 64 {
		return ^uint64(0)
	}
	return sel.MaxUint64()
}
