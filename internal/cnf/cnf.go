// Package cnf bit-blasts word-level netlists into CNF for the SAT
// baseline (internal/bmc): Tseitin encoding per bit with ripple-carry
// adders, shift-add multipliers, barrel shifters, borrow-chain
// comparators and one-hot-select multiplexors. Flip-flops link
// adjacent time frames with equality clauses; frame-0 registers are
// pinned to their initial values.
package cnf

import (
	"fmt"

	"repro/internal/bv"
	"repro/internal/netlist"
	"repro/internal/sat"
)

type varKey struct {
	frame int32
	sig   netlist.SignalID
	bit   int32
}

// Sink is the clause consumer a Blaster encodes into: a live SAT
// solver, or the template recorder that captures one frame's clauses
// for later relocation (see Template).
type Sink interface {
	NewVar() int
	AddClause(lits ...sat.Lit) bool
}

// Blaster encodes gate instances into a SAT solver (or any Sink).
type Blaster struct {
	NL   *netlist.Netlist
	S    Sink
	vars map[varKey]int
	// solver is S when the sink is a real solver; ModelValue reads
	// models through it.
	solver *sat.Solver
}

// New returns a blaster over the netlist and solver.
func New(nl *netlist.Netlist, s *sat.Solver) *Blaster {
	return &Blaster{NL: nl, S: s, solver: s, vars: map[varKey]int{}}
}

// Var returns the SAT variable of one bit of a signal at a frame.
func (b *Blaster) Var(frame int, sig netlist.SignalID, bit int) int {
	k := varKey{int32(frame), sig, int32(bit)}
	if v, ok := b.vars[k]; ok {
		return v
	}
	v := b.S.NewVar()
	b.vars[k] = v
	return v
}

// Lit returns the positive literal of a signal bit.
func (b *Blaster) Lit(frame int, sig netlist.SignalID, bit int) sat.Lit {
	return sat.NewLit(b.Var(frame, sig, bit), false)
}

func (b *Blaster) freshLit() sat.Lit { return sat.NewLit(b.S.NewVar(), false) }

// equal adds y ↔ x.
func (b *Blaster) equal(y, x sat.Lit) {
	b.S.AddClause(y.Not(), x)
	b.S.AddClause(y, x.Not())
}

// setConst pins a literal to a boolean.
func (b *Blaster) setConst(y sat.Lit, v bool) {
	if v {
		b.S.AddClause(y)
	} else {
		b.S.AddClause(y.Not())
	}
}

// andGate adds y ↔ (a ∧ b).
func (b *Blaster) andGate(y, a, c sat.Lit) {
	b.S.AddClause(y.Not(), a)
	b.S.AddClause(y.Not(), c)
	b.S.AddClause(y, a.Not(), c.Not())
}

// orGate adds y ↔ (a ∨ b).
func (b *Blaster) orGate(y, a, c sat.Lit) {
	b.S.AddClause(y, a.Not())
	b.S.AddClause(y, c.Not())
	b.S.AddClause(y.Not(), a, c)
}

// xorGate adds y ↔ (a ⊕ b).
func (b *Blaster) xorGate(y, a, c sat.Lit) {
	b.S.AddClause(y.Not(), a, c)
	b.S.AddClause(y.Not(), a.Not(), c.Not())
	b.S.AddClause(y, a, c.Not())
	b.S.AddClause(y, a.Not(), c)
}

// xor3 returns a literal equal to a ⊕ b ⊕ c.
func (b *Blaster) xor3(a, c, d sat.Lit) sat.Lit {
	t := b.freshLit()
	b.xorGate(t, a, c)
	y := b.freshLit()
	b.xorGate(y, t, d)
	return y
}

// maj returns a literal equal to the majority of a, b, c.
func (b *Blaster) maj(a, c, d sat.Lit) sat.Lit {
	y := b.freshLit()
	b.S.AddClause(y.Not(), a, c)
	b.S.AddClause(y.Not(), a, d)
	b.S.AddClause(y.Not(), c, d)
	b.S.AddClause(y, a.Not(), c.Not())
	b.S.AddClause(y, a.Not(), d.Not())
	b.S.AddClause(y, c.Not(), d.Not())
	return y
}

// andReduce returns a literal equal to the conjunction of lits.
func (b *Blaster) andReduce(lits []sat.Lit) sat.Lit {
	y := b.freshLit()
	all := make([]sat.Lit, 0, len(lits)+1)
	for _, l := range lits {
		b.S.AddClause(y.Not(), l)
		all = append(all, l.Not())
	}
	all = append(all, y)
	b.S.AddClause(all...)
	return y
}

// orReduce returns a literal equal to the disjunction of lits.
func (b *Blaster) orReduce(lits []sat.Lit) sat.Lit {
	y := b.freshLit()
	all := make([]sat.Lit, 0, len(lits)+1)
	for _, l := range lits {
		b.S.AddClause(y, l.Not())
		all = append(all, l)
	}
	all = append(all, y.Not())
	b.S.AddClause(all...)
	return y
}

// adder encodes sum = a + c + cin over equal-width literal slices and
// returns the carry-out.
func (b *Blaster) adder(sum, a, c []sat.Lit, cin sat.Lit) sat.Lit {
	carry := cin
	for i := range sum {
		s := b.xor3(a[i], c[i], carry)
		b.equal(sum[i], s)
		carry = b.maj(a[i], c[i], carry)
	}
	return carry
}

// lessThan returns a literal for unsigned a < c.
func (b *Blaster) lessThan(a, c []sat.Lit) sat.Lit {
	// lt_i over bits low..high: lt = (¬a_i ∧ c_i) ∨ ((a_i ↔ c_i) ∧ lt_{i-1})
	lt := b.freshLit()
	b.setConst(lt, false)
	for i := 0; i < len(a); i++ {
		bi := b.freshLit() // ¬a_i ∧ c_i
		b.andGate(bi, a[i].Not(), c[i])
		eqi := b.freshLit() // a_i ↔ c_i
		x := b.freshLit()
		b.xorGate(x, a[i], c[i])
		b.equal(eqi, x.Not())
		keep := b.freshLit()
		b.andGate(keep, eqi, lt)
		next := b.freshLit()
		b.orGate(next, bi, keep)
		lt = next
	}
	return lt
}

// sigLits returns the literal slice of a signal at a frame.
func (b *Blaster) sigLits(frame int, sig netlist.SignalID) []sat.Lit {
	w := b.NL.Width(sig)
	out := make([]sat.Lit, w)
	for i := 0; i < w; i++ {
		out[i] = b.Lit(frame, sig, i)
	}
	return out
}

// BlastFrame encodes every combinational gate of one frame.
func (b *Blaster) BlastFrame(frame int) error {
	order, err := b.NL.TopoOrder()
	if err != nil {
		return err
	}
	for _, gid := range order {
		if err := b.blastGate(frame, &b.NL.Gates[gid]); err != nil {
			return err
		}
	}
	return nil
}

// LinkFrames adds the register transition equalities Q@frame+1 = D@frame.
func (b *Blaster) LinkFrames(frame int) {
	for _, ff := range b.NL.FFs {
		g := &b.NL.Gates[ff]
		d := b.sigLits(frame, g.In[0])
		q := b.sigLits(frame+1, g.Out)
		for i := range q {
			b.equal(q[i], d[i])
		}
	}
}

// PinInit constrains frame-0 registers to their known initial bits.
func (b *Blaster) PinInit() {
	for _, ff := range b.NL.FFs {
		g := &b.NL.Gates[ff]
		for i := 0; i < g.Init.Width(); i++ {
			switch g.Init.Bit(i) {
			case bv.One:
				b.setConst(b.Lit(0, g.Out, i), true)
			case bv.Zero:
				b.setConst(b.Lit(0, g.Out, i), false)
			}
		}
	}
}

func (b *Blaster) blastGate(frame int, g *netlist.Gate) error {
	w := b.NL.Width(g.Out)
	y := b.sigLits(frame, g.Out)
	in := make([][]sat.Lit, len(g.In))
	for i, s := range g.In {
		in[i] = b.sigLits(frame, s)
	}
	switch g.Kind {
	case netlist.KConst:
		for i := 0; i < w; i++ {
			switch g.Const.Bit(i) {
			case bv.One:
				b.setConst(y[i], true)
			case bv.Zero:
				b.setConst(y[i], false)
			}
		}
	case netlist.KBuf:
		for i := 0; i < w; i++ {
			b.equal(y[i], in[0][i])
		}
	case netlist.KNot:
		for i := 0; i < w; i++ {
			b.equal(y[i], in[0][i].Not())
		}
	case netlist.KAnd:
		for i := 0; i < w; i++ {
			b.andGate(y[i], in[0][i], in[1][i])
		}
	case netlist.KOr:
		for i := 0; i < w; i++ {
			b.orGate(y[i], in[0][i], in[1][i])
		}
	case netlist.KXor:
		for i := 0; i < w; i++ {
			b.xorGate(y[i], in[0][i], in[1][i])
		}
	case netlist.KNand:
		for i := 0; i < w; i++ {
			t := b.freshLit()
			b.andGate(t, in[0][i], in[1][i])
			b.equal(y[i], t.Not())
		}
	case netlist.KNor:
		for i := 0; i < w; i++ {
			t := b.freshLit()
			b.orGate(t, in[0][i], in[1][i])
			b.equal(y[i], t.Not())
		}
	case netlist.KXnor:
		for i := 0; i < w; i++ {
			t := b.freshLit()
			b.xorGate(t, in[0][i], in[1][i])
			b.equal(y[i], t.Not())
		}
	case netlist.KRedAnd:
		b.equal(y[0], b.andReduce(in[0]))
	case netlist.KRedOr:
		b.equal(y[0], b.orReduce(in[0]))
	case netlist.KRedXor:
		acc := b.freshLit()
		b.setConst(acc, false)
		for _, l := range in[0] {
			n := b.freshLit()
			b.xorGate(n, acc, l)
			acc = n
		}
		b.equal(y[0], acc)
	case netlist.KAdd:
		b.adder(y, in[0], in[1], b.falseLit())
	case netlist.KSub:
		// a - b = a + ~b + 1.
		nb := make([]sat.Lit, w)
		for i := range nb {
			nb[i] = in[1][i].Not()
		}
		b.adder(y, in[0], nb, b.trueLit())
	case netlist.KMul:
		if w > 64 {
			return fmt.Errorf("cnf: multiplier wider than 64 bits")
		}
		acc := make([]sat.Lit, w)
		for i := range acc {
			acc[i] = b.freshLit()
			b.setConst(acc[i], false)
		}
		for i := 0; i < w; i++ {
			// row = (b << i) & a_i
			row := make([]sat.Lit, w)
			for j := 0; j < w; j++ {
				row[j] = b.freshLit()
				if j < i {
					b.setConst(row[j], false)
				} else {
					b.andGate(row[j], in[1][j-i], in[0][i])
				}
			}
			next := make([]sat.Lit, w)
			for j := range next {
				next[j] = b.freshLit()
			}
			b.adder(next, acc, row, b.falseLit())
			acc = next
		}
		for i := 0; i < w; i++ {
			b.equal(y[i], acc[i])
		}
	case netlist.KShl, netlist.KShr:
		cur := in[0]
		amt := in[1]
		for level := 0; level < len(amt); level++ {
			// Amount bits at level 30 and up shift every bit out.
			shift := w
			if level < 30 {
				shift = min(1<<uint(level), w)
			}
			next := make([]sat.Lit, w)
			for i := 0; i < w; i++ {
				var shifted sat.Lit
				ok := false
				if g.Kind == netlist.KShl {
					if i-shift >= 0 {
						shifted, ok = cur[i-shift], true
					}
				} else {
					if i+shift < w {
						shifted, ok = cur[i+shift], true
					}
				}
				next[i] = b.freshLit()
				if !ok {
					// Shifted-in zero when amt bit set.
					b.S.AddClause(amt[level].Not(), next[i].Not())
					b.S.AddClause(amt[level], next[i].Not(), cur[i])
					b.S.AddClause(amt[level], next[i], cur[i].Not())
					continue
				}
				// next = amt[level] ? shifted : cur
				b.muxBit(next[i], amt[level], cur[i], shifted)
			}
			cur = next
		}
		for i := 0; i < w; i++ {
			b.equal(y[i], cur[i])
		}
	case netlist.KEq, netlist.KNe:
		xn := make([]sat.Lit, len(in[0]))
		for i := range in[0] {
			x := b.freshLit()
			b.xorGate(x, in[0][i], in[1][i])
			xn[i] = x.Not()
		}
		eq := b.andReduce(xn)
		if g.Kind == netlist.KEq {
			b.equal(y[0], eq)
		} else {
			b.equal(y[0], eq.Not())
		}
	case netlist.KLt:
		b.equal(y[0], b.lessThan(in[0], in[1]))
	case netlist.KGt:
		b.equal(y[0], b.lessThan(in[1], in[0]))
	case netlist.KLe:
		b.equal(y[0], b.lessThan(in[1], in[0]).Not())
	case netlist.KGe:
		b.equal(y[0], b.lessThan(in[0], in[1]).Not())
	case netlist.KMux:
		sel := in[0]
		data := in[1:]
		if len(sel) < 31 && 1<<uint(len(sel)) < len(data) {
			data = data[:1<<uint(len(sel))] // the rest can never be selected
		}
		// hit_k = (sel == k); y bit equal to data_k bit under hit_k.
		for k := range data {
			cond := make([]sat.Lit, len(sel))
			for j := range sel {
				if k>>uint(j)&1 == 1 {
					cond[j] = sel[j]
				} else {
					cond[j] = sel[j].Not()
				}
			}
			hit := b.andReduce(cond)
			for i := 0; i < w; i++ {
				b.S.AddClause(hit.Not(), y[i], data[k][i].Not())
				b.S.AddClause(hit.Not(), y[i].Not(), data[k][i])
			}
		}
		// Out-of-range selects leave y unconstrained (x in the
		// word-level semantics), so no default clause is added.
	case netlist.KConcat:
		pos := w
		for _, lits := range in {
			for i := range lits {
				b.equal(y[pos-len(lits)+i], lits[i])
			}
			pos -= len(lits)
		}
	case netlist.KSlice:
		for i := g.Lo; i <= g.Hi; i++ {
			b.equal(y[i-g.Lo], in[0][i])
		}
	case netlist.KZext:
		inW := len(in[0])
		for i := 0; i < w; i++ {
			if i < inW {
				b.equal(y[i], in[0][i])
			} else {
				b.setConst(y[i], false)
			}
		}
	case netlist.KDff:
		// handled by LinkFrames / PinInit
	default:
		return fmt.Errorf("cnf: unsupported gate %v", g.Kind)
	}
	return nil
}

// muxBit encodes y = s ? a1 : a0.
func (b *Blaster) muxBit(y, s, a0, a1 sat.Lit) {
	b.S.AddClause(s.Not(), y, a1.Not())
	b.S.AddClause(s.Not(), y.Not(), a1)
	b.S.AddClause(s, y, a0.Not())
	b.S.AddClause(s, y.Not(), a0)
}

func (b *Blaster) trueLit() sat.Lit {
	l := b.freshLit()
	b.setConst(l, true)
	return l
}

func (b *Blaster) falseLit() sat.Lit {
	l := b.freshLit()
	b.setConst(l, false)
	return l
}

// ModelValue reads a signal value of the model after a Sat answer. The
// blaster must have been built over a real solver (New).
func (b *Blaster) ModelValue(frame int, sig netlist.SignalID) bv.BV {
	w := b.NL.Width(sig)
	out := bv.NewX(w)
	for i := 0; i < w; i++ {
		k := varKey{int32(frame), sig, int32(i)}
		v, ok := b.vars[k]
		if !ok {
			out = out.WithBit(i, bv.Zero)
			continue
		}
		if b.solver.ModelValue(v) {
			out = out.WithBit(i, bv.One)
		} else {
			out = out.WithBit(i, bv.Zero)
		}
	}
	return out
}
