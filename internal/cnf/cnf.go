// Package cnf bit-blasts word-level netlists into CNF for the SAT
// baseline (internal/bmc). Each gate is expanded by netlist.Blast over
// Tseitin literals that fold constants: a signal bit is a literal, often
// an input's literal, its negation or a constant, so buffers, slices,
// concatenations, extensions and inverters cost no clause. Flip-flops
// link adjacent time frames with equality clauses; frame-0 registers
// are pinned to their initial values.
package cnf

import (
	"fmt"

	"repro/internal/bv"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// Sink is the clause consumer a Blaster encodes into: a live SAT
// solver, or the template recorder that captures one frame's clauses
// for later relocation (see Template).
type Sink interface {
	NewVar() int
	AddClause(lits ...sat.Lit) bool
}

// tseitin is the Boolean algebra netlist.Blast expands gates over: a
// value is a literal, and an operation that does not fold to a constant or an
// operand defines a fresh variable by its Tseitin clauses.
type tseitin struct {
	s   Sink
	one sat.Lit // the constant-true literal
}

func (l *tseitin) fresh() sat.Lit { return sat.NewLit(l.s.NewVar(), false) }

func (l *tseitin) Const(v bool) sat.Lit {
	if v {
		return l.one
	}
	return l.one.Not()
}

func (l *tseitin) Not(a sat.Lit) sat.Lit { return a.Not() }

func (l *tseitin) And(a, b sat.Lit) sat.Lit {
	switch {
	case a == l.one.Not() || b == l.one.Not() || a == b.Not():
		return l.one.Not()
	case a == l.one || a == b:
		return b
	case b == l.one:
		return a
	}
	y := l.fresh()
	l.s.AddClause(y.Not(), a)
	l.s.AddClause(y.Not(), b)
	l.s.AddClause(y, a.Not(), b.Not())
	return y
}

func (l *tseitin) Or(a, b sat.Lit) sat.Lit { return l.And(a.Not(), b.Not()).Not() }

func (l *tseitin) Xor(a, b sat.Lit) sat.Lit {
	switch {
	case a == l.one.Not():
		return b
	case b == l.one.Not():
		return a
	case a == l.one:
		return b.Not()
	case b == l.one:
		return a.Not()
	case a == b:
		return l.one.Not()
	case a == b.Not():
		return l.one
	}
	y := l.fresh()
	l.s.AddClause(y.Not(), a, b)
	l.s.AddClause(y.Not(), a.Not(), b.Not())
	l.s.AddClause(y, a, b.Not())
	l.s.AddClause(y, a.Not(), b)
	return y
}

func (l *tseitin) Ite(c, t, e sat.Lit) sat.Lit {
	switch {
	case c == l.one || t == e:
		return t
	case c == l.one.Not():
		return e
	case t == l.one || t == c:
		return l.Or(c, e)
	case t == l.one.Not() || t == c.Not():
		return l.And(c.Not(), e)
	case e == l.one || e == c.Not():
		return l.Or(c.Not(), t)
	case e == l.one.Not() || e == c:
		return l.And(c, t)
	case t == e.Not():
		return l.Xor(c, e)
	}
	y := l.fresh()
	l.s.AddClause(c.Not(), y.Not(), t)
	l.s.AddClause(c.Not(), y, t.Not())
	l.s.AddClause(c, y.Not(), e)
	l.s.AddClause(c, y, e.Not())
	return y
}

// Blaster encodes time frames of a netlist into a Sink. Every signal
// bit of a frame maps to a literal: a primary input or register output
// bit gets a fresh variable, and every other signal whatever
// netlist.Blast makes of its driver.
type Blaster struct {
	NL  *netlist.Netlist
	S   Sink
	alg tseitin
	// frames[f][sig] holds the literals of signal sig at frame f, or
	// nil before the signal is encoded there.
	frames [][][]sat.Lit
	// solver is S when the sink is a real solver; ModelValue reads
	// models through it.
	solver *sat.Solver
}

// New returns a blaster over the netlist and solver.
func New(nl *netlist.Netlist, s *sat.Solver) *Blaster {
	b := newBlaster(nl, s)
	b.solver = s
	return b
}

// newBlaster returns a blaster over a sink, whose first variable is
// the constant-true one.
func newBlaster(nl *netlist.Netlist, s Sink) *Blaster {
	b := &Blaster{NL: nl, S: s, alg: tseitin{s: s}}
	b.alg.one = b.alg.fresh()
	s.AddClause(b.alg.one)
	return b
}

// Lit returns the literal of one bit of a signal at a frame. A primary
// input or register output bit gets a fresh variable on first use; any
// other signal must have been encoded by BlastFrame.
func (b *Blaster) Lit(frame int, sig netlist.SignalID, bit int) sat.Lit {
	return b.sig(frame, sig)[bit]
}

// table returns the literal table of a frame.
func (b *Blaster) table(frame int) [][]sat.Lit {
	for len(b.frames) <= frame {
		b.frames = append(b.frames, make([][]sat.Lit, len(b.NL.Signals)))
	}
	return b.frames[frame]
}

// sig returns the literals of a signal at a frame.
func (b *Blaster) sig(frame int, sig netlist.SignalID) []sat.Lit {
	tab := b.table(frame)
	if tab[sig] != nil {
		return tab[sig]
	}
	if d := b.NL.Signals[sig].Driver; d != netlist.None && b.NL.Gates[d].Kind != netlist.KDff {
		panic(fmt.Sprintf("cnf: signal %d read at frame %d before BlastFrame", sig, frame))
	}
	tab[sig] = make([]sat.Lit, b.NL.Width(sig))
	for i := range tab[sig] {
		tab[sig][i] = b.alg.fresh()
	}
	return tab[sig]
}

// BlastFrame encodes every combinational gate of one frame.
func (b *Blaster) BlastFrame(frame int) error {
	order, err := b.NL.TopoOrder()
	if err != nil {
		return err
	}
	fresh := func(int) sat.Lit { return b.alg.fresh() }
	for _, gid := range order {
		g := &b.NL.Gates[gid]
		if g.Kind == netlist.KMul && b.NL.Width(g.Out) > 64 {
			return fmt.Errorf("cnf: multiplier wider than 64 bits")
		}
		in := make([][]sat.Lit, len(g.In))
		for i, s := range g.In {
			in[i] = b.sig(frame, s)
		}
		b.table(frame)[g.Out] = netlist.Blast[sat.Lit](&b.alg, b.NL, g, in, fresh)
	}
	return nil
}

// LinkFrames adds the register transition equalities Q@frame+1 = D@frame.
func (b *Blaster) LinkFrames(frame int) {
	for _, ff := range b.NL.FFs {
		g := &b.NL.Gates[ff]
		d := b.sig(frame, g.In[0])
		q := b.sig(frame+1, g.Out)
		for i := range q {
			b.S.AddClause(q[i].Not(), d[i])
			b.S.AddClause(q[i], d[i].Not())
		}
	}
}

// PinInit constrains frame-0 registers to their known initial bits.
func (b *Blaster) PinInit() {
	for _, l := range b.initLits() {
		b.S.AddClause(l)
	}
}

// initLits returns the frame-0 literals that hold exactly when each
// register bit has its known initial value.
func (b *Blaster) initLits() []sat.Lit {
	var out []sat.Lit
	for _, ff := range b.NL.FFs {
		g := &b.NL.Gates[ff]
		for i := 0; i < g.Init.Width(); i++ {
			switch g.Init.Bit(i) {
			case bv.One:
				out = append(out, b.Lit(0, g.Out, i))
			case bv.Zero:
				out = append(out, b.Lit(0, g.Out, i).Not())
			}
		}
	}
	return out
}

// ModelValue reads a signal value of the model after a Sat answer; bits
// never encoded read as 0. The blaster must have been built over a real
// solver (New).
func (b *Blaster) ModelValue(frame int, sig netlist.SignalID) bv.BV {
	var l []sat.Lit
	if frame < len(b.frames) {
		l = b.frames[frame][sig]
	}
	return modelValue(b.solver, b.NL.Width(sig), l, 0)
}

// modelValue reads the bits of a w-bit signal from the model, each the
// value of its literal in l moved up by off variables; with l nil,
// every bit reads as 0.
func modelValue(s *sat.Solver, w int, l []sat.Lit, off int) bv.BV {
	out := bv.NewX(w)
	for i := 0; i < w; i++ {
		v := bv.Zero
		if l != nil && s.ModelValue(l[i].Var()+off) != l[i].Neg() {
			v = bv.One
		}
		out = out.WithBit(i, v)
	}
	return out
}
