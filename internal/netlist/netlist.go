// Package netlist defines the word-level RTL netlist the checker
// operates on (paper §1–§2): an interconnection of high-level
// primitives — Boolean gates, arithmetic units, comparators
// (data-to-control), multiplexors (control-to-data) and memory elements
// (flip-flops). The circuit is viewed as control and datapath portions
// with datapath-selecting (mux select) and comparison-output signals as
// the interface between them.
//
// Registers with enables or asynchronous set/reset are modeled
// structurally: the elaborator synthesizes hold/reset multiplexors in
// front of a plain D flip-flop, so the paper's register implication
// rules (§3.1 "Registers/Flip-flops") are subsumed by the multiplexor
// implication rules.
package netlist

import (
	"fmt"

	"repro/internal/bv"
)

// SignalID identifies a signal (net) in the netlist.
type SignalID int32

// GateID identifies a gate.
type GateID int32

// None marks the absence of a signal or gate.
const None = -1

// Kind enumerates the high-level primitives.
type Kind uint8

// Gate kinds. Bitwise gates operate per-bit on equal-width buses;
// arithmetic is unsigned modulo 2^width; comparators are unsigned and
// produce a single control bit.
const (
	KConst Kind = iota
	KBuf
	KNot
	KAnd
	KOr
	KXor
	KNand
	KNor
	KXnor
	KRedAnd // reduction AND: bus -> 1 bit
	KRedOr
	KRedXor
	KAdd
	KSub
	KMul
	KShl
	KShr
	KEq
	KNe
	KLt
	KGt
	KLe
	KGe
	KMux    // In[0] = select, In[1..] = data inputs (data[sel])
	KConcat // In[0] is most significant, Verilog {a, b, ...} order
	KSlice  // out = In[0][Hi:Lo]
	KZext   // zero-extend or truncate to the output width
	KDff    // out is the register output; In[0] is the next-state data
)

var kindNames = [...]string{
	"const", "buf", "not", "and", "or", "xor", "nand", "nor", "xnor",
	"redand", "redor", "redxor", "add", "sub", "mul", "shl", "shr",
	"eq", "ne", "lt", "gt", "le", "ge", "mux", "concat", "slice", "zext", "dff",
}

// String returns the lowercase mnemonic of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsArith reports whether the gate is an arithmetic (datapath) unit
// whose constraints belong to the modular arithmetic solver.
func (k Kind) IsArith() bool {
	switch k {
	case KAdd, KSub, KMul, KShl, KShr:
		return true
	}
	return false
}

// IsComparator reports whether the gate translates datapath values into
// a control bit.
func (k Kind) IsComparator() bool {
	switch k {
	case KEq, KNe, KLt, KGt, KLe, KGe:
		return true
	}
	return false
}

// IsBitwise reports whether the gate is a per-bit Boolean gate.
func (k Kind) IsBitwise() bool {
	switch k {
	case KBuf, KNot, KAnd, KOr, KXor, KNand, KNor, KXnor:
		return true
	}
	return false
}

// Signal is a named net of a fixed bit width.
type Signal struct {
	Name   string
	Width  int
	Driver GateID // None for primary inputs
	Fanout []GateID
}

// Gate is one primitive instance.
type Gate struct {
	Kind Kind
	In   []SignalID
	Out  SignalID
	// Const holds the value of a KConst gate.
	Const bv.BV
	// Hi, Lo bound a KSlice.
	Hi, Lo int
	// Init is the initial (reset-time) value of a KDff; unknown bits
	// mean an uninitialized register.
	Init bv.BV
}

// Netlist is a flattened RTL design.
type Netlist struct {
	Name    string
	Signals []Signal
	Gates   []Gate
	// PIs are the primary inputs in declaration order.
	PIs []SignalID
	// POs maps output names to signals.
	POs map[string]SignalID
	// FFs lists all KDff gates.
	FFs []GateID

	byName map[string]SignalID
	topo   []GateID // cached combinational topological order
}

// New returns an empty netlist.
func New(name string) *Netlist {
	return &Netlist{Name: name, POs: map[string]SignalID{}, byName: map[string]SignalID{}}
}

// NumSignals returns the number of signals.
func (n *Netlist) NumSignals() int { return len(n.Signals) }

// NumGates returns the number of gates.
func (n *Netlist) NumGates() int { return len(n.Gates) }

// Width returns the width of signal s.
func (n *Netlist) Width(s SignalID) int { return n.Signals[s].Width }

// SignalByName finds a signal by name.
func (n *Netlist) SignalByName(name string) (SignalID, bool) {
	s, ok := n.byName[name]
	return s, ok
}

// addSignal creates a new signal. An unnamed signal gets the automatic
// name n<id>. A design's own name takes precedence: an automatic name
// that one already has, or that one claims later, gets a trailing '.
func (n *Netlist) addSignal(name string, width int) SignalID {
	if width <= 0 {
		panic(fmt.Sprintf("netlist: signal %q with width %d", name, width))
	}
	id := SignalID(len(n.Signals))
	automatic := name == ""
	if automatic {
		name = fmt.Sprintf("n%d", id)
	}
	if old, dup := n.byName[name]; dup {
		switch {
		case automatic:
			name += "'"
		case n.Signals[old].Name == fmt.Sprintf("n%d", old):
			n.Signals[old].Name += "'"
			n.byName[n.Signals[old].Name] = old
		default:
			panic(fmt.Sprintf("netlist: duplicate signal name %q", name))
		}
	}
	n.Signals = append(n.Signals, Signal{Name: name, Width: width, Driver: None})
	n.byName[name] = id
	return id
}

// AddInput declares a primary input.
func (n *Netlist) AddInput(name string, width int) SignalID {
	s := n.addSignal(name, width)
	n.PIs = append(n.PIs, s)
	return s
}

// MarkOutput names signal s as a primary output.
func (n *Netlist) MarkOutput(name string, s SignalID) {
	n.POs[name] = s
}

// addGate wires a gate driving a fresh signal of the given width.
func (n *Netlist) addGate(g Gate, outName string, outWidth int) SignalID {
	out := n.addSignal(outName, outWidth)
	g.Out = out
	id := GateID(len(n.Gates))
	n.Gates = append(n.Gates, g)
	n.Signals[out].Driver = id
	for _, in := range g.In {
		n.Signals[in].Fanout = append(n.Signals[in].Fanout, id)
	}
	if g.Kind == KDff {
		n.FFs = append(n.FFs, id)
	}
	n.topo = nil
	return out
}

// Const adds a constant gate.
func (n *Netlist) Const(v bv.BV) SignalID {
	return n.addGate(Gate{Kind: KConst, Const: v}, "", v.Width())
}

// ConstUint adds a fully-known constant of the given width.
func (n *Netlist) ConstUint(width int, v uint64) SignalID {
	return n.Const(bv.FromUint64(width, v))
}

// Unary adds a one-input gate (KBuf, KNot, reductions).
func (n *Netlist) Unary(k Kind, a SignalID) SignalID {
	w := n.Width(a)
	switch k {
	case KBuf, KNot:
	case KRedAnd, KRedOr, KRedXor:
		w = 1
	default:
		panic("netlist: Unary on non-unary kind " + k.String())
	}
	return n.addGate(Gate{Kind: k, In: []SignalID{a}}, "", w)
}

// Binary adds a two-input gate. Bitwise and arithmetic kinds require
// equal widths (use Zext to align); comparators produce one bit.
func (n *Netlist) Binary(k Kind, a, b SignalID) SignalID {
	wa, wb := n.Width(a), n.Width(b)
	var w int
	switch {
	case k.IsBitwise() || k == KAdd || k == KSub || k == KMul:
		if wa != wb {
			panic(fmt.Sprintf("netlist: %s width mismatch %d vs %d", k, wa, wb))
		}
		w = wa
	case k == KShl || k == KShr:
		w = wa
	case k.IsComparator():
		if wa != wb {
			panic(fmt.Sprintf("netlist: %s width mismatch %d vs %d", k, wa, wb))
		}
		w = 1
	default:
		panic("netlist: Binary on non-binary kind " + k.String())
	}
	return n.addGate(Gate{Kind: k, In: []SignalID{a, b}}, "", w)
}

// Mux adds a multiplexor: out = data[sel], with all data inputs of
// equal width. len(data) >= 1.
func (n *Netlist) Mux(sel SignalID, data ...SignalID) SignalID {
	if len(data) == 0 {
		panic("netlist: mux with no data inputs")
	}
	w := n.Width(data[0])
	for _, d := range data {
		if n.Width(d) != w {
			panic("netlist: mux data width mismatch")
		}
	}
	in := append([]SignalID{sel}, data...)
	return n.addGate(Gate{Kind: KMux, In: in}, "", w)
}

// Concat adds {parts[0], parts[1], ...} with parts[0] most significant.
func (n *Netlist) Concat(parts ...SignalID) SignalID {
	if len(parts) == 0 {
		panic("netlist: empty concat")
	}
	w := 0
	for _, p := range parts {
		w += n.Width(p)
	}
	return n.addGate(Gate{Kind: KConcat, In: append([]SignalID(nil), parts...)}, "", w)
}

// Slice adds out = a[hi:lo].
func (n *Netlist) Slice(a SignalID, hi, lo int) SignalID {
	if lo < 0 || hi < lo || hi >= n.Width(a) {
		panic(fmt.Sprintf("netlist: bad slice [%d:%d] of %d-bit signal", hi, lo, n.Width(a)))
	}
	return n.addGate(Gate{Kind: KSlice, In: []SignalID{a}, Hi: hi, Lo: lo}, "", hi-lo+1)
}

// Zext adds a zero-extension (or truncation) of a to width w.
func (n *Netlist) Zext(a SignalID, w int) SignalID {
	return n.addGate(Gate{Kind: KZext, In: []SignalID{a}}, "", w)
}

// Dff adds a D flip-flop with the given next-state input and initial
// value (width must match; unknown init bits model uninitialized
// registers). The returned signal is the register output Q.
func (n *Netlist) Dff(d SignalID, init bv.BV, name string) SignalID {
	if init.Width() != n.Width(d) {
		panic("netlist: dff init width mismatch")
	}
	return n.addGate(Gate{Kind: KDff, In: []SignalID{d}, Init: init}, name, n.Width(d))
}

// DffPlaceholder creates a flip-flop whose data input is connected
// later via ConnectDff — needed for feedback loops.
func (n *Netlist) DffPlaceholder(width int, init bv.BV, name string) SignalID {
	if init.Width() != width {
		panic("netlist: dff init width mismatch")
	}
	return n.addGate(Gate{Kind: KDff, In: []SignalID{}, Init: init}, name, width)
}

// ConnectDff wires the data input of a placeholder flip-flop.
func (n *Netlist) ConnectDff(q SignalID, d SignalID) {
	g := n.Signals[q].Driver
	if g == None || n.Gates[g].Kind != KDff {
		panic("netlist: ConnectDff on non-dff signal")
	}
	if len(n.Gates[g].In) != 0 {
		panic("netlist: dff already connected")
	}
	if n.Width(d) != n.Width(q) {
		panic("netlist: ConnectDff width mismatch")
	}
	n.Gates[g].In = []SignalID{d}
	n.Signals[d].Fanout = append(n.Signals[d].Fanout, g)
	n.topo = nil
}

// Buf adds a named buffer — used to give internal nets stable names.
func (n *Netlist) NamedBuf(name string, a SignalID) SignalID {
	return n.addGate(Gate{Kind: KBuf, In: []SignalID{a}}, name, n.Width(a))
}

// Validate checks structural invariants: all gates fully connected,
// widths consistent, no combinational cycles. It returns the first
// problem found.
func (n *Netlist) Validate() error {
	for gi, g := range n.Gates {
		if g.Kind == KDff && len(g.In) != 1 {
			return fmt.Errorf("gate %d: dff with %d inputs", gi, len(g.In))
		}
		for _, in := range g.In {
			if in < 0 || int(in) >= len(n.Signals) {
				return fmt.Errorf("gate %d: dangling input", gi)
			}
		}
	}
	if _, err := n.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns the combinational gates in topological order
// (flip-flop outputs and primary inputs are sources; KDff gates are
// excluded). It fails on a combinational cycle.
func (n *Netlist) TopoOrder() ([]GateID, error) {
	if n.topo != nil {
		return n.topo, nil
	}
	state := make([]uint8, len(n.Gates)) // 0 unvisited, 1 visiting, 2 done
	var order []GateID
	var visit func(g GateID) error
	visit = func(g GateID) error {
		switch state[g] {
		case 1:
			return fmt.Errorf("netlist: combinational cycle through gate %d (%s)", g, n.Gates[g].Kind)
		case 2:
			return nil
		}
		state[g] = 1
		for _, in := range n.Gates[g].In {
			d := n.Signals[in].Driver
			if d != None && n.Gates[d].Kind != KDff {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[g] = 2
		order = append(order, g)
		return nil
	}
	for gi := range n.Gates {
		if n.Gates[gi].Kind == KDff {
			continue
		}
		if err := visit(GateID(gi)); err != nil {
			return nil, err
		}
	}
	n.topo = order
	return order, nil
}

// Stats summarizes the netlist in the shape of the paper's Table 1.
// Gates counts word-level primitives (the paper notes that word-level
// netlists are much smaller than Boolean gate counts); FFs, Ins and
// Outs count bits.
type Stats struct {
	Gates, FFs, Ins, Outs int
	// ControlSignals and the gate-class counts describe the
	// control/datapath split the two-phase solver relies on.
	ControlSignals, ArithGates, Comparators, Muxes int
}

// Stats computes summary statistics.
func (n *Netlist) Stats() Stats {
	st := Stats{Gates: len(n.Gates)}
	for _, ff := range n.FFs {
		st.FFs += n.Width(n.Gates[ff].Out)
	}
	for _, pi := range n.PIs {
		st.Ins += n.Width(pi)
	}
	for _, po := range n.POs {
		st.Outs += n.Width(po)
	}
	for _, s := range n.Signals {
		if s.Width == 1 {
			st.ControlSignals++
		}
	}
	for _, g := range n.Gates {
		switch {
		case g.Kind.IsArith():
			st.ArithGates++
		case g.Kind.IsComparator():
			st.Comparators++
		case g.Kind == KMux:
			st.Muxes++
		}
	}
	return st
}
