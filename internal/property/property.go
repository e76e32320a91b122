// Package property expresses RTL assertion (safety) properties and
// converts them into the counter-example-generation constraints the
// ATPG engine solves (§2): the assertion is inverted and translated
// into value requirements at different time frames.
//
// A property is represented structurally: a one-bit monitor signal is
// synthesized into the netlist. For an invariant the monitor must be 1
// in every reachable cycle (a counterexample drives it to 0); for a
// witness obligation the goal is a trace driving the monitor to 1.
// Environmental setup (§2) — one-hot input constraints, clock idioms —
// is expressed the same way: assumption monitors constrained to 1 in
// every frame.
package property

import (
	"fmt"

	"repro/internal/netlist"
)

// Kind distinguishes assertions from witness obligations.
type Kind uint8

// Property kinds.
const (
	// Invariant asserts the monitor is 1 in all reachable states.
	Invariant Kind = iota
	// Witness asks for a trace driving the monitor to 1.
	Witness
)

func (k Kind) String() string {
	if k == Invariant {
		return "invariant"
	}
	return "witness"
}

// Property is one verification obligation over a netlist.
type Property struct {
	Name    string
	Kind    Kind
	Monitor netlist.SignalID
	// Assumes lists one-bit environment-constraint signals that must
	// be 1 in every frame (environmental setup, §2).
	Assumes []netlist.SignalID
}

// NewInvariant wraps an existing one-bit signal as an invariant.
func NewInvariant(nl *netlist.Netlist, name string, monitor netlist.SignalID) (Property, error) {
	if nl.Width(monitor) != 1 {
		return Property{}, fmt.Errorf("property: monitor %q must be 1 bit", nl.Signals[monitor].Name)
	}
	return Property{Name: name, Kind: Invariant, Monitor: monitor}, nil
}

// NewWitness wraps an existing one-bit signal as a witness target.
func NewWitness(nl *netlist.Netlist, name string, target netlist.SignalID) (Property, error) {
	if nl.Width(target) != 1 {
		return Property{}, fmt.Errorf("property: target %q must be 1 bit", nl.Signals[target].Name)
	}
	return Property{Name: name, Kind: Witness, Monitor: target}, nil
}

// WithAssume adds environment constraints (must-be-1 signals).
func (p Property) WithAssume(sigs ...netlist.SignalID) Property {
	p.Assumes = append(append([]netlist.SignalID(nil), p.Assumes...), sigs...)
	return p
}

// FromNames builds properties from named one-bit signals: each
// invariant name asserts the signal is always 1, each witness name
// asks for a trace driving it to 1. Property names are the signal
// names; the output order is invariants then witnesses, each in input
// order — the order batch results come back in. Shared by the
// assertcheck CLI and the assertd serving front end so the two agree
// on what a request means.
func FromNames(nl *netlist.Netlist, invariants, witnesses []string) ([]Property, error) {
	var props []Property
	add := func(names []string, kind Kind) error {
		for _, name := range names {
			sig, ok := nl.SignalByName(name)
			if !ok {
				return fmt.Errorf("property: no signal %q in %s", name, nl.Name)
			}
			var p Property
			var err error
			if kind == Invariant {
				p, err = NewInvariant(nl, name, sig)
			} else {
				p, err = NewWitness(nl, name, sig)
			}
			if err != nil {
				return err
			}
			props = append(props, p)
		}
		return nil
	}
	if err := add(invariants, Invariant); err != nil {
		return nil, err
	}
	if err := add(witnesses, Witness); err != nil {
		return nil, err
	}
	return props, nil
}

// Builder synthesizes monitor logic into a netlist.
type Builder struct {
	NL *netlist.Netlist
}

// AtMostOne returns a monitor that is 1 iff at most one of the one-bit
// signals is 1 (the paper's p2: never two address lines selected).
func (b Builder) AtMostOne(sigs ...netlist.SignalID) netlist.SignalID {
	n := b.NL
	var anyPair netlist.SignalID = netlist.None
	for i := 0; i < len(sigs); i++ {
		for j := i + 1; j < len(sigs); j++ {
			pair := n.Binary(netlist.KAnd, sigs[i], sigs[j])
			if anyPair == netlist.None {
				anyPair = pair
			} else {
				anyPair = n.Binary(netlist.KOr, anyPair, pair)
			}
		}
	}
	if anyPair == netlist.None {
		return n.ConstUint(1, 1)
	}
	return n.Unary(netlist.KNot, anyPair)
}

// AtMostOneBus is AtMostOne over the bits of a bus. For wide buses it
// uses the word-level form popcount-free form: bus & (bus-1) == 0.
func (b Builder) AtMostOneBus(bus netlist.SignalID) netlist.SignalID {
	n := b.NL
	w := n.Width(bus)
	one := n.ConstUint(w, 1)
	dec := n.Binary(netlist.KSub, bus, one)
	and := n.Binary(netlist.KAnd, bus, dec)
	zero := n.ConstUint(w, 0)
	return n.Binary(netlist.KEq, and, zero)
}

// ExactlyOneBus returns a monitor for one-hot bus values (p3, p5).
func (b Builder) ExactlyOneBus(bus netlist.SignalID) netlist.SignalID {
	n := b.NL
	some := n.Unary(netlist.KRedOr, bus)
	return n.Binary(netlist.KAnd, b.AtMostOneBus(bus), some)
}

// NeverValue returns a monitor that is 1 while bus != value (p9: the
// hour display never shows 13).
func (b Builder) NeverValue(bus netlist.SignalID, value uint64) netlist.SignalID {
	n := b.NL
	return n.Binary(netlist.KNe, bus, n.ConstUint(n.Width(bus), value))
}

// Reaches returns a witness target that is 1 when bus == value (p8:
// bring the hour display to 2).
func (b Builder) Reaches(bus netlist.SignalID, value uint64) netlist.SignalID {
	n := b.NL
	return n.Binary(netlist.KEq, bus, n.ConstUint(n.Width(bus), value))
}

// NoBusContention returns the tri-state bus contention monitor of p11–
// p13: the enable signals must be one-hot-or-zero, or whenever two
// enables are active their driven data values must be consensus
// (identical).
func (b Builder) NoBusContention(enables []netlist.SignalID, datas []netlist.SignalID) netlist.SignalID {
	if len(enables) != len(datas) {
		panic("property: enables/datas length mismatch")
	}
	n := b.NL
	var ok netlist.SignalID = n.ConstUint(1, 1)
	for i := 0; i < len(enables); i++ {
		for j := i + 1; j < len(enables); j++ {
			both := n.Binary(netlist.KAnd, enables[i], enables[j])
			differ := n.Binary(netlist.KNe, datas[i], datas[j])
			bad := n.Binary(netlist.KAnd, both, differ)
			ok = n.Binary(netlist.KAnd, ok, n.Unary(netlist.KNot, bad))
		}
	}
	return ok
}

// Implies returns a monitor for a -> b.
func (b Builder) Implies(a, c netlist.SignalID) netlist.SignalID {
	n := b.NL
	return n.Binary(netlist.KOr, n.Unary(netlist.KNot, a), c)
}

// Equals returns bus == const value as a 1-bit signal.
func (b Builder) Equals(bus netlist.SignalID, value uint64) netlist.SignalID {
	n := b.NL
	return n.Binary(netlist.KEq, bus, n.ConstUint(n.Width(bus), value))
}

// DontCareUnreachable builds the monitor for internal don't-care
// validation (p10, p14): the recorded don't-care condition signal must
// never be active; the monitor is its negation.
func (b Builder) DontCareUnreachable(dontCare netlist.SignalID) netlist.SignalID {
	return b.NL.Unary(netlist.KNot, dontCare)
}

// SignalByName resolves a monitor by hierarchical name.
func (b Builder) SignalByName(name string) (netlist.SignalID, error) {
	s, ok := b.NL.SignalByName(name)
	if !ok {
		return 0, fmt.Errorf("property: no signal %q", name)
	}
	return s, nil
}

// InRange builds the one-bit signal lo <= bus <= hi (unsigned), a
// building block for structured invariants.
func (b Builder) InRange(bus netlist.SignalID, lo, hi uint64) netlist.SignalID {
	n := b.NL
	w := n.Width(bus)
	ge := n.Binary(netlist.KGe, bus, n.ConstUint(w, lo))
	le := n.Binary(netlist.KLe, bus, n.ConstUint(w, hi))
	return n.Binary(netlist.KAnd, ge, le)
}
