// Package fsm implements the paper's §6 proposal: "there are usually
// many local finite state machines in the design and the transition
// relationship for each individual machine is usually very easy to
// extract ... storing the local state transition graph and using them
// to guide the ATPG justification process can avoid entering illegal
// states".
//
// A local FSM is a register with a fully-known reset value, imaged on
// its own by mc.RegisterReach: a BDD of the register's next-state cone,
// with every other flip-flop and input in the cone left free, is imaged
// from the reset value with everything but the register quantified,
// until the fixpoint (Cho et al., "Algorithms for Approximate FSM
// Traversal Based on State Space Decomposition", TCAD 1996). This is
// sound: the design constrains the free leaves, the image does not, so
// the values it reaches within f steps include every value the register
// can hold f steps after reset in the design. Constant x bits and mux
// selects past the data list, which the three-valued semantics leave
// unknown, get fresh free variables too, so no value they allow is
// lost. The sets are exact for that model at any width: a 96-bit
// one-hot token has its 96 values. The ATPG engine consults the
// per-frame sets to reject assignments that would enter unreachable
// ("illegal") states, and the induction pre-check and steps use the
// fixpoint as a strengthening invariant.
package fsm

import (
	"sort"

	"repro/internal/bv"
	"repro/internal/mc"
	"repro/internal/netlist"
)

// maxStates caps a machine's reachable set: a register that reaches
// more values gets no machine.
const maxStates = 1024

// Machine is one extracted local FSM.
type Machine struct {
	FF    netlist.GateID
	Q     netlist.SignalID
	Width int
	// Values is the reachable set in ascending order, and First[k] the
	// frame at which Values[k] is first reachable: the values
	// reachable within f steps of reset are those with First <= f.
	Values []bv.BV
	First  []int
	// Frames is the number of frames imaged, the last of which reached
	// no new value.
	Frames int
}

// AllowedAt reports whether value v is in the reachable set within
// frame steps of reset.
func (m *Machine) AllowedAt(frame int, v bv.BV) bool {
	k := sort.Search(len(m.Values), func(k int) bool { return m.Values[k].Cmp(v) >= 0 })
	return k < len(m.Values) && m.Values[k].Equal(v) && m.First[k] <= frame
}

// AllowedEver reports whether v is reachable at any depth.
func (m *Machine) AllowedEver(v bv.BV) bool { return m.AllowedAt(m.Frames, v) }

// FeasibleIn reports whether any value reachable within frame steps
// lies inside the cube — the engine-side domain check, pruning partial
// assignments that can no longer complete to a reachable state.
func (m *Machine) FeasibleIn(frame int, cube bv.BV) bool {
	for k, v := range m.Values {
		if m.First[k] <= frame && cube.Covers(v) {
			return true
		}
	}
	return false
}

// EnumerateIn calls fn for each value reachable within frame steps
// that lies inside the cube, in ascending order, until fn returns
// false.
func (m *Machine) EnumerateIn(frame int, cube bv.BV, fn func(v bv.BV) bool) {
	for k, v := range m.Values {
		if m.First[k] <= frame && cube.Covers(v) && !fn(v) {
			return
		}
	}
}

// FeasibleEver is FeasibleIn against the fixpoint set.
func (m *Machine) FeasibleEver(cube bv.BV) bool { return m.FeasibleIn(m.Frames, cube) }

// Extract images every register with a fully-known reset value and
// returns the machines whose reachable sets restrict its value space,
// in flip-flop order.
func Extract(nl *netlist.Netlist) ([]*Machine, error) {
	if _, err := nl.TopoOrder(); err != nil {
		return nil, err
	}
	var out []*Machine
	for _, ff := range nl.FFs {
		levels, ok := mc.RegisterReach(nl, ff, maxStates)
		if !ok {
			continue
		}
		m := &Machine{FF: ff, Q: nl.Gates[ff].Out, Width: nl.Width(nl.Gates[ff].Out), Frames: len(levels) + 1}
		for f, vs := range levels {
			for _, v := range vs {
				m.Values = append(m.Values, v)
				m.First = append(m.First, f)
			}
		}
		sort.Sort(byValue{m})
		out = append(out, m)
	}
	return out, nil
}

// byValue sorts a machine's values ascending, keeping First aligned.
type byValue struct{ *Machine }

func (b byValue) Len() int           { return len(b.Values) }
func (b byValue) Less(i, j int) bool { return b.Values[i].Cmp(b.Values[j]) < 0 }
func (b byValue) Swap(i, j int) {
	b.Values[i], b.Values[j] = b.Values[j], b.Values[i]
	b.First[i], b.First[j] = b.First[j], b.First[i]
}
