// Package fsm implements the paper's §6 proposal: "there are usually
// many local finite state machines in the design and the transition
// relationship for each individual machine is usually very easy to
// extract ... storing the local state transition graph and using them
// to guide the ATPG justification process can avoid entering illegal
// states".
//
// A local FSM is a narrow register with a known reset value. For each
// concrete state v the candidate successors are computed by word-level
// implication (atpg.SuccessorSet): u is a successor unless the joint
// assignment {Q = v, D = u} is refuted by propagation with everything
// else unknown. This is a sound over-approximation of the true
// transition relation — no decisions are made — yet far tighter than a
// single three-valued cube of the D input. Iterating from the reset
// value yields, per time frame, the register's reachable value set (its
// state transition graph unrolled); the fixpoint set is an invariant.
// The ATPG engine consults these sets to reject assignments that would
// enter unreachable ("illegal") states, and the k-induction step uses
// the fixpoint as a strengthening invariant.
package fsm

import (
	"sort"

	"repro/internal/atpg"
	"repro/internal/bv"
	"repro/internal/netlist"
)

// Machine is one extracted local FSM.
type Machine struct {
	FF    netlist.GateID
	Q     netlist.SignalID
	Width int
	// Succ maps each reached state to its possible successor values
	// (sound over-approximation). Only reached states are probed, so
	// wide registers with small reachable sets stay cheap.
	Succ map[uint64][]uint64
	// ReachAt[f] is the set of values reachable within f steps of the
	// initial value; ReachAt[len-1] is the fixpoint.
	ReachAt []map[uint64]bool
}

// Fixpoint returns the full reachable set (sorted).
func (m *Machine) Fixpoint() []uint64 {
	last := m.ReachAt[len(m.ReachAt)-1]
	out := make([]uint64, 0, len(last))
	for v := range last {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllowedAt reports whether value v is in the reachable set within
// frame steps of reset.
func (m *Machine) AllowedAt(frame int, v uint64) bool {
	if frame >= len(m.ReachAt) {
		frame = len(m.ReachAt) - 1
	}
	return m.ReachAt[frame][v]
}

// AllowedEver reports whether v is reachable at any depth.
func (m *Machine) AllowedEver(v uint64) bool {
	return m.ReachAt[len(m.ReachAt)-1][v]
}

// Restricts reports whether the machine actually excludes any value —
// machines that reach the full value range carry no information.
func (m *Machine) Restricts() bool {
	if m.Width >= 63 {
		return true // full range cannot have been enumerated
	}
	return len(m.ReachAt[len(m.ReachAt)-1]) < 1<<uint(m.Width)
}

// FeasibleIn reports whether any value reachable within frame steps
// lies inside the cube — the engine-side domain check, pruning partial
// assignments that can no longer complete to a reachable state.
func (m *Machine) FeasibleIn(frame int, cube bv.BV) bool {
	if frame >= len(m.ReachAt) {
		frame = len(m.ReachAt) - 1
	}
	for v := range m.ReachAt[frame] {
		if cube.Contains(v) {
			return true
		}
	}
	return false
}

// EnumerateIn calls fn for each value reachable within frame steps
// that lies inside the cube, in ascending order, until fn returns
// false.
func (m *Machine) EnumerateIn(frame int, cube bv.BV, fn func(v uint64) bool) {
	if frame >= len(m.ReachAt) {
		frame = len(m.ReachAt) - 1
	}
	set := m.ReachAt[frame]
	vals := make([]uint64, 0, len(set))
	for v := range set {
		if cube.Contains(v) {
			vals = append(vals, v)
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, v := range vals {
		if !fn(v) {
			return
		}
	}
}

// FeasibleEver is FeasibleIn against the fixpoint set.
func (m *Machine) FeasibleEver(cube bv.BV) bool {
	return m.FeasibleIn(len(m.ReachAt)-1, cube)
}

// Options bounds extraction.
type Options struct {
	// MaxWidth bounds the register width considered (default 64; the
	// limiting factor is MaxStates, not the width — wide one-hot
	// rotators and counters have tiny reachable sets).
	MaxWidth int
	// MaxStates caps the reachable-set size; a machine exceeding it is
	// dropped (default 1024).
	MaxStates int
	// MaxCands caps per-state successor candidates (default 256).
	MaxCands int
}

func (o Options) withDefaults() Options {
	if o.MaxWidth == 0 {
		o.MaxWidth = 64
	}
	if o.MaxStates == 0 {
		o.MaxStates = 1024
	}
	if o.MaxCands == 0 {
		o.MaxCands = 256
	}
	return o
}

// Extract analyses every narrow register with a fully-known initial
// value and returns the machines whose reachable sets actually restrict
// the value space.
func Extract(nl *netlist.Netlist, opts Options) ([]*Machine, error) {
	opts = opts.withDefaults()
	if _, err := nl.TopoOrder(); err != nil {
		return nil, err
	}
	var out []*Machine
	for _, ff := range nl.FFs {
		g := &nl.Gates[ff]
		w := nl.Width(g.Out)
		if w > opts.MaxWidth || !g.Init.IsFullyKnown() {
			continue
		}
		m := extractOne(nl, ff, opts)
		if m != nil && m.Restricts() {
			out = append(out, m)
		}
	}
	return out, nil
}

// extractOne builds the state transition graph of one register via
// implication probing, lazily: only reached states are probed, so the
// cost scales with the reachable set, not 2^width. Returns nil when a
// probe yields no information (too many candidates), or as soon as the
// reachable set exceeds the budget or covers the whole value range:
// reachable sets only grow, so such a machine could never restrict.
func extractOne(nl *netlist.Netlist, ff netlist.GateID, opts Options) *Machine {
	g := &nl.Gates[ff]
	q := g.Out
	w := nl.Width(q)
	m := &Machine{FF: ff, Q: q, Width: w, Succ: map[uint64][]uint64{}}
	limit := opts.MaxStates
	if w < 63 && uint64(1)<<uint(w) <= uint64(limit) {
		limit = 1<<uint(w) - 1
	}
	init, _ := g.Init.Uint64()
	cur := map[uint64]bool{init: true}
	m.ReachAt = append(m.ReachAt, cur)
	for {
		next := make(map[uint64]bool, len(cur))
		for v := range cur {
			next[v] = true
			succ, ok := m.Succ[v]
			if !ok {
				succ = atpg.SuccessorSet(nl, ff, v, opts.MaxCands)
				if succ == nil {
					return nil // next state too free: no information
				}
				m.Succ[v] = succ
			}
			for _, u := range succ {
				next[u] = true
			}
			if len(next) > limit {
				return nil
			}
		}
		m.ReachAt = append(m.ReachAt, next)
		if len(next) == len(cur) {
			return m
		}
		cur = next
		if len(m.ReachAt) > opts.MaxStates+1 {
			return m
		}
	}
}
