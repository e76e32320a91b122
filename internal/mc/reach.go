package mc

import (
	"slices"

	"repro/internal/bdd"
	"repro/internal/bv"
	"repro/internal/netlist"
)

// reachNodes is the node budget of one register's image: past it the
// register gets no machine.
const reachNodes = 1 << 18

// RegisterReach images one register on its own (Cho, Hachtel, Macii,
// Plessier, Somenzi, "Algorithms for Approximate FSM Traversal Based on
// State Space Decomposition", IEEE TCAD 1996). The model is the
// register's next-state cone alone: the register's current/next bit
// pairs interleaved with the cone's other leaves — flip-flops and
// primary inputs — which stay free, as do a constant's x bits and a mux
// whose select is past its data list, each given fresh variables. From
// the reset value, every image quantifies everything but the register.
//
// levels[f] lists the values first reachable at frame f; the frame
// after the last adds nothing. Because the model leaves free everything
// the design constrains, the values of levels[0..f] include every value
// the register can hold f steps after reset in the design. ok is false
// when the register's reset value is not fully known, the reachable set
// grows past maxValues or covers every value of the register, or the
// image exceeds its node budget: such a register restricts nothing.
func RegisterReach(nl *netlist.Netlist, ff netlist.GateID, maxValues int) (levels [][]bv.BV, ok bool) {
	g := &nl.Gates[ff]
	w := nl.Width(g.Out)
	if !g.Init.IsFullyKnown() {
		return nil, false
	}
	limit := maxValues
	if w < 63 && uint64(1)<<uint(w) <= uint64(limit) {
		limit = 1<<uint(w) - 1
	}
	defer func() {
		if r := recover(); r != nil {
			if r != bdd.ErrNodeLimit {
				panic(r)
			}
			levels, ok = nil, false
		}
	}()
	gates, leaves := nextStateCone(nl, ff)
	widths := make([]int, len(leaves))
	for k, s := range leaves {
		widths[k] = nl.Width(s)
	}
	lay := interleave(w, widths)
	m := bdd.New(lay.nVars)
	m.MaxNodes = reachNodes
	funcs := map[netlist.SignalID][]bdd.Ref{g.Out: vars(m, lay.curOf)}
	free := map[netlist.SignalID][]bdd.Ref{}
	for k, s := range leaves {
		if d := nl.Signals[s].Driver; d != netlist.None && nl.Gates[d].Kind != netlist.KDff {
			free[s] = vars(m, lay.leafOf[k]) // a gate's fresh x bits
		} else {
			funcs[s] = vars(m, lay.leafOf[k])
		}
	}
	blastGates(m, nl, gates, funcs, free)
	mo := newModel(m, lay, []bdd.Ref{conjoinTree(m, constraints(m, lay, funcs[g.In[0]]))})

	// The image distributes over union, so each step images only the
	// values the previous one added.
	reached := conjoinInit(m, bdd.True, g.Init, lay.curOf)
	added := reached
	levels = [][]bv.BV{{g.Init}}
	for n := 1; ; {
		next := m.Or(reached, mo.image(m, added, bdd.True, nil))
		if next == reached {
			return levels, true
		}
		added = m.And(next, m.Not(reached))
		vals, ok := values(m, added, lay.curOf, limit-n)
		if !ok {
			return nil, false
		}
		levels = append(levels, vals)
		n += len(vals)
		reached = next
	}
}

// conjoinTree conjoins cs pairwise, level by level. A left fold's
// running conjunction is a new function at every step, and none is
// ever freed: imaging the 96-bit token ring ends at 163k nodes through
// a fold, 103k through the tree. The whole-design model's clusters are
// no better here: imaged over them, the ring also ends at 163k nodes
// and takes twice as long.
func conjoinTree(m *bdd.Manager, cs []bdd.Ref) bdd.Ref {
	for len(cs) > 1 {
		next := cs[:0]
		for i := 0; i < len(cs); i += 2 {
			if i+1 < len(cs) {
				next = append(next, m.And(cs[i], cs[i+1]))
			} else {
				next = append(next, cs[i])
			}
		}
		cs = next
	}
	return cs[0]
}

// nextStateCone returns the gates of register ff's next-state cone in
// topological order, and its leaves in ascending signal order: the
// flip-flop outputs (other than ff's own) and primary inputs it reads,
// and the outputs of its gates that can be x whatever their inputs
// (netlist.CanBeX).
func nextStateCone(nl *netlist.Netlist, ff netlist.GateID) (gates []netlist.GateID, leaves []netlist.SignalID) {
	q := nl.Gates[ff].Out
	seen := map[netlist.SignalID]bool{q: true}
	// Iterative post-order walk over the fanin: a gate is emitted once
	// all of its inputs have been.
	type frame struct {
		sig  netlist.SignalID
		next int
	}
	stack := []frame{{sig: nl.Gates[ff].In[0]}}
	if seen[stack[0].sig] {
		return nil, nil
	}
	seen[stack[0].sig] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		d := nl.Signals[top.sig].Driver
		if d == netlist.None || nl.Gates[d].Kind == netlist.KDff {
			leaves = append(leaves, top.sig)
			stack = stack[:len(stack)-1]
			continue
		}
		g := &nl.Gates[d]
		if top.next < len(g.In) {
			in := g.In[top.next]
			top.next++
			if !seen[in] {
				seen[in] = true
				stack = append(stack, frame{sig: in})
			}
			continue
		}
		gates = append(gates, d)
		if nl.CanBeX(g) {
			leaves = append(leaves, g.Out)
		}
		stack = stack[:len(stack)-1]
	}
	slices.Sort(leaves)
	return gates, leaves
}

// values lists the assignments of f over the current-state variables
// cur (bit i is cur[i]) as fully-known vectors; ok is false when there
// are more than limit.
func values(m *bdd.Manager, f bdd.Ref, cur []int, limit int) (out []bv.BV, ok bool) {
	w := len(cur)
	ok = true
	m.Minterms(f, cur, func(bits []bool) bool {
		if len(out) == limit {
			ok = false
			return false
		}
		var v bv.BV
		for lo := 0; lo < w; lo += 64 {
			n := min(64, w-lo)
			var word uint64
			for i := 0; i < n; i++ {
				if bits[lo+i] {
					word |= 1 << uint(i)
				}
			}
			if lo == 0 {
				v = bv.FromUint64(n, word)
			} else {
				v = bv.Concat(bv.FromUint64(n, word), v)
			}
		}
		out = append(out, v)
		return true
	})
	return out, ok
}
