package netlist

// Cone copies the sequential cone of influence of the roots into a
// netlist of its own: every signal in their transitive fanin,
// following flip-flop next-state inputs, with the gates that drive
// them. Signals, gates, inputs and flip-flops keep their relative
// order; names, widths, constants, slice bounds and register initial
// values are copied as they are, and primary outputs in the cone stay
// outputs. The second result maps each signal of n to its signal in
// the cone, None outside it.
//
// n must be free of combinational cycles (Validate). The cone's
// topological order is primed before Cone returns, so the cone, like
// a design's netlist, is only ever read after that.
func (n *Netlist) Cone(roots ...SignalID) (*Netlist, []SignalID) {
	// Mark with an explicit stack: fanin chains are as deep as the
	// design, which arrives from the network.
	in := make([]bool, len(n.Signals))
	stack := append([]SignalID(nil), roots...)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if in[s] {
			continue
		}
		in[s] = true
		if g := n.Signals[s].Driver; g != None {
			stack = append(stack, n.Gates[g].In...)
		}
	}

	c := New(n.Name)
	toCone := make([]SignalID, len(n.Signals))
	for s, sig := range n.Signals {
		toCone[s] = None
		if in[s] {
			toCone[s] = SignalID(len(c.Signals))
			c.Signals = append(c.Signals, Signal{Name: sig.Name, Width: sig.Width, Driver: None})
			c.byName[sig.Name] = toCone[s]
		}
	}
	for _, g := range n.Gates {
		out := toCone[g.Out]
		if out == None {
			continue
		}
		id := GateID(len(c.Gates))
		g.Out = out
		g.In = append([]SignalID(nil), g.In...)
		for k, in := range g.In {
			g.In[k] = toCone[in]
			c.Signals[g.In[k]].Fanout = append(c.Signals[g.In[k]].Fanout, id)
		}
		c.Gates = append(c.Gates, g)
		c.Signals[out].Driver = id
		if g.Kind == KDff {
			c.FFs = append(c.FFs, id)
		}
	}
	for _, pi := range n.PIs {
		if toCone[pi] != None {
			c.PIs = append(c.PIs, toCone[pi])
		}
	}
	for name, s := range n.POs {
		if toCone[s] != None {
			c.POs[name] = toCone[s]
		}
	}
	_, _ = c.TopoOrder() // cannot fail: a cycle in the cone is one in n
	return c, toCone
}
