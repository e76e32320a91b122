// Package sim is a three-valued cycle-level simulator for word-level
// netlists. The checker uses it to validate generated counterexamples
// (a trace is replayed and the assertion monitor observed — the "watch
// points" of §3.2), and the test suite uses it as the reference
// semantics that the ATPG implication engine must agree with.
package sim

import (
	"fmt"

	"repro/internal/bv"
	"repro/internal/netlist"
)

// Simulator holds the state of one simulation run. Flip-flops start at
// their declared initial values; primary inputs start all-x until set.
type Simulator struct {
	n     *netlist.Netlist
	topo  []netlist.GateID
	vals  []bv.BV
	inBuf []bv.BV // scratch gate-input buffer reused by Eval
	ffBuf []bv.BV // scratch next-state buffer reused by Step
}

// New returns a simulator in the initial state. It fails if the
// netlist has combinational cycles.
func New(n *netlist.Netlist) (*Simulator, error) {
	topo, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	maxArity := 0
	for gi := range n.Gates {
		if a := len(n.Gates[gi].In); a > maxArity {
			maxArity = a
		}
	}
	s := &Simulator{n: n, topo: topo, inBuf: make([]bv.BV, maxArity), ffBuf: make([]bv.BV, len(n.FFs))}
	s.Reset()
	return s, nil
}

// Reset restores the initial state: registers to their init values,
// inputs to all-x.
func (s *Simulator) Reset() {
	if s.vals == nil {
		s.vals = make([]bv.BV, s.n.NumSignals())
	}
	for i := range s.vals {
		s.vals[i] = bv.NewX(s.n.Signals[i].Width)
	}
	for _, ff := range s.n.FFs {
		g := &s.n.Gates[ff]
		s.vals[g.Out] = g.Init
	}
}

// SetRegister overrides the current value of a flip-flop output —
// used to replay counterexamples that start from a specific completion
// of an uninitialized register.
func (s *Simulator) SetRegister(sig netlist.SignalID, v bv.BV) error {
	d := s.n.Signals[sig].Driver
	if d == netlist.None || s.n.Gates[d].Kind != netlist.KDff {
		return fmt.Errorf("sim: signal %q is not a register output", s.n.Signals[sig].Name)
	}
	if v.Width() != s.n.Width(sig) {
		return fmt.Errorf("sim: width mismatch on %q", s.n.Signals[sig].Name)
	}
	s.vals[sig] = v
	return nil
}

// SetInput assigns a primary input for the current cycle.
func (s *Simulator) SetInput(sig netlist.SignalID, v bv.BV) error {
	if s.n.Signals[sig].Driver != netlist.None {
		return fmt.Errorf("sim: signal %q is not a primary input", s.n.Signals[sig].Name)
	}
	if v.Width() != s.n.Width(sig) {
		return fmt.Errorf("sim: width mismatch on %q", s.n.Signals[sig].Name)
	}
	s.vals[sig] = v
	return nil
}

// SetInputName assigns a primary input by name.
func (s *Simulator) SetInputName(name string, v bv.BV) error {
	sig, ok := s.n.SignalByName(name)
	if !ok {
		return fmt.Errorf("sim: no signal %q", name)
	}
	return s.SetInput(sig, v)
}

// Eval propagates the current inputs and register outputs through the
// combinational logic, leaving results readable via Get. It does not
// advance the clock.
func (s *Simulator) Eval() {
	for _, gi := range s.topo {
		g := &s.n.Gates[gi]
		in := s.inBuf[:len(g.In)]
		for k, id := range g.In {
			in[k] = s.vals[id]
		}
		s.vals[g.Out] = s.n.EvalGate(g, in)
	}
}

// Step evaluates the combinational logic and then clocks every
// flip-flop, completing one cycle.
func (s *Simulator) Step() {
	s.Eval()
	next := s.ffBuf
	for i, ff := range s.n.FFs {
		next[i] = s.vals[s.n.Gates[ff].In[0]]
	}
	for i, ff := range s.n.FFs {
		s.vals[s.n.Gates[ff].Out] = next[i]
	}
}

// Get returns the current value of a signal (call Eval or Step first
// for combinational nets).
func (s *Simulator) Get(sig netlist.SignalID) bv.BV { return s.vals[sig] }

// GetName returns a signal value by name.
func (s *Simulator) GetName(name string) (bv.BV, error) {
	sig, ok := s.n.SignalByName(name)
	if !ok {
		return bv.BV{}, fmt.Errorf("sim: no signal %q", name)
	}
	return s.vals[sig], nil
}

// Trace is a per-cycle assignment of primary inputs — the shape of a
// generated counterexample or witness sequence.
type Trace struct {
	// Inputs[t] maps primary inputs to their cycle-t values. Missing
	// entries mean all-x (the checker leaves don't-care inputs free).
	Inputs []map[netlist.SignalID]bv.BV
}

// Len returns the number of cycles in the trace.
func (t *Trace) Len() int { return len(t.Inputs) }

// Replay resets the simulator, applies the trace cycle by cycle, and
// calls observe after each cycle's combinational settle (before the
// clock edge). The observe callback can stop the run early by
// returning false.
func (s *Simulator) Replay(tr *Trace, observe func(cycle int) bool) {
	s.Reset()
	for t := 0; t < tr.Len(); t++ {
		for sig, v := range tr.Inputs[t] {
			if err := s.SetInput(sig, v); err != nil {
				panic(err)
			}
		}
		s.Eval()
		if observe != nil && !observe(t) {
			return
		}
		s.Step()
	}
}

// Format renders a trace using signal names, one line per cycle.
func (t *Trace) Format(n *netlist.Netlist) string {
	out := ""
	for cyc, m := range t.Inputs {
		out += fmt.Sprintf("cycle %d:", cyc)
		for _, pi := range n.PIs {
			if v, ok := m[pi]; ok {
				out += fmt.Sprintf(" %s=%v", n.Signals[pi].Name, v)
			}
		}
		out += "\n"
	}
	return out
}
