// Frame templates: the per-design compiled form of the bit-blaster.
//
// Every time frame of a netlist bit-blasts to the same clauses up to a
// uniform variable renumbering, so the encoding work — walking the
// topological order and emitting Tseitin clauses gate by gate — only
// has to happen once per design, not once per frame per run. Compile
// records one frame's clauses over frame-local variables; Instance
// relocates them into a live solver by adding a fixed per-frame offset,
// which turns per-depth frame extension (and per-run solver
// construction) into flat integer copies. A Template is immutable and
// safe for concurrent Instances, which is how the Design layer shares
// one compiled form across batch workers and portfolio members.
package cnf

import (
	"fmt"

	"repro/internal/bv"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// Template is the compiled one-frame CNF of a netlist: clauses over
// frame-local variables (1-based, dense in [1, FrameVars]), the
// register transition pairs linking adjacent frames, and the frame-0
// initial-value units. Variable 1 is the frame's constant-true
// variable, pinned by the first frame clause. Immutable after Compile.
type Template struct {
	NL *netlist.Netlist
	// FrameVars is the variable count of one frame; the global solver
	// variable of frame f's local v is f*FrameVars + v.
	FrameVars int
	// lits/ends flatten the frame clauses: clause i is
	// lits[ends[i-1]:ends[i]], literals over local variables.
	lits []sat.Lit
	ends []int32
	// linkQ/linkD pair register output bits with their next-state input
	// bits: Q@f+1 (local literal linkQ[i]) equals D@f (local literal
	// linkD[i]).
	linkQ, linkD []sat.Lit
	// initLits are the frame-0 unit clauses pinning declared register
	// initial bits, over frame-local variables.
	initLits []sat.Lit
	// bits maps each signal bit to its frame-local literal: bits[sig][i].
	bits [][]sat.Lit
}

// recorder is the Sink that captures one frame's clauses with
// frame-local numbering.
type recorder struct {
	t     *Template
	nVars int
}

func (r *recorder) NewVar() int {
	r.nVars++
	return r.nVars
}

func (r *recorder) AddClause(lits ...sat.Lit) bool {
	r.t.lits = append(r.t.lits, lits...)
	r.t.ends = append(r.t.ends, int32(len(r.t.lits)))
	return true
}

// Compile bit-blasts one frame of the netlist into a reusable
// template. The returned Template is immutable; build it once per
// design and instantiate it into as many solvers as needed.
func Compile(nl *netlist.Netlist) (*Template, error) {
	t := &Template{NL: nl}
	rec := &recorder{t: t}
	b := newBlaster(nl, rec)
	// Register bits first, then every combinational gate of the frame.
	t.initLits = b.initLits()
	if err := b.BlastFrame(0); err != nil {
		return nil, err
	}
	for _, ff := range nl.FFs {
		g := &nl.Gates[ff]
		for i := 0; i < nl.Width(g.Out); i++ {
			t.linkQ = append(t.linkQ, b.Lit(0, g.Out, i))
			t.linkD = append(t.linkD, b.Lit(0, g.In[0], i))
		}
	}
	// Give every remaining signal bit a local variable too (inputs no
	// gate reads, which an assumption might name). The per-frame
	// variable blocks must stay dense — frame f's global variables are
	// exactly (f*FrameVars, (f+1)*FrameVars] — so Instance.Lit can never
	// be allowed to mint variables outside the blocks: a later frame's
	// relocated clauses would alias them.
	for sig := range nl.Signals {
		b.sig(0, netlist.SignalID(sig))
	}
	t.bits = b.frames[0]
	t.FrameVars = rec.nVars
	return t, nil
}

// Covers reports whether every bit of the signal has a literal in the
// template — false only for signals added to the netlist after Compile
// (a stale template; recompile to address them).
func (t *Template) Covers(sig netlist.SignalID) bool { return int(sig) < len(t.bits) }

// Instance is one solver-backed unrolling of a template. It is the
// mutable per-run object: frames are instantiated on demand
// (EnsureFrames) and literals/models are addressed exactly like the
// direct Blaster.
type Instance struct {
	T       *Template
	S       *sat.Solver
	frames  int
	scratch []sat.Lit
}

// NewInstance prepares an unrolling of the template into s. No frames
// are instantiated yet.
func (t *Template) NewInstance(s *sat.Solver) *Instance {
	return &Instance{T: t, S: s}
}

// EnsureFrames instantiates frames so that frames 0..n-1 exist:
// reserves each frame's variable block, relocates the template clauses
// into it, pins frame-0 initial values and links each new frame to its
// predecessor. Frame clauses are monotone — extending the unrolling
// never retracts anything — so one solver serves the whole
// iterative-deepening loop with per-depth property asks passed as
// assumptions.
func (in *Instance) EnsureFrames(n int) {
	t := in.T
	for f := in.frames; f < n; f++ {
		base := f * t.FrameVars
		for i := 0; i < t.FrameVars; i++ {
			in.S.NewVar()
		}
		off := sat.Lit(base) << 1
		if f == 0 {
			for _, l := range t.initLits {
				in.S.AddClause(l + off)
			}
		}
		start := int32(0)
		for _, end := range t.ends {
			in.scratch = in.scratch[:0]
			for _, l := range t.lits[start:end] {
				in.scratch = append(in.scratch, l+off)
			}
			in.S.AddClause(in.scratch...)
			start = end
		}
		if f > 0 {
			prev := sat.Lit((f-1)*t.FrameVars) << 1
			for i := range t.linkQ {
				q, d := t.linkQ[i]+off, t.linkD[i]+prev
				in.S.AddClause(q.Not(), d)
				in.S.AddClause(q, d.Not())
			}
		}
		in.frames = f + 1
	}
}

// Lit returns the literal of a signal bit at a frame; the frame must
// have been instantiated and the signal covered by the template (check
// Covers for signals that may postdate Compile — minting fresh
// variables here would alias a later frame's block).
func (in *Instance) Lit(frame int, sig netlist.SignalID, bit int) sat.Lit {
	if frame >= in.frames {
		panic(fmt.Sprintf("cnf: literal requested at frame %d of %d", frame, in.frames))
	}
	if !in.T.Covers(sig) {
		panic(fmt.Sprintf("cnf: signal %d not covered by the template (stale template? check Covers)", sig))
	}
	return in.T.bits[sig][bit] + sat.Lit(frame*in.T.FrameVars)<<1
}

// ModelValue reads a signal value of the model after a Sat answer;
// bits of a signal the template does not cover read as 0.
func (in *Instance) ModelValue(frame int, sig netlist.SignalID) bv.BV {
	var l []sat.Lit
	if in.T.Covers(sig) {
		l = in.T.bits[sig]
	}
	return modelValue(in.S, in.T.NL.Width(sig), l, frame*in.T.FrameVars)
}
