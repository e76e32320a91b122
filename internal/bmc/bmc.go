// Package bmc is a SAT-based bounded model checker — the "symbolic
// model checking using SAT procedures" alternative (Biere et al.,
// paper ref. [13]) that §1 compares the word-level ATPG approach
// against. The netlist is bit-blasted frame by frame into one
// incremental CDCL solver; each depth k asks for a violation of the
// property monitor at frame k-1 under the environment assumptions.
package bmc

import (
	"context"
	"time"

	"repro/internal/bv"
	"repro/internal/cnf"
	"repro/internal/netlist"
	"repro/internal/property"
	"repro/internal/sat"
	"repro/internal/sim"
)

// Verdict is a BMC outcome.
type Verdict uint8

// Outcomes.
const (
	Falsified Verdict = iota // counterexample found
	BoundedOK                // no counterexample within the bound
	Unknown                  // resource limit
)

func (v Verdict) String() string {
	switch v {
	case Falsified:
		return "falsified"
	case BoundedOK:
		return "bounded-ok"
	default:
		return "unknown"
	}
}

// Result reports the BMC outcome with effort statistics. Elapsed and
// the resource counters mirror what the ATPG checker reports, so the
// engine-agnostic layer (internal/core) can present the two uniformly.
type Result struct {
	Verdict Verdict
	Depth   int
	Trace   *sim.Trace
	// InitState pins the model's frame-0 values of registers whose
	// declared initial value is not fully known, so a counterexample
	// trace replays deterministically on the three-valued simulator
	// (the ATPG checker extracts the same map).
	InitState    map[netlist.SignalID]bv.BV
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Vars         int
	Clauses      int
	Elapsed      time.Duration
}

// Options bounds the run.
type Options struct {
	MaxDepth int // 0 = 16
}

// Check searches for a counterexample to the property up to MaxDepth
// frames. Witness properties search for the monitor at 1 instead of 0.
func Check(nl *netlist.Netlist, p property.Property, opts Options) Result {
	return CheckCtx(context.Background(), nl, p, opts)
}

// CheckCtx is Check under a cancellation context: the CDCL search polls
// ctx between unit-propagation rounds (see sat.Solver.Stop) and between
// depths, so a cancelled run returns Unknown promptly instead of
// finishing its search. The netlist is compiled into a one-frame CNF
// template first; callers that check many properties of one design
// should compile once (cnf.Compile or the core Design cache) and use
// CheckCompiled.
func CheckCtx(ctx context.Context, nl *netlist.Netlist, p property.Property, opts Options) Result {
	start := time.Now()
	tmpl, err := cnf.Compile(nl)
	if err != nil {
		return Result{Verdict: Unknown, Elapsed: time.Since(start)}
	}
	res := CheckCompiled(ctx, tmpl, p, opts)
	res.Elapsed = time.Since(start)
	return res
}

// CheckCompiled is CheckCtx over a pre-compiled frame template: one
// solver serves the whole iterative-deepening loop — frame clauses are
// monotone, each depth extends the unrolling by relocated template
// clauses, and the per-depth property ask is passed as an assumption so
// nothing is retracted between depths. The template is read-only here,
// so any number of CheckCompiled calls may share it concurrently. It
// must cover p's signals (cnf.Template.Covers): a signal added to the
// netlist after the template was compiled makes cnf.Instance.Lit
// panic.
func CheckCompiled(ctx context.Context, tmpl *cnf.Template, p property.Property, opts Options) Result {
	start := time.Now()
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 16
	}
	nl := tmpl.NL
	s := sat.NewSolver()
	if ctx.Done() != nil { // cancellable: install the CDCL stop hook
		s.Stop = func() bool { return ctx.Err() != nil }
	}
	in := tmpl.NewInstance(s)
	target := false // invariant: look for monitor = 0
	if p.Kind == property.Witness {
		target = true
	}
	res := Result{Verdict: BoundedOK}
	for depth := 1; depth <= opts.MaxDepth; depth++ {
		if ctx.Err() != nil {
			res.Verdict = Unknown
			res.Depth = depth - 1
			break
		}
		in.EnsureFrames(depth)
		// Assumptions: monitor takes the target value at the last
		// frame; environment constraints hold at every frame.
		monLit := in.Lit(depth-1, p.Monitor, 0)
		if !target {
			monLit = monLit.Not()
		}
		assumptions := []sat.Lit{monLit}
		for f := 0; f < depth; f++ {
			for _, a := range p.Assumes {
				assumptions = append(assumptions, in.Lit(f, a, 0))
			}
		}
		switch s.Solve(assumptions...) {
		case sat.Sat:
			tr := &sim.Trace{Inputs: make([]map[netlist.SignalID]bv.BV, depth)}
			for f := 0; f < depth; f++ {
				tr.Inputs[f] = map[netlist.SignalID]bv.BV{}
				for _, pi := range nl.PIs {
					tr.Inputs[f][pi] = in.ModelValue(f, pi)
				}
			}
			res.InitState = map[netlist.SignalID]bv.BV{}
			for _, ff := range nl.FFs {
				g := &nl.Gates[ff]
				if g.Init.IsAllX() || !g.Init.IsFullyKnown() {
					res.InitState[g.Out] = in.ModelValue(0, g.Out)
				}
			}
			res.Verdict = Falsified
			res.Depth = depth
			res.Trace = tr
			goto done
		case sat.Unknown:
			res.Verdict = Unknown
			res.Depth = depth
			goto done
		}
		res.Depth = depth
	}
done:
	res.Decisions, res.Propagations, res.Conflicts = s.Stats()
	res.Vars = s.NumVars()
	res.Clauses = s.NumClauses()
	res.Elapsed = time.Since(start)
	return res
}
