// Engine-agnostic verdict layer. The repo reproduces three decision
// procedures the paper's §1 compares — the word-level ATPG search (the
// contribution, internal/atpg via Session), SAT-based BMC (Biere et
// al. [13], internal/bmc) and BDD reachability (McMillan [9]–[11],
// internal/mc) — but they grew three disjoint verdict enums, stat
// structs and deadline mechanisms. This file unifies them behind one
// interface so the scheduling layers above (portfolio racing,
// CheckAll batching) can treat engines as interchangeable workers:
//
//   - Problem is the engine-neutral statement of one check;
//   - Engine is the contract: Name plus a context-cancellable Check;
//   - EngineResult (= Result) carries the unified Verdict, engine
//     attribution and EngineMetrics, with the full ATPG Stats preserved
//     when the ATPG engine ran.
package core

import (
	"context"
	"time"

	"repro/internal/atpg"
	"repro/internal/bmc"
	"repro/internal/bv"
	"repro/internal/cnf"
	"repro/internal/faultinject"
	"repro/internal/mc"
	"repro/internal/netlist"
	"repro/internal/property"
)

// Canonical engine names (also the CLI -engine values and the fixed
// portfolio priority order, highest first).
const (
	EngineATPG      = "atpg"
	EngineBMC       = "bmc"
	EngineBDD       = "bdd"
	EnginePortfolio = "portfolio"
)

// Problem is one verification obligation stated engine-neutrally: the
// design, the property, and the frame bound.
type Problem struct {
	NL   *netlist.Netlist
	Prop property.Property
	// MaxDepth bounds the number of time frames explored (0 = 16). The
	// BDD engine, being unbounded reachability, ignores it.
	MaxDepth int
}

func (p Problem) depth() int {
	if p.MaxDepth == 0 {
		return defaultDepth
	}
	return p.MaxDepth
}

// EngineResult is the unified result every engine returns; it is
// core.Result — one verdict enum, engine attribution, unified metrics —
// so scheduling layers never see an engine-specific type.
type EngineResult = Result

// Engine is a decision procedure for Problems. Check must honor ctx:
// after cancellation it returns (promptly, within the engine's
// check-interval budget) with VerdictUnknown rather than completing
// its search. Implementations must be safe for concurrent Check calls.
type Engine interface {
	Name() string
	Check(ctx context.Context, prob Problem) EngineResult
}

// EngineMetrics unifies the effort counters of the three engines so
// any result can be reported and compared uniformly. Each engine maps
// its native counters onto the closest analogue; fields an engine has
// no analogue for stay zero.
type EngineMetrics struct {
	// Decisions: ATPG justification decisions, SAT branch decisions, or
	// BDD image-computation iterations.
	Decisions int64
	// Conflicts: ATPG backtracks or SAT conflicts.
	Conflicts int64
	// Implications: ATPG word-level implications or SAT unit
	// propagations.
	Implications int64
	// MemUnits is the engine's memory proxy: ATPG peak trail length,
	// SAT variables+clauses, or BDD peak node count.
	MemUnits int64
}

func metricsFromATPG(st atpg.Stats) EngineMetrics {
	return EngineMetrics{
		Decisions:    int64(st.Decisions),
		Conflicts:    int64(st.Backtracks),
		Implications: int64(st.Implications),
		MemUnits:     int64(st.MaxTrail),
	}
}

// ---------------------------------------------------------------------
// Adapters. Each engine has exactly one, bound to a Session: every
// check resolves its compiled design through Session.designFor, so the
// three engines agree on which compiled form of a netlist serves it.

// engineFault fires a named fault point at the head of an engine's
// check loop. Inactive injection costs one atomic load; an armed
// error-mode rule produces the attributed error record the degrade
// suite asserts on (panic mode unwinds into safeCheck's recover, and
// sleep mode returns nil so the engine's own ctx handling runs).
func engineFault(ctx context.Context, point, engine string, prob Problem) (EngineResult, bool) {
	if err := faultinject.Fire(ctx, point); err != nil {
		return Result{Property: prob.Prop.Name, Verdict: VerdictError,
			Engine: engine, Err: err.Error()}, true
	}
	return Result{}, false
}

// atpgEngine adapts a Session — its options and the design's local
// FSMs — as the "atpg" Engine. All Session state is immutable after
// construction, so one atpgEngine serves concurrent Check calls.
type atpgEngine struct{ c *Session }

// ATPGEngine returns this session's word-level ATPG path as an Engine.
// A problem over another design or bound runs on a sibling session
// (Session.sessionFor); the design cache makes that cheap, since
// compilation runs at most once per netlist build state.
func (c *Session) ATPGEngine() Engine { return &atpgEngine{c} }

func (e *atpgEngine) Name() string { return EngineATPG }

func (e *atpgEngine) Check(ctx context.Context, prob Problem) EngineResult {
	if res, fired := engineFault(ctx, faultinject.PointEngineATPG, EngineATPG, prob); fired {
		return res
	}
	c, err := e.c.sessionFor(prob.NL, prob.MaxDepth)
	if err != nil {
		return Result{Property: prob.Prop.Name, Verdict: VerdictUnknown, Engine: EngineATPG}
	}
	return c.checkQuiet(ctx, prob.Prop)
}

// BMCEngine returns the SAT-based bounded model checker bound to this
// session. Its "falsified" maps to VerdictFalsified (counterexamples
// are replay-validated exactly like ATPG traces), its bounded-ok to
// VerdictProvedBounded (VerdictNoWitness for witness properties) — BMC
// can never return a full proof. A check runs on the property's cone
// of influence (Design.coneFor): the one-frame CNF template is compiled
// at most once per cone, or once per design for the cones that hold
// every register, and each check instantiates it into a private
// solver, so N workers share the bit-blasting work. A counterexample
// is mapped back to design signals before replay; inputs outside the
// cone are left out of its trace.
func (c *Session) BMCEngine(opts bmc.Options) Engine {
	return &bmcEngine{c: c, opts: opts}
}

type bmcEngine struct {
	c    *Session
	opts bmc.Options
}

func (e *bmcEngine) Name() string { return EngineBMC }

func (e *bmcEngine) Check(ctx context.Context, prob Problem) EngineResult {
	if res, fired := engineFault(ctx, faultinject.PointEngineBMC, EngineBMC, prob); fired {
		return res
	}
	opts := e.opts
	if opts.MaxDepth == 0 {
		opts.MaxDepth = prob.depth()
	}
	start := time.Now()
	d, err := e.c.designFor(prob.NL)
	var cn *cone
	var tmpl *cnf.Template
	if err == nil {
		cn = d.coneFor(prob.Prop)
		tmpl, err = d.formsFor(cn).template()
	}
	if err != nil {
		// Cone not bit-blastable at all (e.g. a >64-bit multiplier):
		// there is no other BMC encoding, so report Unknown without
		// re-running the failing compile per check.
		return Result{Property: prob.Prop.Name, Verdict: VerdictUnknown,
			Engine: EngineBMC, Elapsed: time.Since(start)}
	}
	br := bmc.CheckCompiled(ctx, tmpl, cn.property(prob.Prop), opts)
	cn.toDesignSignals(&br)
	return bmcResult(prob, br, time.Since(start))
}

// bmcResult maps a BMC result onto the unified Result, replay-validating
// counterexamples exactly like ATPG traces.
func bmcResult(prob Problem, br bmc.Result, elapsed time.Duration) Result {
	res := Result{
		Property: prob.Prop.Name,
		Engine:   EngineBMC,
		Depth:    br.Depth,
		Trace:    br.Trace,
		Elapsed:  elapsed,
		Metrics: EngineMetrics{
			Decisions:    br.Decisions,
			Conflicts:    br.Conflicts,
			Implications: br.Propagations,
			MemUnits:     int64(br.Vars + br.Clauses),
		},
	}
	switch br.Verdict {
	case bmc.Falsified:
		res.InitState = br.InitState
		target := bv.FromUint64(1, 0)
		res.Verdict = VerdictFalsified
		if prob.Prop.Kind == property.Witness {
			res.Verdict = VerdictWitnessFound
			target = bv.FromUint64(1, 1)
		}
		if replayValidates(prob.NL, prob.Prop, br.Trace, br.InitState, br.Depth, target) {
			res.Validated = true
		} else {
			// A model that fails replay depends on an x source's
			// value, which the simulator reads as X, or shows a
			// bit-blasting gap; treat conservatively, exactly as the
			// ATPG path does.
			res.Verdict = VerdictUnknown
		}
	case bmc.BoundedOK:
		res.Verdict = VerdictProvedBounded
		if prob.Prop.Kind == property.Witness {
			res.Verdict = VerdictNoWitness
		}
	default:
		res.Verdict = VerdictUnknown
	}
	return res
}

// BDDStats is the BDD engine's partitioned-image detail: how many
// conjunctive transition clusters the image fold ran over, the largest
// intermediate relational product it carried, and the length of the
// early-quantification schedule.
type BDDStats struct {
	Partitions     int
	PeakImageNodes int
	QuantDepth     int
}

// bddResult maps a BDD reachability result onto the unified Result.
func bddResult(prob Problem, mr mc.Result, elapsed time.Duration) Result {
	res := Result{
		Property: prob.Prop.Name,
		Engine:   EngineBDD,
		Depth:    mr.Iters,
		Elapsed:  elapsed,
		Metrics: EngineMetrics{
			Decisions: int64(mr.Iters),
			MemUnits:  int64(mr.PeakNodes),
		},
		BDD: BDDStats{
			Partitions:     mr.Partitions,
			PeakImageNodes: mr.PeakImageNodes,
			QuantDepth:     mr.QuantDepth,
		},
	}
	switch mr.Verdict {
	case mc.Proved:
		res.Verdict = VerdictProved
		if prob.Prop.Kind == property.Witness {
			// The fixpoint covers all reachable states, so "no witness"
			// here is exhaustive; VerdictNoWitness is the closest
			// (bounded-sounding) member of the unified enum.
			res.Verdict = VerdictNoWitness
		}
	case mc.Falsified:
		res.Verdict = VerdictFalsified
		if prob.Prop.Kind == property.Witness {
			res.Verdict = VerdictWitnessFound
		}
	default:
		res.Verdict = VerdictUnknown
	}
	return res
}

// BDDEngine returns the BDD reachability engine bound to this session.
// Its fixpoint "proved" is a full proof (VerdictProved — the verdict
// that strengthens an ATPG proved-bounded in a portfolio); "falsified"
// maps to VerdictFalsified / VerdictWitnessFound. The engine produces
// no input trace, so its counterexamples carry Validated=false. A
// check runs on the property's cone of influence, as BMC's does: the
// symbolic model (variable order, per-signal functions, transition
// relation) is compiled at most once per cone, or once per design for
// the cones that hold every register, and each check loads the
// snapshot into a private manager. A proof on a cone may close at a
// smaller iteration than on the whole design. A model that blows the
// build-time node budget reports Unknown on every check from the
// cached build error.
func (c *Session) BDDEngine(opts mc.Options) Engine {
	return &bddEngine{c: c, opts: opts}
}

type bddEngine struct {
	c    *Session
	opts mc.Options
}

func (e *bddEngine) Name() string { return EngineBDD }

func (e *bddEngine) Check(ctx context.Context, prob Problem) EngineResult {
	if res, fired := engineFault(ctx, faultinject.PointEngineBDD, EngineBDD, prob); fired {
		return res
	}
	start := time.Now()
	d, err := e.c.designFor(prob.NL)
	var cn *cone
	var comp *mc.Compiled
	if err == nil {
		cn = d.coneFor(prob.Prop)
		comp, err = d.formsFor(cn).model()
	}
	if err != nil {
		return Result{Property: prob.Prop.Name, Verdict: VerdictUnknown,
			Engine: EngineBDD, Elapsed: time.Since(start)}
	}
	return bddResult(prob, comp.CheckCtx(ctx, cn.property(prob.Prop), e.opts), time.Since(start))
}
