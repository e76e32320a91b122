// Session: the cheap per-run half of the Design/Session split. A
// Session borrows everything compiled — the netlist, the local FSMs,
// the per-engine caches — from its immutable Design and holds only its
// options; every check builds its own search engines and keeps no
// search state after it returns, so a check's result depends only on
// its own property. Creating a session is allocation-cheap (no
// re-elaboration, no re-analysis), which is what makes batch workers,
// portfolio members and serving requests scale: concurrent checks over
// one Design contend on nothing.
package core

import (
	"context"
	"runtime"
	"time"

	"repro/internal/atpg"
	"repro/internal/bv"
	"repro/internal/netlist"
	"repro/internal/property"
	"repro/internal/sim"
)

// Session checks properties of one compiled design. The zero value is
// not usable; construct with Design.NewSession (or New, which
// compiles/reuses the design first).
type Session struct {
	d    *Design
	opts Options
}

// New compiles (or reuses, via the process-wide design cache) the
// netlist's Design and opens a session over it: the front door that
// keeps single-shot callers one call away from a check. The netlist
// must be valid.
func New(nl *netlist.Netlist, opts Options) (*Session, error) {
	d, err := DesignFor(nl)
	if err != nil {
		return nil, err
	}
	return d.NewSession(opts)
}

// NewSession opens a per-run session over the design. It compiles
// nothing: each engine takes what it reads from the design's caches,
// built on first use. The error result is always nil.
func (d *Design) NewSession(opts Options) (*Session, error) {
	return &Session{d: d, opts: opts.withDefaults()}, nil
}

// Design returns the immutable compiled design this session runs over.
func (c *Session) Design() *Design { return c.d }

// Netlist returns the design under check.
func (c *Session) Netlist() *netlist.Netlist { return c.d.nl }

// designFor is the one rule that picks the compiled design serving a
// check over nl, for every engine: this session's own design, unless
// nl is another netlist or has gained signals or gates since that
// design was built (monitor logic synthesized after the session
// opened); then the process-wide DesignFor(nl), which compiles the
// netlist as it is now at most once.
func (c *Session) designFor(nl *netlist.Netlist) (*Design, error) {
	if nl == c.d.nl && !c.d.stale() {
		return c.d, nil
	}
	return DesignFor(nl)
}

// sessionFor returns the session that runs an ATPG check over nl with
// the given frame bound (0 = this session's): this session when
// designFor picks its design and the bound matches, else a sibling
// with the same options over the picked design.
func (c *Session) sessionFor(nl *netlist.Netlist, depth int) (*Session, error) {
	d, err := c.designFor(nl)
	if err != nil {
		return nil, err
	}
	if d == c.d && (depth == 0 || depth == c.opts.MaxDepth) {
		return c, nil
	}
	opts := c.opts
	if depth != 0 {
		opts.MaxDepth = depth
	}
	return d.NewSession(opts)
}

// addDomains installs the design's local-FSM reachable sets, unless
// the options disable them: bounded runs use the per-frame unrolled
// sets, induction runs (any-state start) the fixpoint sets. Extraction
// fails only on a combinationally cyclic netlist, which NewDesign
// already rejects.
func (c *Session) addDomains(eng *atpg.Engine, fixpointOnly bool) {
	if c.opts.DisableLocalFSM {
		return
	}
	machines, _ := c.d.Machines()
	for _, m := range machines {
		m := m
		if fixpointOnly {
			eng.AddDomain(atpg.Domain{
				Sig: m.Q,
				FeasibleIn: func(_ int, cube bv.BV) bool {
					return m.FeasibleEver(cube)
				},
				Enumerate: func(_ int, cube bv.BV, fn func(bv.BV) bool) {
					m.EnumerateIn(m.Frames, cube, fn)
				},
			})
		} else {
			eng.AddDomain(atpg.Domain{Sig: m.Q, FeasibleIn: m.FeasibleIn, Enumerate: m.EnumerateIn})
		}
	}
}

// Check runs the Fig. 1 loop for one property.
func (c *Session) Check(p property.Property) Result {
	return c.CheckCtx(context.Background(), p)
}

// CheckCtx is Check under a cancellation context: the ATPG search, the
// deepening loop and the induction steps all observe ctx and return
// VerdictUnknown promptly after cancellation. The allocation columns
// are measured from process-wide memstats (two stop-the-world reads),
// so they are only attributable when checks run one at a time;
// concurrent callers (CheckAll workers, portfolio members) go through
// checkQuiet instead and leave them zero.
func (c *Session) CheckCtx(ctx context.Context, p property.Property) Result {
	start := time.Now()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res := c.check(ctx, p)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.AllocObjects = ms1.Mallocs - ms0.Mallocs
	if res.Stats.Implications > 0 {
		res.AllocsPerImpl = float64(res.AllocObjects) / float64(res.Stats.Implications)
	}
	if res.Stats.Decisions > 0 {
		res.AllocsPerDecision = float64(res.AllocObjects) / float64(res.Stats.Decisions)
	}
	res.Elapsed = time.Since(start)
	res.Property = p.Name
	return res
}

// checkQuiet is CheckCtx without the memstats reads: the variant used
// when several checks run concurrently, where a process-global
// allocation delta would misattribute the other workers' allocations
// (and the stop-the-world reads would serialize them).
func (c *Session) checkQuiet(ctx context.Context, p property.Property) Result {
	start := time.Now()
	res := c.check(ctx, p)
	res.Elapsed = time.Since(start)
	res.Property = p.Name
	return res
}

func (c *Session) check(ctx context.Context, p property.Property) Result {
	res := Result{Verdict: VerdictUnknown}
	if s, err := c.sessionFor(c.d.nl, 0); err == nil {
		res = s.checkSearch(ctx, p)
	}
	res.Engine = EngineATPG
	res.Metrics = metricsFromATPG(res.Stats)
	return res
}

// inductionDecisions caps the decisions of one check's pre-check and
// steps together, with twice as many backtracks: when the property is
// not inductive the steps can cost far more than the bounded search,
// so they share one small budget.
const inductionDecisions = 5000

// checkSearch is the Fig. 1 loop proper, run by the session check
// picked through sessionFor, whose design covers the netlist. The
// per-phase engines are built over the design's shared ATPG prep: only
// per-run state (value tables, trail, queues, scratch) is allocated
// here.
//
// An invariant with state in its cone, with induction on, is first
// given the pre-check (inductionStep at k = 0); when that closes, the
// invariant is proved at depth 1. Otherwise the bounded search at each
// depth d that finds no counterexample is followed by the step at
// k = d, and the invariant is proved at the first k that closes
// (Sheeran, Singh & Stalmarck, FMCAD 2000; Een & Sorensson, BMC 2003).
// The step at k is sound because depths 1..k all had their bounded
// search first, in this check. The pre-check and every step draw on
// one budget of inductionDecisions, so a property that is not
// inductive spends at most that budget on all its steps together. A
// ctx that is done before a phase starts makes the check unknown.
// Witnesses and combinational cones run the bounded search alone.
func (c *Session) checkSearch(ctx context.Context, p property.Property) Result {
	prep, err := c.d.ATPGPrep()
	if err != nil {
		return Result{Verdict: VerdictUnknown}
	}
	_, target := searchTarget(p)
	var agg atpg.Stats
	unknown := func() Result { return Result{Verdict: VerdictUnknown, Depth: c.opts.MaxDepth, Stats: agg} }
	induct := c.opts.UseInduction && p.Kind == property.Invariant && !c.coneIsCombinational(p)
	decLeft, btLeft := inductionDecisions, 2*inductionDecisions
	// step runs the induction step at k while the budget lasts. It
	// returns the check's result, and true, when the step proves the
	// invariant or cannot start.
	step := func(k int) (Result, bool) {
		if ctx.Err() != nil {
			return unknown(), true
		}
		if decLeft <= 0 || btLeft <= 0 {
			return Result{}, false
		}
		limits := atpg.Limits{MaxDecisions: decLeft, MaxBacktracks: btLeft}
		st, stats := c.inductionStep(ctx, prep, p, k, limits)
		agg = addStats(agg, stats)
		decLeft -= stats.Decisions
		btLeft -= stats.Backtracks
		return Result{Verdict: VerdictProved, Depth: max(k, 1), Stats: agg}, st == atpg.StatusUnsat
	}
	if induct {
		if res, done := step(0); done {
			return res
		}
	}
	for depth := 1; depth <= c.opts.MaxDepth; depth++ {
		if ctx.Err() != nil {
			return unknown()
		}
		eng, st, err := c.bounded(ctx, prep, p, depth)
		if err != nil {
			return Result{Verdict: VerdictUnknown, Depth: depth, Stats: agg}
		}
		agg = addStats(agg, eng.Stats())
		switch st {
		case atpg.StatusSat:
			tr, init := c.extractTrace(eng, depth)
			if replayValidates(c.d.nl, p, tr, init, depth, target) {
				v := VerdictFalsified
				if p.Kind == property.Witness {
					v = VerdictWitnessFound
				}
				return Result{Verdict: v, Depth: depth, Trace: tr, InitState: init, Stats: agg, Validated: true}
			}
			// A solution that fails replay indicates an implication
			// soundness gap; treat conservatively.
			return Result{Verdict: VerdictUnknown, Depth: depth, Trace: tr, InitState: init, Stats: agg}
		case atpg.StatusUnsat:
			if res, ok := c.coneExhausted(p, depth, agg); ok {
				return res
			}
		case atpg.StatusAbort:
			return unknown()
		}
		if induct {
			if res, done := step(depth); done {
				return res
			}
		}
	}
	if p.Kind == property.Witness {
		return Result{Verdict: VerdictNoWitness, Depth: c.opts.MaxDepth, Stats: agg}
	}
	if induct && ctx.Err() != nil {
		// Cancelled in the last step: the bounded search did complete,
		// but the Engine contract promises Unknown for a cancelled check
		// (a portfolio loser must not report a verdict for a run it
		// never finished).
		return unknown()
	}
	return Result{Verdict: VerdictProvedBounded, Depth: c.opts.MaxDepth, Stats: agg}
}

// searchTarget is the mode and the monitor value a bounded search
// looks for: a counterexample drives an invariant's monitor to 0, a
// witness drives its monitor to 1.
func searchTarget(p property.Property) (atpg.Mode, bv.BV) {
	if p.Kind == property.Witness {
		return atpg.ModeWitness, bv.FromUint64(1, 1)
	}
	return atpg.ModeProve, bv.FromUint64(1, 0)
}

// bounded is the bounded search at one depth: frames 0..depth-1 from
// the initial state under the per-frame local-FSM sets, every
// assumption on every frame and the search target on the last frame.
// It runs under the engine's default effort limits and returns the
// engine, whose values hold a found trace.
func (c *Session) bounded(ctx context.Context, prep *atpg.Prep, p property.Property, depth int) (*atpg.Engine, atpg.Status, error) {
	mode, target := searchTarget(p)
	eng, err := atpg.NewWithPrep(prep, depth, mode, atpg.Limits{}, false, c.opts.Features)
	if err != nil {
		return nil, atpg.StatusAbort, err
	}
	eng.SetContext(ctx)
	c.addDomains(eng, false)
	ok := eng.Require(depth-1, p.Monitor, target)
	for f := 0; f < depth && ok; f++ {
		for _, a := range p.Assumes {
			if !eng.Require(f, a, bv.FromUint64(1, 1)) {
				ok = false
				break
			}
		}
	}
	if !ok {
		return eng, atpg.StatusUnsat, nil
	}
	return eng, eng.Solve(), nil
}

// coneExhausted applies the combinational-cone rule to a depth with no
// counterexample: when the monitor (and assumption) cone contains no
// state, one frame covers all behaviours, so the absence of a
// counterexample is a full proof (no witness exists at any depth). It
// reports false when the cone has state.
func (c *Session) coneExhausted(p property.Property, depth int, agg atpg.Stats) (Result, bool) {
	if !c.coneIsCombinational(p) {
		return Result{}, false
	}
	if p.Kind == property.Witness {
		return Result{Verdict: VerdictNoWitness, Depth: depth, Stats: agg}, true
	}
	return Result{Verdict: VerdictProved, Depth: depth, Stats: agg}, true
}

// coneIsCombinational reports whether the transitive fanin of the
// monitor and every assumption is free of flip-flops, making a depth-1
// exhaustion a complete proof. It reads the per-signal analysis
// precomputed on the design, taking no lock. p's signals must predate
// the design.
func (c *Session) coneIsCombinational(p property.Property) bool {
	for _, s := range coneRoots(p) {
		if c.d.stateBearing[s] {
			return false
		}
	}
	return true
}

// inductionStep checks the k-induction step: from any state inside the
// local-FSM fixpoints in which the monitor holds for k consecutive
// frames, no transition reaches a violating frame. Unsat proves the
// invariant once depths 1..k have no counterexample. At k = 0 it is
// the pre-check, the violation alone in one free frame: Unsat then
// proves the invariant with no base case, since the fixpoints contain
// every reachable state.
func (c *Session) inductionStep(ctx context.Context, prep *atpg.Prep, p property.Property, k int, limits atpg.Limits) (atpg.Status, atpg.Stats) {
	eng, err := atpg.NewWithPrep(prep, k+1, atpg.ModeProve, limits, true, c.opts.Features)
	if err != nil {
		return atpg.StatusAbort, atpg.Stats{}
	}
	eng.SetContext(ctx)
	// Strengthen the any-state start with the fixpoint reachable sets —
	// states outside a local FSM's STG are unreachable, so excluding
	// them preserves soundness and often makes the step inductive.
	c.addDomains(eng, true)
	ok := true
	for f := 0; f < k && ok; f++ {
		ok = eng.Require(f, p.Monitor, bv.FromUint64(1, 1))
	}
	for f := 0; f <= k && ok; f++ {
		for _, a := range p.Assumes {
			if !eng.Require(f, a, bv.FromUint64(1, 1)) {
				ok = false
				break
			}
		}
	}
	if ok {
		ok = eng.Require(k, p.Monitor, bv.FromUint64(1, 0))
	}
	if !ok {
		return atpg.StatusUnsat, eng.Stats()
	}
	return eng.Solve(), eng.Stats()
}

// extractTrace reads the minimum completion of the primary-input cubes
// per frame, plus pinned values for uninitialized registers.
func (c *Session) extractTrace(eng *atpg.Engine, depth int) (*sim.Trace, map[netlist.SignalID]bv.BV) {
	tr := &sim.Trace{Inputs: make([]map[netlist.SignalID]bv.BV, depth)}
	for f := 0; f < depth; f++ {
		tr.Inputs[f] = map[netlist.SignalID]bv.BV{}
		for _, pi := range c.d.nl.PIs {
			tr.Inputs[f][pi] = eng.Value(f, pi).Min()
		}
	}
	init := map[netlist.SignalID]bv.BV{}
	for _, ff := range c.d.nl.FFs {
		g := &c.d.nl.Gates[ff]
		if g.Init.IsAllX() || !g.Init.IsFullyKnown() {
			init[g.Out] = eng.Value(0, g.Out).Min()
		}
	}
	return tr, init
}

// replayValidates replays a counterexample/witness trace on the
// three-valued simulator and confirms the monitor takes the target
// value at the final frame while every assumption holds throughout. It
// is shared by the ATPG checker and the engine adapters (a BMC trace is
// validated exactly the same way an ATPG trace is).
func replayValidates(nl *netlist.Netlist, p property.Property, tr *sim.Trace, init map[netlist.SignalID]bv.BV, depth int, target bv.BV) bool {
	s, err := sim.New(nl)
	if err != nil {
		return false
	}
	s.Reset()
	for sig, v := range init {
		if err := s.SetRegister(sig, v); err != nil {
			return false
		}
	}
	okAll := true
	for t := 0; t < depth; t++ {
		for sig, v := range tr.Inputs[t] {
			if s.SetInput(sig, v) != nil {
				return false
			}
		}
		s.Eval()
		for _, a := range p.Assumes {
			if v, ok := s.Get(a).Uint64(); !ok || v != 1 {
				okAll = false
			}
		}
		if t == depth-1 {
			got := s.Get(p.Monitor)
			want, _ := target.Uint64()
			if v, ok := got.Uint64(); !ok || v != want {
				okAll = false
			}
		}
		s.Step()
	}
	return okAll
}

func addStats(a, b atpg.Stats) atpg.Stats {
	a.Decisions += b.Decisions
	a.Backtracks += b.Backtracks
	a.Implications += b.Implications
	a.ArithCalls += b.ArithCalls
	a.FrontierScans += b.FrontierScans
	a.FrontierChecks += b.FrontierChecks
	a.FrontierSkips += b.FrontierSkips
	a.Backjumps += b.Backjumps
	a.LevelsSkipped += b.LevelsSkipped
	a.BitSkips += b.BitSkips
	a.BitChainHops += b.BitChainHops
	if b.MaxTrail > a.MaxTrail {
		a.MaxTrail = b.MaxTrail
	}
	return a
}
