package atpg

import (
	"math"
	"slices"

	"repro/internal/bv"
	"repro/internal/netlist"
)

// alternative is one way to extend the current assignment.
type alternative struct {
	asg []requirement
}

// decision is a branch point: an ordered list of alternatives, the
// first of which is currently applied.
type decision struct {
	alts []alternative
	idx  int
	// confSet accumulates the lower decision levels involved in this
	// decision's conflicts (the CBJ conflict set); on exhaustion the
	// search jumps to its maximum.
	confSet []uint64
	// chron forces chronological backtracking on exhaustion: set for
	// decisions whose alternative set was enumerated from current cubes
	// (a skipped level might have widened the enumeration).
	chron bool
	// altBuf and reqBuf back the single-requirement alternatives of
	// control, fallback and domain branches. They start on the inline
	// arrays, which hold the ubiquitous two-way branches, and survive
	// recycling, so a pooled decision allocates nothing once it has held
	// its widest branch.
	altBuf []alternative
	reqBuf []requirement
	altArr [2]alternative
	reqArr [2]requirement
}

// getDecision returns a reset decision shell from the engine's free
// list (or a fresh one).
func (e *Engine) getDecision() *decision {
	if n := len(e.decFree); n > 0 {
		d := e.decFree[n-1]
		e.decFree = e.decFree[:n-1]
		d.idx = 0
		d.alts = nil
		d.confSet = d.confSet[:0]
		d.chron = false
		return d
	}
	d := &decision{}
	d.altBuf, d.reqBuf = d.altArr[:0], d.reqArr[:0]
	return d
}

// putDecision recycles a decision the search has popped.
func (e *Engine) putDecision(d *decision) {
	d.alts = nil // drop any out-of-line alternatives for the collector
	e.decFree = append(e.decFree, d)
}

// branch builds a pooled decision that tries the given values of one
// signal instance in order, one alternative each.
func (e *Engine) branch(frame int, sig netlist.SignalID, vals ...bv.BV) *decision {
	d := e.getDecision()
	d.reqBuf = d.reqBuf[:0]
	for _, v := range vals {
		d.reqBuf = append(d.reqBuf, requirement{frame, sig, v})
	}
	d.altBuf = d.altBuf[:0]
	for i := range d.reqBuf {
		d.altBuf = append(d.altBuf, alternative{asg: d.reqBuf[i : i+1 : i+1]})
	}
	d.alts = d.altBuf
	return d
}

// Solve runs the two-phase constraint solving of Fig. 1 / Fig. 2:
// word-level implication, probability-guided justification decisions on
// control signals, and modular arithmetic solving of the residual
// datapath constraints, iterating with chronological backtracking.
func (e *Engine) Solve() Status {
	e.incomplete = false
	stack := e.decStack[:0]
	defer func() { e.decStack = stack[:0] }()

	// chronological is the pre-backjumping conflict resolution: flip
	// the most recent decision with alternatives left, no analysis.
	chronological := func() bool {
		for len(stack) > 0 {
			d := stack[len(stack)-1]
			e.popLevel()
			d.idx++
			if d.idx < len(d.alts) {
				e.pushLevel()
				if e.applyAlt(d.alts[d.idx]) {
					return true
				}
				// Immediate conflict: undo and keep flipping.
				continue
			}
			stack = stack[:len(stack)-1]
			e.putDecision(d)
		}
		return false
	}
	backtrack := chronological
	if !e.features.NoBackjump {
		backtrack = func() bool { return e.backjump(&stack) }
	}

	if !e.propagate() {
		return StatusUnsat
	}
	for {
		if e.stopped() || e.stats.Decisions > e.limits.MaxDecisions || e.stats.Backtracks > e.limits.MaxBacktracks {
			return StatusAbort
		}
		unjust := e.unjustifiedGates()
		if len(unjust) == 0 {
			return StatusSat
		}
		var d *decision
		if cd := e.makeControlDecision(unjust); cd != nil {
			d = cd
		} else {
			prog, conflict, md := false, false, (*decision)(nil)
			if !e.features.NoArithSolver {
				prog, conflict, md = e.datapathPhase(unjust)
			}
			if conflict {
				if !backtrack() {
					return e.exhausted()
				}
				if !e.propagate() {
					if !backtrack() {
						return e.exhausted()
					}
				}
				continue
			}
			if md != nil {
				d = md
			} else if dd := e.makeDomainDecision(); dd != nil {
				// Branch over the reachable states of a local FSM whose
				// register is still undetermined — one alternative per
				// feasible value, far cheaper than pinning bits of the
				// vectors derived from it.
				d = dd
			} else if prog {
				if !e.propagate() {
					if !backtrack() {
						return e.exhausted()
					}
				}
				continue
			} else if fd := e.makeFallbackDecision(unjust); fd != nil {
				// Last resort: branch on an unknown bit feeding an
				// unjustified gate. This departs from the paper's
				// "control decisions only" discipline just enough to
				// stay complete on disjunctive datapath requirements
				// (e.g. a required != over an all-x vector) that the
				// linear solver cannot express.
				d = fd
			} else {
				// Stuck: nothing justiciable and no datapath progress.
				// The abandonment cannot be attributed to specific
				// levels, so conflict analysis must charge all of them.
				e.incomplete = true
				e.setConflictAll()
				if !backtrack() {
					return e.exhausted()
				}
				if !e.propagate() {
					if !backtrack() {
						return e.exhausted()
					}
				}
				continue
			}
		}
		e.stats.Decisions++
		stack = append(stack, d)
		e.pushLevel()
		ok := e.applyAlt(d.alts[0]) && e.propagate()
		for !ok {
			if !backtrack() {
				return e.exhausted()
			}
			ok = e.propagate()
		}
	}
}

// exhausted maps a fully explored search to Unsat, unless some branch
// was abandoned due to engine incompleteness (wide datapaths, dynamic
// shifts...), in which case the honest answer is Abort.
func (e *Engine) exhausted() Status {
	if e.incomplete {
		return StatusAbort
	}
	return StatusUnsat
}

// applyAlt applies all assignments of one alternative. Entries are
// tagged reasonFree (they depend on their own decision level); a
// failed assignment records the signal as the conflict source.
func (e *Engine) applyAlt(a alternative) bool {
	e.curReason = gateAt{frame: -1, gate: reasonFree}
	for _, r := range a.asg {
		if !e.assign(r.frame, r.sig, r.val) {
			e.setConflictSig(r.frame, r.sig)
			return false
		}
	}
	return true
}

// applySolver applies a datapath-solver writeback; entries are tagged
// reasonSolver so conflict analysis charges them conservatively (the
// values derive from equation cubes across many levels).
func (e *Engine) applySolver(a alternative) bool {
	e.curReason = gateAt{frame: -2, gate: reasonSolver}
	for _, r := range a.asg {
		if !e.assign(r.frame, r.sig, r.val) {
			return false
		}
	}
	return true
}

// sigAt identifies a signal instance in one frame.
type sigAt struct {
	frame int32
	sig   netlist.SignalID
}

// candidate is a potential decision point with its legal-1 probability.
type candidate struct {
	at     sigAt
	p1     float64
	fanout int
}

// bias is the legal assignment bias of Definition 2.
func (c candidate) bias() float64 {
	p := c.p1
	if p < 1e-9 {
		p = 1e-9
	}
	if p > 1-1e-9 {
		p = 1 - 1e-9
	}
	if p >= 0.5 {
		return p / (1 - p)
	}
	return (1 - p) / p
}

// biasValue is the likelier-legal value.
func (c candidate) biasValue() bv.Trit {
	if c.p1 >= 0.5 {
		return bv.One
	}
	return bv.Zero
}

// cdPush accumulates a legal-1 probability sample for a signal instance
// and queues it for BFS classification. The accumulators are flat
// arrays indexed frame*numSignals+sig, validated by a generation stamp
// so starting a new decision never clears them.
func (e *Engine) cdPush(at sigAt, p1 float64) {
	idx := int(at.frame)*e.nl.NumSignals() + int(at.sig)
	if e.probStamp[idx] != e.cdGen {
		e.probStamp[idx] = e.cdGen
		e.probSum[idx] = p1
		e.probCnt[idx] = 1
	} else {
		e.probSum[idx] += p1
		e.probCnt[idx]++
	}
	e.cdQueue = append(e.cdQueue, at)
}

// makeControlDecision finds the decision-point cut backward from the
// unjustified control-class gates (§3.2): breadth-first traversal
// stopping at control PIs, flip-flops, comparator outputs and
// multiple-fanout internal gates, with legal-1 probabilities computed
// along the way (Rules 3–5). Returns nil when no control decision is
// available (datapath-only residue). All scratch state (probability
// accumulators, work queue, candidate list, the returned decision) is
// pooled on the engine; a call performs no heap allocation.
func (e *Engine) makeControlDecision(unjust []gateAt) *decision {
	nSigs := e.nl.NumSignals()
	if e.probStamp == nil {
		// First control decision of this engine: allocate the flat
		// accumulators (stamps share one backing; the full-slice
		// expression keeps them from aliasing).
		n := e.frames * nSigs
		sb := make([]uint32, 2*n)
		e.probStamp = sb[:n:n]
		e.visitStamp = sb[n:]
		e.probSum = make([]float64, n)
		e.probCnt = make([]int32, n)
	}
	e.cdGen++
	if e.cdGen == 0 {
		for i := range e.probStamp {
			e.probStamp[i] = 0
			e.visitStamp[i] = 0
		}
		e.cdGen = 1
	}
	e.cdQueue = e.cdQueue[:0]
	e.cdQHead = 0
	e.cdCands = e.cdCands[:0]
	// Seed the backward traversal from non-arithmetic unjustified gates.
	for _, u := range unjust {
		g := &e.nl.Gates[u.gate]
		if g.Kind.IsArith() {
			continue
		}
		out := e.vals[u.frame][g.Out]
		var pOut float64 = 0.5
		if out.Width() == 1 && out.Bit(0) != bv.X {
			if out.Bit(0) == bv.One {
				pOut = 1.0
			} else {
				pOut = 0.0
			}
		}
		e.seedGateInputs(u, g, pOut)
	}
	// BFS with per-signal classification.
	for e.cdQHead < len(e.cdQueue) {
		at := e.cdQueue[e.cdQHead]
		e.cdQHead++
		idx := int(at.frame)*nSigs + int(at.sig)
		if e.visitStamp[idx] == e.cdGen {
			continue
		}
		e.visitStamp[idx] = e.cdGen
		f, s := int(at.frame), at.sig
		v := e.vals[f][s]
		sig := &e.nl.Signals[s]
		w := sig.Width
		hasX := !v.IsFullyKnown()
		if !hasX {
			continue // already determined
		}
		p1 := e.probSum[idx] / float64(e.probCnt[idx])
		drv := sig.Driver
		isCtl := w == 1
		switch {
		case drv == netlist.None:
			if isCtl {
				e.cdCands = append(e.cdCands, candidate{at, p1, len(sig.Fanout)})
			}
			// Datapath PIs are free; no decision needed.
		case e.nl.Gates[drv].Kind == netlist.KDff:
			if f > 0 {
				// Traverse through the register to the previous frame.
				e.cdPush(sigAt{int32(f - 1), e.nl.Gates[drv].In[0]}, p1)
			} else if isCtl {
				// Uninitialized control state bit at frame 0.
				e.cdCands = append(e.cdCands, candidate{at, p1, len(sig.Fanout)})
			}
		case e.nl.Gates[drv].Kind.IsComparator():
			if isCtl {
				e.cdCands = append(e.cdCands, candidate{at, p1, len(sig.Fanout)})
			}
		case e.nl.Gates[drv].Kind.IsArith():
			// Stop: datapath territory.
		case isCtl && len(sig.Fanout) > 1:
			e.cdCands = append(e.cdCands, candidate{at, p1, len(sig.Fanout)})
		default:
			// Descend into the driver gate.
			g := &e.nl.Gates[drv]
			e.seedGateInputs(gateAt{int32(f), drv}, g, p1)
		}
	}
	cands := e.cdCands
	if len(cands) == 0 {
		return nil
	}
	// If the candidate list is large, keep the highest-fanout subset
	// (§3.2: "a subset of them is selected as the decision nodes"),
	// with conflict-hot candidates surviving ahead of it. Ties broken
	// by (frame, sig) so the subset is deterministic.
	// cmpActivity orders conflict-hot candidates first (0 when equal or
	// when guidance is off); both sorts below use it as their primary
	// key so truncation and final selection agree on what "hot" means.
	useActivity := !e.features.NoConflictGuide && e.actScore != nil
	cmpActivity := func(a, b candidate) int {
		if !useActivity {
			return 0
		}
		aa, ab := e.activityOf(a.at), e.activityOf(b.at)
		switch {
		case aa > ab:
			return -1
		case aa < ab:
			return 1
		}
		return 0
	}
	const maxCands = 64
	if len(cands) > maxCands {
		slices.SortFunc(cands, func(a, b candidate) int {
			if c := cmpActivity(a, b); c != 0 {
				return c
			}
			if a.fanout != b.fanout {
				return b.fanout - a.fanout
			}
			if a.at.frame != b.at.frame {
				return int(a.at.frame) - int(b.at.frame)
			}
			return int(a.at.sig) - int(b.at.sig)
		})
		cands = cands[:maxCands]
	}
	// Highest bias first (Definition 2). The ablation mode keeps a
	// deterministic structural order with fixed polarity instead.
	if e.features.NoProbabilityOrder {
		slices.SortFunc(cands, func(a, b candidate) int {
			if a.at.frame != b.at.frame {
				return int(a.at.frame) - int(b.at.frame)
			}
			return int(a.at.sig) - int(b.at.sig)
		})
		best := cands[0]
		return e.branch(int(best.at.frame), best.at.sig,
			bv.NewX(1).WithBit(0, bv.Zero), bv.NewX(1).WithBit(0, bv.One))
	}
	// Conflict-activity first (branch where the conflicts are: §5's
	// learning from conflicts, kept inside one search), legal-assignment
	// bias (Definition 2) within equally-hot candidates. Before the
	// first conflict every activity is zero and the order is the pure
	// §3.2 bias order.
	slices.SortFunc(cands, func(a, b candidate) int {
		if c := cmpActivity(a, b); c != 0 {
			return c
		}
		ba, bb := a.bias(), b.bias()
		if ba != bb {
			if ba > bb {
				return -1
			}
			return 1
		}
		if a.at.frame != b.at.frame {
			return int(b.at.frame) - int(a.at.frame)
		}
		return int(a.at.sig) - int(b.at.sig)
	})
	best := cands[0]
	first := best.biasValue()
	if e.mode == ModeProve {
		// Assign the complement first so conflicts surface early.
		first = complement(first)
	}
	return e.branch(int(best.at.frame), best.at.sig,
		bv.NewX(1).WithBit(0, first), bv.NewX(1).WithBit(0, complement(first)))
}

func complement(t bv.Trit) bv.Trit {
	if t == bv.One {
		return bv.Zero
	}
	return bv.One
}

// makeDomainDecision branches over the feasible values of a
// domain-restricted register that is not yet fully known: any solution
// must assign it one of its reachable values, so the alternatives are
// exhaustive. The register with the fewest feasible values is chosen,
// among those with at most 64.
func (e *Engine) makeDomainDecision() *decision {
	bestCount := 65
	bestFrame, bestSig := 0, netlist.SignalID(netlist.None)
	e.EachDomain(func(d Domain) {
		for f := 0; f < e.frames; f++ {
			if e.vals[f][d.Sig].IsFullyKnown() {
				continue
			}
			if vals := e.domainValues(d, f, bestCount); len(vals) > 0 {
				bestCount, bestFrame, bestSig = len(vals), f, d.Sig
				e.domVals, e.domBest = e.domBest, vals
			}
		}
	})
	if bestSig == netlist.None {
		return nil
	}
	return e.domainDecision(bestFrame, bestSig, e.domBest)
}

// domainValues enumerates into pooled scratch the feasible values of
// domain d at frame f inside the signal's current cube. It stops at
// limit values and returns nil when the domain has no enumerator or
// the limit was reached.
func (e *Engine) domainValues(d Domain, f, limit int) []bv.BV {
	if d.Enumerate == nil {
		return nil
	}
	vals := e.domVals[:0]
	d.Enumerate(f, e.vals[f][d.Sig], func(v bv.BV) bool {
		vals = append(vals, v)
		return len(vals) < limit
	})
	e.domVals = vals
	if len(vals) >= limit {
		return nil
	}
	return vals
}

// domainDecision branches over the given feasible values of a domain
// register at frame f. The alternatives enumerate the feasible values
// *inside the current cube*: exhausting them refutes the cube, not the
// domain. So the conflict set starts with the levels that narrowed the
// cube, and a backjump never skips a level that could have widened the
// enumeration.
func (e *Engine) domainDecision(f int, sig netlist.SignalID, vals []bv.BV) *decision {
	d := e.branch(f, sig, vals...)
	e.traceSignalInto(&d.confSet, f, sig)
	return d
}

// EachDomain visits the registered domains in ascending SignalID order,
// so callers (and the domain-decision tie-break between domains with
// equally many feasible values) behave identically run to run.
func (e *Engine) EachDomain(fn func(Domain)) {
	for _, sig := range e.domainOrder {
		fn(e.domains[sig])
	}
}

// makeFallbackDecision branches on a signal feeding an unjustified
// gate. Candidate preference, in order:
//
//  1. highest conflict-activity score (branch inside the region that
//     is currently producing conflicts — see bumpActivity; before the
//     first conflict every score is zero and this tier is inert);
//  2. latest frame — requirements sit at the last frame and implication
//     flows backward through the registers, so a bit near the monitor
//     both propagates into a smaller cone and conflicts sooner than a
//     bit at frame 0 whose cone spans every later frame (measured on
//     arbiter p5: 15× fewer implications than the frame-agnostic rule);
//  3. narrowest signal — narrow signals are select/address-like and
//     prune the most per decision.
//
// NoConflictGuide disables tiers 1 and 2 (the PR-3 ordering changes),
// restoring the pre-PR-3 narrowest-first-encountered rule exactly, so
// the ablation pair {NoBackjump, NoConflictGuide} reproduces the old
// engine's search. A chosen register with a local FSM is branched over
// its reachable values inside its current cube, like a domain decision
// but without the 64-value cap: splitting a one-hot register bit by bit
// would cost a decision per position. Any other signal is split on its
// most significant unknown bit (word-level implication extracts the
// most from high bits — cf. Rule 2).
func (e *Engine) makeFallbackDecision(unjust []gateAt) *decision {
	useGuided := !e.features.NoConflictGuide
	bestSig := netlist.SignalID(netlist.None)
	bestFrame := 0
	bestW := 1 << 30
	bestAct := 0.0
	for _, u := range unjust {
		g := &e.nl.Gates[u.gate]
		f := int(u.frame)
		for _, s := range g.In {
			v := e.vals[f][s]
			if v.IsFullyKnown() {
				continue
			}
			w := e.nl.Width(s)
			if !useGuided {
				if w < bestW {
					bestW, bestSig, bestFrame = w, s, f
				}
				continue
			}
			act := 0.0
			if e.actScore != nil {
				act = e.activityOf(sigAt{int32(f), s})
			}
			better := bestSig == netlist.None || act > bestAct ||
				(act == bestAct && (f > bestFrame || (f == bestFrame && w < bestW)))
			if better {
				bestW, bestSig, bestFrame, bestAct = w, s, f, act
			}
		}
	}
	if bestSig == netlist.None {
		return nil
	}
	f := bestFrame
	if d, ok := e.domains[bestSig]; ok {
		if vals := e.domainValues(d, f, math.MaxInt); len(vals) > 0 {
			return e.domainDecision(f, bestSig, vals)
		}
	}
	v := e.vals[f][bestSig]
	for i := v.Width() - 1; i >= 0; i-- {
		if v.Bit(i) != bv.X {
			continue
		}
		first := bv.One
		if e.mode == ModeProve {
			first = bv.Zero
		}
		return e.branch(f, bestSig,
			bv.NewX(v.Width()).WithBit(i, first),
			bv.NewX(v.Width()).WithBit(i, complement(first)))
	}
	return nil
}

// seedGateInputs pushes the unknown inputs of a gate onto the decision
// BFS with their legal-1 probabilities per Rule 4 (plus mux/select
// handling). pOut is the legal-1 probability of the gate output
// requirement.
func (e *Engine) seedGateInputs(at gateAt, g *netlist.Gate, pOut float64) {
	f := at.frame
	// Count unknown inputs.
	nUnknown := 0
	for _, s := range g.In {
		if !e.vals[f][s].IsFullyKnown() {
			nUnknown++
		}
	}
	if nUnknown == 0 {
		return
	}
	n := float64(nUnknown)
	p1, p0 := pOut, 1-pOut
	q := 0.5
	switch g.Kind {
	case netlist.KBuf:
		q = p1
	case netlist.KNot:
		q = p0
	case netlist.KAnd, netlist.KRedAnd:
		q = p1*1.0 + p0*andZeroQ(n)
	case netlist.KOr, netlist.KRedOr:
		q = p1*orOneQ(n) + p0*0.0
	case netlist.KNand:
		q = p0*1.0 + p1*andZeroQ(n)
	case netlist.KNor:
		q = p0*orOneQ(n) + p1*0.0
	case netlist.KXor, netlist.KXnor, netlist.KRedXor:
		q = 0.5
	case netlist.KMux:
		// Select gets 0.5; data inputs inherit the output probability.
		e.cdPush(sigAt{f, g.In[0]}, 0.5)
		for _, d := range g.In[1:] {
			if !e.vals[f][d].IsFullyKnown() {
				e.cdPush(sigAt{f, d}, pOut)
			}
		}
		return
	default:
		q = 0.5
	}
	for _, s := range g.In {
		if !e.vals[f][s].IsFullyKnown() {
			e.cdPush(sigAt{f, s}, q)
		}
	}
}

// andZeroQ is the legal-1 probability of an input of an AND gate whose
// output must be 0 with n unknown inputs: (2^(n-1)-1)/(2^n-1).
func andZeroQ(n float64) float64 {
	num := math.Exp2(n-1) - 1
	den := math.Exp2(n) - 1
	if den <= 0 {
		return 0
	}
	return num / den
}

// orOneQ is the legal-1 probability of an input of an OR gate whose
// output must be 1 with n unknown inputs: 2^(n-1)/(2^n-1).
func orOneQ(n float64) float64 {
	num := math.Exp2(n - 1)
	den := math.Exp2(n) - 1
	if den <= 0 {
		return 1
	}
	return num / den
}
