// Package atpg implements the word-level sequential ATPG engine of the
// paper (§3): three-valued word-level logic implication over the RTL
// netlist (§3.1), a justification procedure that makes decisions only
// on control signals guided by legal-assignment probabilities (§3.2),
// time-frame expansion for sequential constraints, and the hand-off to
// the modular arithmetic solver for residual datapath constraints (§4).
//
// Values are three-valued cubes (internal/bv). Within one decision
// level a signal may be refined many times; every refinement pushes the
// previous cube on a trail so that backtracking restores the earlier
// *partially-implied* value, not all-x (§3.1, last paragraph).
package atpg

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bv"
	"repro/internal/linsolve"
	"repro/internal/netlist"
)

// Mode selects the decision polarity strategy (§3.2): when proving an
// assertion, counter examples are unlikely, so the engine assigns the
// complement of the bias value first to hit conflicts early; when
// generating a witness it assigns the bias value first.
type Mode uint8

// Search modes.
const (
	ModeProve Mode = iota
	ModeWitness
)

// Limits bounds the search.
type Limits struct {
	MaxBacktracks int           // 0 = default
	MaxDecisions  int           // 0 = default
	Timeout       time.Duration // 0 = none
}

// Features toggles engine components for ablation studies (all false =
// the full engine). Disabling a feature never affects soundness, only
// search effort.
type Features struct {
	// NoIdentity disables structural identity (congruence) tracking:
	// comparators over provably-equal signals are no longer forced,
	// and consensus-style properties degrade to value enumeration.
	NoIdentity bool
	// NoArithSolver disables the modular arithmetic datapath phase;
	// arithmetic requirements justify through implication and bit
	// decisions only.
	NoArithSolver bool
	// NoProbabilityOrder disables the legal-probability decision
	// ordering of §3.2; candidates are taken in structural order with
	// a fixed polarity.
	NoProbabilityOrder bool
	// NoBackjump disables conflict-driven backjumping: every conflict
	// is resolved by chronological backtracking (flip the most recent
	// decision), as in the pre-PR-3 engine. With backjumping on, the
	// engine analyses which decision levels actually fed a conflict and
	// pops uninvolved levels without re-flipping them. Verdicts are
	// identical either way (cross-checked by TestBackjumpMatchesChrono);
	// only search effort differs.
	NoBackjump bool
	// NoConflictGuide disables conflict-guided decision ordering:
	// control decisions no longer put conflict-hot candidates first, and
	// the fallback decision no longer prefers hot and late-frame
	// signals (see makeFallbackDecision).
	NoConflictGuide bool
}

// Stats reports search effort.
type Stats struct {
	Decisions    int
	Backtracks   int
	Implications int
	ArithCalls   int // modular arithmetic solver invocations
	MaxTrail     int
	// Frontier effectiveness counters: FrontierScans counts
	// unjustified-scan rounds, FrontierChecks the gate instances whose
	// justification status was actually re-evaluated across them, and
	// FrontierSkips the instances the incremental frontier proved
	// unnecessary to re-check (what a full frames×gates scan would have
	// evaluated on top). FrontierChecks/FrontierScans near the full
	// instance count means the frontier is degenerating to full scans.
	FrontierScans  int
	FrontierChecks int
	FrontierSkips  int
	// Conflict-analysis effectiveness: Backjumps counts conflicts whose
	// analysis jumped over at least one decision level, LevelsSkipped
	// the levels popped without re-flipping their alternatives (each
	// would have been a wasted subtree under chronological
	// backtracking).
	Backjumps     int
	LevelsSkipped int
	// Bit-granular filtering effectiveness: BitSkips counts trail
	// entries the needed-bit masks proved irrelevant during chain walks
	// (entries a word-level analysis would have charged), BitChainHops
	// the entries actually followed.
	BitSkips     int
	BitChainHops int
}

// Status is the outcome of a Solve call.
type Status uint8

// Solve outcomes.
const (
	StatusUnsat Status = iota // no assignment satisfies the requirements
	StatusSat                 // satisfying assignment found (counterexample)
	StatusAbort               // resource limit hit
)

func (s Status) String() string {
	switch s {
	case StatusUnsat:
		return "unsat"
	case StatusSat:
		return "sat"
	default:
		return "abort"
	}
}

// Engine is one time-frame-expanded constraint-solving instance.
type Engine struct {
	nl       *netlist.Netlist
	frames   int
	mode     Mode
	limits   Limits
	features Features

	vals  [][]bv.BV // [frame][signal], frames slices of one backing array
	trail []trailEntry
	// levelMarks[d] is the trail length when decision level d opened.
	levelMarks []int
	queue      []gateAt
	qhead      int
	// queuedStamp deduplicates the propagation queue without a map:
	// entry frame*numGates+gate equals queueGen iff the gate instance is
	// pending. Popping resets the entry to 0 (generations start at 1),
	// and clearing the whole queue is a single generation bump.
	queuedStamp []uint32
	queueGen    uint32

	stats    Stats
	deadline time.Time
	// ctx, when non-nil, cancels the search cooperatively: the Solve
	// loop polls ctx.Err() once per decision/backtrack round (the
	// check-interval budget) and returns StatusAbort when cancelled.
	// Polling never mutates search state, so an uncancelled context
	// leaves decision/implication counts bit-identical.
	ctx context.Context
	// requirements recorded for re-imply after backtracking
	reqs []requirement
	// incomplete is set when a branch is abandoned for engine
	// limitations rather than a proven conflict; an exhausted search
	// then reports Abort instead of Unsat.
	incomplete bool

	// Structural identity union-find over (frame, signal); see alias.go.
	ufParent []int32
	ufTrail  []int32
	ufMarks  []int

	// inBuf is the scratch input-cube buffer shared by implyGate and
	// unjustified (never used re-entrantly).
	inBuf []bv.BV
	// unjustBuf holds the result of the last unjustifiedGates scan; the
	// frontier re-checks exactly these instances plus the dirty set.
	unjustBuf []gateAt

	// Incremental justification frontier. A gate instance's
	// justification status depends only on the cubes of its output and
	// inputs at its own frame plus the structural-identity state, so it
	// can flip only when one of those changes. dirtyStamp/dirtyList
	// collect the instances adjacent to every signal refined since the
	// last scan (same generation-stamp idiom as the propagation queue);
	// popLevel re-marks the instances adjacent to every restored signal,
	// so backtracking re-dirties exactly what it may have flipped back.
	dirtyStamp []uint32 // frame*numGates+gate == dirtyGen iff marked
	dirtyGen   uint32
	dirtyList  []gateAt
	scanBuf    []gateAt // candidate scratch of unjustifiedGates
	// idEvent records that a structural identity was merged or un-merged
	// since the last scan: identityTrit may then have flipped for any
	// comparator, so all comparator instances rejoin the frontier.
	idEvent  bool
	cmpGates []netlist.GateID

	// Decision scratch (pooled so makeControlDecision allocates
	// nothing): flat probability accumulators and visited stamps indexed
	// frame*numSignals+sig, the BFS work queue, the candidate list and a
	// free list of decision nodes recycled as the search pops them.
	probSum    []float64
	probCnt    []int32
	probStamp  []uint32 // probSum/probCnt entry valid iff == cdGen
	visitStamp []uint32
	cdGen      uint32
	cdQueue    []sigAt
	cdQHead    int
	cdCands    []candidate
	decFree    []*decision
	decStack   []*decision
	// domVals and domBest are makeDomainDecision's enumeration scratch:
	// the values of the domain being counted, and of the best so far.
	domVals []bv.BV
	domBest []bv.BV

	// datapathPhase scratch: sparse equation terms in one backing array,
	// the variable index map (cleared, never reallocated), the dense
	// coefficient row handed to linsolve (which copies it), and the
	// pooled linear system plus its solve workspace.
	dpArith   []gateAt
	dpVarIdx  map[sigAt]int32
	dpVarList []sigAt
	dpTerms   []dpTerm
	dpEqs     []dpEq
	dpCubes   []bv.BV
	dpCoeffs  []uint64
	dpSys     *linsolve.System
	dpWS      linsolve.Workspace

	// muxFeasible is implyMuxBack's feasible-select scratch.
	muxFeasible []uint64

	// domains restricts feasible values of selected signals (local FSM
	// reachable sets, §6); checked whenever a value becomes fully known.
	domains map[netlist.SignalID]Domain
	// domainOrder keeps the registered domain signals sorted so domain
	// iteration (and therefore domain decisions) is deterministic.
	domainOrder []netlist.SignalID

	// Conflict analysis (conflict.go). lastTouch[frame*numSignals+sig]
	// indexes the newest trail entry of a signal instance (-1 = never
	// refined); curReason tags every assign with the gate instance
	// whose implication produced it (or a reason* sentinel).
	lastTouch []int32
	curReason gateAt
	// The conflict source recorded at the failure point and consumed by
	// the backjumping search loop.
	confKind  uint8
	confGate  gateAt
	confSig   sigAt
	confChron bool
	// Analysis scratch: per-trail-entry visited stamps, the worklist of
	// trail-entry indexes, and the level-set bitmask handed from an
	// exhausted decision to the next level down. All pooled; a conflict
	// analysis allocates nothing once they reach steady-state size.
	anStamp     []uint32
	anGen       uint32
	anQueue     []int32
	confScratch []uint64
	// Bit-granular analysis scratch (lazily allocated on the first
	// analysis, so probe engines never pay): anNeed[ti] accumulates the
	// changed bits of queued gate-reason trail entry ti the current
	// analysis needs explained; sigNeed/sigBound memoize, per signal
	// instance (frame*numSignals+sig, valid iff sigStamp matches anGen),
	// the needed-bit mask and trail bound the chain walk has already
	// covered, so repeated requests on one signal re-walk its chain only
	// when the request strictly grows. curFlags is the entry-flags value
	// assign stamps (set around flagged implication sub-paths).
	anNeed   []uint64
	sigNeed  []uint64
	sigBound []int32
	sigStamp []uint32
	curFlags uint8
	// ufPathBuf is addUfLevelsFor's proof-forest path scratch.
	ufPathBuf []int32
	// actScore is the conflict-activity score per signal instance
	// (frame*numSignals+sig): every decision assignment charged by a
	// conflict analysis bumps its signal's score by actInc, and actInc
	// grows geometrically so recent conflicts dominate (VSIDS-style
	// bounded decay). makeControlDecision branches on the hottest
	// candidate first, which keeps the search inside the region that is
	// actually producing conflicts instead of re-deciding unrelated
	// signals below it.
	actScore []float64
	actInc   float64
}

// Conflict-source kinds (confKind).
const (
	confNone     uint8 = iota
	confGateKind       // propagation failed at gate instance confGate
	confSigKind        // a direct requirement on confSig conflicted
	confAllKind        // unattributable (datapath solver, engine-incomplete
	// branch): analysis must charge every open decision level
	confLevelsKind // precomputed level set in confScratch (backjump hand-off)
)

// dpTerm is one sparse coefficient of a datapath equation.
type dpTerm struct {
	v int32
	c uint64
}

// dpEq is one equation: terms dpTerms[off:off+n], right-hand side and
// modulus width.
type dpEq struct {
	off   int32
	n     int32
	width int32
	rhs   uint64
}

// Reason sentinels for trailEntry.reason.gate: a negative gate id marks
// an entry that was not produced by gate implication.
const (
	// reasonFree: a decision alternative, an external requirement or an
	// initial value — the entry depends only on its own decision level.
	reasonFree netlist.GateID = -1
	// reasonSolver: a datapath-solver writeback — the value was derived
	// from equation cubes across many levels, so conflict analysis must
	// treat the entry as depending on every level up to its own.
	reasonSolver netlist.GateID = -2
)

type trailEntry struct {
	frame int32
	sig   netlist.SignalID
	prev  bv.BV
	// prevTouch chains to the previous trail entry of the same signal
	// instance (-1 at the chain end); lastTouch indexes the newest.
	prevTouch int32
	// reason identifies the gate instance whose implication produced
	// this refinement (reason.frame is the frame implyGate ran at — a
	// flip-flop implication touches signals at reason.frame and
	// reason.frame+1), or a reason* sentinel.
	reason gateAt
	// changed is the mask of bit positions (folded modulo 64 — see
	// bv.DeltaKnown) this refinement newly pinned. Bit-granular
	// conflict analysis follows an entry only when changed intersects
	// the bits the conflict needs.
	changed uint64
	// flags marks implication sub-paths whose reads the reason gate's
	// kind alone cannot describe (see entryMuxScan).
	flags uint8
}

// entryMuxScan marks a refinement produced by implyMuxBack's
// infeasible-select elimination, which reads every data cube of the
// mux whole — bit-granular analysis must charge all pins fully.
const entryMuxScan uint8 = 1

type gateAt struct {
	frame int32
	gate  netlist.GateID
}

type requirement struct {
	frame int
	sig   netlist.SignalID
	val   bv.BV
}

// Prep is the immutable, netlist-derived part of an engine: the gate
// classifications and table shapes every engine over the same netlist
// recomputes identically. It is computed once (NewPrep) and shared
// read-only by any number of concurrently-constructed engines, so a
// session layer that holds a compiled design pays only per-run state
// allocation, not re-analysis. All fields are read-only after NewPrep.
type Prep struct {
	nl       *netlist.Netlist
	maxArity int
	// cmpGates lists the comparator gate instances (frontier re-check
	// set on identity events).
	cmpGates []netlist.GateID
}

// NewPrep analyses a netlist into the shared engine tables. The
// netlist must be combinationally acyclic. The tables cover the netlist
// as it is now: one that later gains signals or gates needs a new Prep.
func NewPrep(nl *netlist.Netlist) (*Prep, error) {
	if _, err := nl.TopoOrder(); err != nil {
		return nil, err
	}
	p := &Prep{nl: nl}
	nCmp := 0
	for gi := range nl.Gates {
		if n := len(nl.Gates[gi].In); n > p.maxArity {
			p.maxArity = n
		}
		if nl.Gates[gi].Kind.IsComparator() {
			nCmp++
		}
	}
	if nCmp > 0 {
		p.cmpGates = make([]netlist.GateID, 0, nCmp)
		for gi := range nl.Gates {
			if nl.Gates[gi].Kind.IsComparator() {
				p.cmpGates = append(p.cmpGates, netlist.GateID(gi))
			}
		}
	}
	return p, nil
}

// Netlist returns the analysed netlist.
func (p *Prep) Netlist() *netlist.Netlist { return p.nl }

// New returns an engine over frames copies of the netlist, with the
// ablation switches in feats (nil: the full engine). Frame-0 flip-flop
// outputs are constrained to their initial values; pass freeInit to
// leave them unconstrained (used for inductive steps).
func New(nl *netlist.Netlist, frames int, mode Mode, limits Limits, feats *Features, freeInit bool) (*Engine, error) {
	prep, err := NewPrep(nl)
	if err != nil {
		return nil, err
	}
	var f Features
	if feats != nil {
		f = *feats
	}
	return NewWithPrep(prep, frames, mode, limits, freeInit, f)
}

// NewWithPrep is New over a pre-analysed netlist: the shared tables
// come from prep, only the per-run mutable state (value tables, trail,
// queues, scratch pools) is allocated. Engines built from the same
// Prep are fully independent and behave bit-identically to engines
// built by New.
func NewWithPrep(prep *Prep, frames int, mode Mode, limits Limits, freeInit bool, feats Features) (*Engine, error) {
	nl := prep.nl
	if frames < 1 {
		return nil, fmt.Errorf("atpg: need at least one frame")
	}
	e := &Engine{
		nl: nl, frames: frames, mode: mode, limits: limits,
		features: feats,
	}
	if e.limits.MaxBacktracks == 0 {
		e.limits.MaxBacktracks = 200000
	}
	if e.limits.MaxDecisions == 0 {
		e.limits.MaxDecisions = 1000000
	}
	// Pre-size the per-frame value tables, the dedup stamps, the queue
	// and the trail from the netlist statistics so steady-state
	// propagation appends never grow a backing array.
	nSigs, nGates := nl.NumSignals(), nl.NumGates()
	backing := make([]bv.BV, frames*nSigs)
	e.vals = make([][]bv.BV, frames)
	e.inBuf = make([]bv.BV, prep.maxArity)
	// The generation-stamp arrays and the gate-instance work lists share
	// one backing allocation each (full-slice expressions keep appends
	// from bleeding across); the decision-BFS accumulators are allocated
	// lazily on the first control decision, so propagate-only engines
	// never pay for them.
	nInst := frames * nGates
	stampBacking := make([]uint32, 2*nInst)
	e.queuedStamp = stampBacking[:nInst:nInst]
	e.dirtyStamp = stampBacking[nInst:]
	gateBacking := make([]gateAt, 3*nInst)
	e.queue = gateBacking[0:0:nInst]
	e.dirtyList = gateBacking[nInst : nInst : 2*nInst]
	e.scanBuf = gateBacking[2*nInst : 2*nInst : 3*nInst]
	e.queueGen = 1
	e.dirtyGen = 1
	e.cdGen = 1
	e.trail = make([]trailEntry, 0, frames*nSigs)
	e.cmpGates = prep.cmpGates
	e.lastTouch = make([]int32, frames*nSigs)
	for i := range e.lastTouch {
		e.lastTouch[i] = -1
	}
	e.curReason = gateAt{frame: -1, gate: reasonFree}
	e.actInc = 1
	for f := range e.vals {
		e.vals[f] = backing[f*nSigs : (f+1)*nSigs : (f+1)*nSigs]
		for s := range e.vals[f] {
			e.vals[f][s] = bv.NewX(nl.Signals[s].Width)
		}
	}
	for _, ff := range nl.FFs {
		g := &nl.Gates[ff]
		if !freeInit && !g.Init.IsAllX() {
			if !e.assign(0, g.Out, g.Init) {
				return nil, fmt.Errorf("atpg: contradictory initial values")
			}
		}
	}
	// Structural identity union-find, with the static aliases merged
	// up front: buffers, width-preserving extensions, full-range
	// slices, single-input concats and the flip-flop frame links.
	e.ufParent = make([]int32, frames*nl.NumSignals())
	for i := range e.ufParent {
		e.ufParent[i] = int32(i)
	}
	for f := 0; f < frames && !feats.NoIdentity; f++ {
		for gi := range nl.Gates {
			g := &nl.Gates[gi]
			switch g.Kind {
			case netlist.KBuf:
				e.merge(f, g.Out, f, g.In[0])
			case netlist.KZext:
				if nl.Width(g.Out) == nl.Width(g.In[0]) {
					e.merge(f, g.Out, f, g.In[0])
				}
			case netlist.KSlice:
				if g.Lo == 0 && g.Hi == nl.Width(g.In[0])-1 {
					e.merge(f, g.Out, f, g.In[0])
				}
			case netlist.KConcat:
				if len(g.In) == 1 {
					e.merge(f, g.Out, f, g.In[0])
				}
			case netlist.KDff:
				if f+1 < frames {
					e.merge(f+1, g.Out, f, g.In[0])
				}
			}
		}
	}
	// Seed one evaluation of every gate instance: constants and
	// zero-extensions produce known bits even from all-x inputs, and
	// everything else establishes its baseline implication.
	for f := 0; f < frames; f++ {
		for gi := range nl.Gates {
			if nl.Gates[gi].Kind == netlist.KDff && f+1 >= frames {
				continue
			}
			e.enqueue(f, netlist.GateID(gi))
		}
	}
	return e, nil
}

// Frames returns the number of time frames.
func (e *Engine) Frames() int { return e.frames }

// Stats returns search statistics so far.
func (e *Engine) Stats() Stats { return e.stats }

// Value returns the current cube of a signal at a frame.
func (e *Engine) Value(frame int, sig netlist.SignalID) bv.BV { return e.vals[frame][sig] }

// Domain restricts the feasible values of one signal per frame — the
// engine-side view of a local FSM's unrolled state transition graph
// (§6): a refinement whose cube contains no reachable value is a
// conflict ("avoid entering illegal states"). Working at cube
// granularity (rather than only on fully-known values) prunes partial
// assignments early: two bits pinned 1 in a one-hot-reachable register
// conflict immediately instead of after full enumeration.
type Domain struct {
	Sig netlist.SignalID
	// FeasibleIn reports whether some value feasible at frame f lies
	// inside the cube (the cube width equals the signal width).
	FeasibleIn func(frame int, cube bv.BV) bool
	// Enumerate calls fn for every feasible value at frame f that lies
	// inside the cube, until fn returns false. Used to branch directly
	// over reachable states (a decision over the local FSM's states)
	// instead of enumerating bits of derived vectors.
	Enumerate func(frame int, cube bv.BV, fn func(v bv.BV) bool)
}

// AddDomain registers a value-domain restriction on a signal of any
// width.
func (e *Engine) AddDomain(d Domain) {
	if e.domains == nil {
		e.domains = map[netlist.SignalID]Domain{}
	}
	if _, exists := e.domains[d.Sig]; !exists {
		// Keep the iteration order sorted by SignalID so EachDomain (and
		// therefore makeDomainDecision's tie-breaking between domains
		// with equally many feasible values) is deterministic.
		pos := len(e.domainOrder)
		for i, s := range e.domainOrder {
			if d.Sig < s {
				pos = i
				break
			}
		}
		e.domainOrder = append(e.domainOrder, 0)
		copy(e.domainOrder[pos+1:], e.domainOrder[pos:])
		e.domainOrder[pos] = d.Sig
	}
	e.domains[d.Sig] = d
}

// Require refines signal sig at the given frame with val and records
// the requirement (requirements are re-implied after backtracking).
// It returns false if the requirement immediately conflicts.
func (e *Engine) Require(frame int, sig netlist.SignalID, val bv.BV) bool {
	e.reqs = append(e.reqs, requirement{frame, sig, val})
	e.curReason = gateAt{frame: -1, gate: reasonFree}
	return e.assign(frame, sig, val)
}

// RequireName is Require by signal name.
func (e *Engine) RequireName(frame int, name string, val bv.BV) (bool, error) {
	sig, ok := e.nl.SignalByName(name)
	if !ok {
		return false, fmt.Errorf("atpg: no signal %q", name)
	}
	return e.Require(frame, sig, val), nil
}

// assign refines vals[frame][sig] with val; pushes the previous value
// on the trail and enqueues affected gates. Returns false on conflict.
func (e *Engine) assign(frame int, sig netlist.SignalID, val bv.BV) bool {
	cur := e.vals[frame][sig]
	// Allocation-free fast path: most implications change nothing.
	changed, conflict := cur.RefineScan(val)
	if conflict {
		return false
	}
	if !changed {
		return true
	}
	merged, _, ok := cur.Refine(val)
	if !ok {
		return false
	}
	if e.domains != nil {
		if d, has := e.domains[sig]; has {
			if !d.FeasibleIn(frame, merged) {
				return false // no reachable local-FSM state fits
			}
		}
	}
	ti := frame*e.nl.NumSignals() + int(sig)
	delta := bv.DeltaKnown(cur, merged)
	e.trail = append(e.trail, trailEntry{
		frame: int32(frame), sig: sig, prev: cur,
		prevTouch: e.lastTouch[ti], reason: e.curReason,
		changed: delta, flags: e.curFlags,
	})
	e.lastTouch[ti] = int32(len(e.trail) - 1)
	if len(e.trail) > e.stats.MaxTrail {
		e.stats.MaxTrail = len(e.trail)
	}
	e.vals[frame][sig] = merged
	e.enqueueAround(frame, sig, delta)
	e.markDirtyAround(frame, sig)
	return true
}

// markDirty adds a gate instance to the justification frontier.
// Flip-flops are skipped: they justify exactly across frames and can
// never appear in an unjustified scan.
func (e *Engine) markDirty(frame int, g netlist.GateID) {
	if e.nl.Gates[g].Kind == netlist.KDff {
		return
	}
	idx := frame*e.nl.NumGates() + int(g)
	if e.dirtyStamp[idx] == e.dirtyGen {
		return
	}
	e.dirtyStamp[idx] = e.dirtyGen
	e.dirtyList = append(e.dirtyList, gateAt{int32(frame), g})
}

// markDirtyAround marks the driver and fanout gates of a signal whose
// cube just changed (by refinement or by backtracking restore): those
// are exactly the instances whose justification status reads the cube.
func (e *Engine) markDirtyAround(frame int, sig netlist.SignalID) {
	s := &e.nl.Signals[sig]
	if s.Driver != netlist.None {
		e.markDirty(frame, s.Driver)
	}
	for _, g := range s.Fanout {
		e.markDirty(frame, g)
	}
}

// enqueueAround schedules the driver and fanout gates of a changed
// signal, including the cross-frame neighbours of flip-flops. delta is
// the folded changed-bit mask of the refinement; it filters fanout
// gates that provably cannot observe the change (a slice whose window misses every changed bit
// reads the same cube it read last time, forward and backward).
func (e *Engine) enqueueAround(frame int, sig netlist.SignalID, delta uint64) {
	s := &e.nl.Signals[sig]
	if s.Driver != netlist.None {
		g := &e.nl.Gates[s.Driver]
		if g.Kind == netlist.KDff {
			// Q at this frame constrains D at frame-1 (and is
			// constrained by it).
			if frame > 0 {
				e.enqueue(frame-1, s.Driver)
			}
		} else {
			e.enqueue(frame, s.Driver)
		}
	}
	for _, gid := range s.Fanout {
		g := &e.nl.Gates[gid]
		if g.Kind == netlist.KDff {
			// D at this frame drives Q at frame+1.
			if frame+1 < e.frames {
				e.enqueue(frame, gid)
			}
			continue
		}
		if g.Kind == netlist.KSlice && delta&foldedWindow(g.Lo, g.Hi) == 0 {
			// The slice reads only In[0][Hi:Lo]; no changed bit folds
			// into that window, so re-implying it is a no-op.
			e.stats.BitSkips++
			continue
		}
		e.enqueue(frame, gid)
	}
}

// foldedWindow returns the folded (mod 64) mask of bit positions
// lo..hi — the input window a slice gate reads. Exact for signals of
// width <= 64; for wider signals the rotation matches the folding of
// bv.DeltaKnown, so a zero intersection still proves no read bit
// changed... only in the sound direction: aliasing can only make the
// window look dirtier, never cleaner.
func foldedWindow(lo, hi int) uint64 {
	n := hi - lo + 1
	if n >= 64 {
		return ^uint64(0)
	}
	m := uint64(1)<<uint(n) - 1
	sh := uint(lo % 64)
	return m<<sh | m>>(64-sh)
}

func (e *Engine) enqueue(frame int, g netlist.GateID) {
	idx := frame*e.nl.NumGates() + int(g)
	if e.queuedStamp[idx] == e.queueGen {
		return
	}
	e.queuedStamp[idx] = e.queueGen
	e.queue = append(e.queue, gateAt{int32(frame), g})
}

// Propagate runs word-level logic implication to a fixpoint without
// making any decisions, returning false on conflict. Use it to observe
// pure implication results (the worked examples of §3.1); Solve calls
// it internally.
func (e *Engine) Propagate() bool { return e.propagate() }

// propagate drains the implication queue in FIFO order — breadth-first
// propagation visits each gate of a long chain once per wavefront
// instead of thrashing depth-first. Returns false on conflict.
func (e *Engine) propagate() bool {
	for e.qhead < len(e.queue) {
		item := e.queue[e.qhead]
		e.qhead++
		e.queuedStamp[int(item.frame)*e.nl.NumGates()+int(item.gate)] = 0
		e.stats.Implications++
		e.curReason = item
		if !e.implyGate(int(item.frame), item.gate) {
			// Leave the queue dirty; backtrack clears it. Record the
			// failing gate instance as the conflict source for analysis.
			e.setConflictGate(item)
			return false
		}
		if e.qhead == len(e.queue) {
			e.queue = e.queue[:0]
			e.qhead = 0
		} else if e.qhead > 4096 && e.qhead*2 > len(e.queue) {
			n := copy(e.queue, e.queue[e.qhead:])
			e.queue = e.queue[:n]
			e.qhead = 0
		}
	}
	return true
}

// clearQueue empties pending work (used on backtrack). Bumping the
// generation invalidates every stamp at once; the rare uint32 wrap
// falls back to zeroing the array.
func (e *Engine) clearQueue() {
	e.queue = e.queue[:0]
	e.qhead = 0
	e.queueGen++
	if e.queueGen == 0 {
		for i := range e.queuedStamp {
			e.queuedStamp[i] = 0
		}
		e.queueGen = 1
	}
}

// pushLevel opens a new decision level.
func (e *Engine) pushLevel() {
	e.levelMarks = append(e.levelMarks, len(e.trail))
	e.ufMarks = append(e.ufMarks, len(e.ufTrail))
}

// popLevel undoes all refinements of the top decision level, restoring
// the previously partially-implied values and un-merging identities.
func (e *Engine) popLevel() {
	if len(e.levelMarks) == 0 {
		return
	}
	mark := e.levelMarks[len(e.levelMarks)-1]
	e.levelMarks = e.levelMarks[:len(e.levelMarks)-1]
	for i := len(e.trail) - 1; i >= mark; i-- {
		t := e.trail[i]
		e.vals[t.frame][t.sig] = t.prev
		e.lastTouch[int(t.frame)*e.nl.NumSignals()+int(t.sig)] = t.prevTouch
		e.markDirtyAround(int(t.frame), t.sig)
	}
	e.trail = e.trail[:mark]
	ufMark := e.ufMarks[len(e.ufMarks)-1]
	e.ufMarks = e.ufMarks[:len(e.ufMarks)-1]
	if len(e.ufTrail) > ufMark {
		// Un-merging may flip identityTrit for any comparator.
		e.idEvent = true
	}
	for i := len(e.ufTrail) - 1; i >= ufMark; i-- {
		r := e.ufTrail[i]
		e.ufParent[r] = r
	}
	e.ufTrail = e.ufTrail[:ufMark]
	e.clearQueue()
	e.stats.Backtracks++
}

// level returns the current decision depth.
func (e *Engine) level() int { return len(e.levelMarks) }

// timedOut reports whether the deadline passed.
func (e *Engine) timedOut() bool {
	return !e.deadline.IsZero() && time.Now().After(e.deadline)
}

// SetContext installs a cancellation context: Solve returns StatusAbort
// promptly (within one decision/backtrack round) after ctx is
// cancelled. A nil or never-cancellable context changes nothing about
// the search — the poll is read-only — so the default single-engine
// path stays bit-identical with or without one.
func (e *Engine) SetContext(ctx context.Context) {
	if ctx != nil && ctx.Done() == nil {
		// Never cancellable (Background, TODO, value-only chains):
		// skip the per-round poll entirely.
		ctx = nil
	}
	e.ctx = ctx
}

// stopped reports whether the search must abort: the context was
// cancelled or the wall-clock deadline passed.
func (e *Engine) stopped() bool {
	if e.ctx != nil && e.ctx.Err() != nil {
		return true
	}
	return e.timedOut()
}
