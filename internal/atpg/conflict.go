package atpg

import (
	"math/bits"
	"sort"

	"repro/internal/bv"
	"repro/internal/netlist"
)

// Conflict-driven backjumping (the paper's §5 non-chronological
// backtracking). Every trail entry carries the decision level that
// produced it (implicitly, via its position between levelMarks) and a
// reason: the gate instance whose implication refined the cube, or a
// sentinel for decision/requirement assignments and datapath-solver
// writebacks. When propagation fails, analyzeConflictInto walks the
// reasons backward through the trail and collects the set of decision
// levels whose assignments transitively fed the conflict. The search
// accumulates that set per decision (Prosser-style CBJ): a decision
// whose alternatives are all exhausted jumps directly to the deepest
// level in its accumulated set, popping every uninvolved level in
// between without re-flipping it — those levels provably cannot repair
// the conflict — and merges the set into the jump target so the
// invariant holds inductively.
//
// Soundness notes:
//   - A gate-implied refinement is valid whenever the cubes it was
//     derived from hold, so its own level is NOT charged; only the
//     levels reached through its reason closure are.
//   - Comparator implications additionally read the structural-identity
//     union-find, whose state is shaped by merges performed at any
//     level; every level that recorded a merge is charged when a
//     comparator appears in the closure.
//   - Datapath-solver writebacks derive from equation systems spanning
//     many cubes; they are tagged reasonSolver and charge every level
//     up to their own.
//   - Decisions whose alternative *set* was enumerated from current
//     cubes (datapath factoring/solution enumeration) are marked chron:
//     exhausting them backtracks chronologically, because a skipped
//     level might have widened the enumeration. Domain decisions record
//     the precise basis instead: the levels that narrowed the
//     enumerated register's cube.
//
// Bit granularity: every trail entry records which bits it newly pinned
// (trailEntry.changed), and the analysis tracks which bits of each
// signal it actually needs explained. A per-gate-class transfer
// function maps needed output bits to the input bits that could have
// influenced them (bitwise gates bit-for-bit, adders low-to-high,
// slices/concats shifted, muxes select-in-full + data bitwise,
// interval/whole-word implications conservatively in full), and chain
// walks skip entries whose changed bits miss the needed set. Skipped
// entries are exactly the refinements a word-level analysis charges
// spuriously — their levels stay out of the conflict set, so backjumps
// reach deeper and activity bumps stay focused. Transfers only ever
// over-approximate the bits an implication read, so every charged set
// still reproduces the conflict (over-charging is always sound).

// levelSet is a bitmask over decision levels (bit l = level l; level 0,
// the requirement phase, is never set). All helpers extend storage with
// explicit zero appends so pooled sets never expose stale bits.

func setLevel(s *[]uint64, l int) {
	w := l >> 6
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << uint(l&63)
}

func clearLevel(s []uint64, l int) {
	if w := l >> 6; w < len(s) {
		s[w] &^= 1 << uint(l&63)
	}
}

// setLevelsUpTo sets every level 1..l.
func setLevelsUpTo(s *[]uint64, l int) {
	if l < 1 {
		return
	}
	w := l >> 6
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	for i := 0; i < w; i++ {
		(*s)[i] = ^uint64(0)
	}
	(*s)[w] |= ^uint64(0) >> uint(63-l&63)
	(*s)[0] &^= 1 // level 0 is not a decision level
}

func mergeLevelSet(dst *[]uint64, src []uint64) {
	for len(*dst) < len(src) {
		*dst = append(*dst, 0)
	}
	for i, w := range src {
		(*dst)[i] |= w
	}
}

// levelSetMax returns the highest set level, or 0 when the set is
// empty.
func levelSetMax(s []uint64) int {
	for w := len(s) - 1; w >= 0; w-- {
		if s[w] != 0 {
			return w<<6 + bits.Len64(s[w]) - 1
		}
	}
	return 0
}

// setConflictGate records a propagation failure at a gate instance.
func (e *Engine) setConflictGate(at gateAt) {
	e.confKind = confGateKind
	e.confGate = at
}

// setConflictSig records a failed direct requirement on one signal.
func (e *Engine) setConflictSig(frame int, sig netlist.SignalID) {
	e.confKind = confSigKind
	e.confSig = sigAt{int32(frame), sig}
}

// setConflictAll records a conflict that cannot be attributed (datapath
// solver infeasibility, engine-incomplete branch): analysis charges
// every open decision level, reproducing chronological behavior.
func (e *Engine) setConflictAll() {
	e.confKind = confAllKind
}

// setConflictLevels hands a precomputed level set (an exhausted
// decision's accumulated conflict set, already copied to confScratch)
// to the next analysis.
func (e *Engine) setConflictLevels(chron bool) {
	e.confKind = confLevelsKind
	e.confChron = chron
}

// levelOf maps a trail index to the decision level that appended it:
// the number of level marks at or below the index.
func (e *Engine) levelOf(idx int) int {
	return sort.SearchInts(e.levelMarks, idx+1)
}

// addUfLevels charges every decision level that recorded at least one
// structural-identity merge.
func (e *Engine) addUfLevels(dst *[]uint64) {
	for l := 1; l <= len(e.ufMarks); l++ {
		end := len(e.ufTrail)
		if l < len(e.ufMarks) {
			end = e.ufMarks[l]
		}
		if e.ufMarks[l-1] < end {
			setLevel(dst, l)
		}
	}
}

// addUfLevelsFor is addUfLevels' bit-granular counterpart: it charges
// only the decision levels whose merges the compared pins' identity
// actually rests on. identityTrit forces a comparator output only when
// both operands sit in one merged class; when the pins are not merged
// at all the implication read cubes only and no merge level is owed.
// The union-find does no path compression and parents are only ever
// assigned to roots, so the parent chains form a proof forest: the
// chains from a and b meet at the first common ancestor exactly as
// they did when the classes joined, and the edges below that meeting
// point are precisely the merges connecting a to b. Merges elsewhere
// in the class (hooking unrelated signals on) are not charged — the
// identity replays without them.
func (e *Engine) addUfLevelsFor(dst *[]uint64, f int, a, b netlist.SignalID, bump bool) {
	if e.features.NoIdentity || a == b || e.nl.Width(a) != e.nl.Width(b) {
		return // identityTrit read no merges for this pair
	}
	na, nb := int32(e.ufIdx(f, a)), int32(e.ufIdx(f, b))
	if e.ufFind(na) != e.ufFind(nb) {
		return
	}
	path := e.ufPathBuf[:0]
	for n := na; ; n = e.ufParent[n] {
		path = append(path, n)
		if e.ufParent[n] == n {
			break
		}
	}
	e.ufPathBuf = path[:0]
	lcaIdx := -1
	for n := nb; lcaIdx < 0; n = e.ufParent[n] {
		for i, p := range path {
			if p == n {
				lcaIdx = i
				break
			}
		}
		if lcaIdx < 0 {
			// Edge n -> parent lies on b's side of the connecting path.
			e.chargeUfEdge(dst, n, bump)
		}
	}
	for _, n := range path[:lcaIdx] {
		e.chargeUfEdge(dst, n, bump)
	}
}

// chargeUfEdge charges the decision level of one proof-forest edge and,
// for real-conflict traces, bumps the level's decision signal: the
// merge rests on that decision as directly as a charged free entry
// does.
func (e *Engine) chargeUfEdge(dst *[]uint64, node int32, bump bool) {
	l := e.ufEdgeLevel(node)
	if l == 0 {
		return
	}
	setLevel(dst, l)
	if bump {
		dec := &e.trail[e.levelMarks[l-1]]
		e.bumpActivity(int(dec.frame), dec.sig)
	}
}

// ufEdgeLevel returns the decision level of the merge that assigned
// node its current parent edge (the ufTrail segment holding the node),
// or 0 for requirement-phase merges, which are charge-free.
func (e *Engine) ufEdgeLevel(node int32) int {
	for l := len(e.ufMarks); l >= 1; l-- {
		end := len(e.ufTrail)
		if l < len(e.ufMarks) {
			end = e.ufMarks[l]
		}
		for i := e.ufMarks[l-1]; i < end; i++ {
			if e.ufTrail[i] == node {
				return l
			}
		}
	}
	return 0
}

// analyzeConflictInto merges the decision levels involved in the
// recorded conflict into dst, excluding cur (the level whose
// alternative just failed — its involvement is implicit).
func (e *Engine) analyzeConflictInto(dst *[]uint64, cur int) {
	kind := e.confKind
	e.confKind = confNone
	// Activity scores are only bumped when something reads them.
	bump := !e.features.NoConflictGuide
	switch kind {
	case confGateKind:
		e.beginTrace()
		e.ensureBitScratch()
		e.pushNeedGate(e.confGate, dst, int32(len(e.trail)), bump)
		e.drainNeedTrace(dst, bump)
	case confSigKind:
		e.beginTrace()
		e.ensureBitScratch()
		e.pushNeedSig(dst, int(e.confSig.frame), e.confSig.sig, int32(len(e.trail)), fullNeed, bump)
		e.drainNeedTrace(dst, bump)
	case confLevelsKind:
		if e.confChron {
			setLevelsUpTo(dst, cur-1)
		} else {
			mergeLevelSet(dst, e.confScratch)
		}
	default:
		// confAllKind, or no recorded source (defensive).
		setLevelsUpTo(dst, cur-1)
	}
	clearLevel(*dst, cur)
}

// traceSignalInto collects the decision levels that (transitively)
// narrowed one signal instance's cube — the enumeration basis of a
// domain decision.
func (e *Engine) traceSignalInto(dst *[]uint64, frame int, sig netlist.SignalID) {
	e.beginTrace()
	e.pushConflictSig(frame, sig, int32(len(e.trail)))
	e.drainTrace(dst)
}

// beginTrace resets the trail-entry visited stamps for one analysis.
// The per-signal needed-bit memo shares the generation, so it is
// invalidated by the same bump.
func (e *Engine) beginTrace() {
	if len(e.anStamp) < len(e.trail) {
		grown := make([]uint32, cap(e.trail))
		copy(grown, e.anStamp)
		e.anStamp = grown
		grownNeed := make([]uint64, cap(e.trail))
		copy(grownNeed, e.anNeed)
		e.anNeed = grownNeed
	}
	e.anGen++
	if e.anGen == 0 {
		for i := range e.anStamp {
			e.anStamp[i] = 0
		}
		for i := range e.sigStamp {
			e.sigStamp[i] = 0
		}
		e.anGen = 1
	}
	e.anQueue = e.anQueue[:0]
}

// ensureBitScratch lazily allocates the per-signal needed-bit memo the
// first time a conflict is analysed, so probe engines and conflict-free
// runs never pay for it. Entries are valid only when their
// sigStamp matches the current anGen.
func (e *Engine) ensureBitScratch() {
	if e.sigStamp == nil {
		n := e.frames * e.nl.NumSignals()
		e.sigStamp = make([]uint32, n)
		e.sigNeed = make([]uint64, n)
		e.sigBound = make([]int32, n)
	}
}

// fullNeed is the all-bits needed mask: conflict sources and transfer
// functions without bit structure request every bit of a pin.
const fullNeed = ^uint64(0)

// lowMask64 returns a mask of the n low bits (all bits for n >= 64).
func lowMask64(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// witnessBit picks one bit of the contradiction mask m to witness a
// branch elimination, preferring a bit this analysis already needs on
// (frame, sig) — any witnessing bit is sound, and riding an existing
// charge avoids pulling a fresh decision level into the conflict set.
func (e *Engine) witnessBit(frame int, sig netlist.SignalID, m uint64) uint64 {
	si := frame*e.nl.NumSignals() + int(sig)
	if e.sigStamp[si] == e.anGen {
		if c := m & e.sigNeed[si]; c != 0 {
			m = c
		}
	}
	return m & -m
}

// pushConflictSig enqueues the trail entries of one signal instance's
// refinement chain older than bound (each refinement of the cube as of
// that moment may have contributed). The bound is what keeps analysis
// precise: an implication recorded at trail position t read the cubes
// as of t, so refinements appended later — typically by deeper
// decision levels — are provably irrelevant to it. The visited stamps
// compose with bounds: a chain first walked under a smaller bound is
// extended, never re-walked, under a larger one.
func (e *Engine) pushConflictSig(frame int, sig netlist.SignalID, bound int32) {
	ti := e.lastTouch[frame*e.nl.NumSignals()+int(sig)]
	for ti >= bound {
		ti = e.trail[ti].prevTouch
	}
	for ti >= 0 && e.anStamp[ti] != e.anGen {
		e.anStamp[ti] = e.anGen
		e.anQueue = append(e.anQueue, ti)
		ti = e.trail[ti].prevTouch
	}
}

// pushConflictGate enqueues the refinement chains (older than bound) of
// every signal a gate instance's implication reads.
func (e *Engine) pushConflictGate(at gateAt, dst *[]uint64, bound int32) {
	g := &e.nl.Gates[at.gate]
	f := int(at.frame)
	if g.Kind.IsComparator() {
		e.addUfLevels(dst)
	}
	if g.Kind == netlist.KDff {
		// implyDff at frame f links D@f with Q@f+1.
		e.pushConflictSig(f, g.In[0], bound)
		if f+1 < e.frames {
			e.pushConflictSig(f+1, g.Out, bound)
		}
		return
	}
	e.pushConflictSig(f, g.Out, bound)
	for _, s := range g.In {
		e.pushConflictSig(f, s, bound)
	}
}

// drainTrace processes queued trail entries word by word: decision/
// requirement entries contribute their own level, solver writebacks
// charge every level up to their own, and gate-implied entries recurse
// through the implying gate's signals. It collects a basis, not a
// conflict, so it leaves the conflict-activity scores alone.
func (e *Engine) drainTrace(dst *[]uint64) {
	for len(e.anQueue) > 0 {
		ti := e.anQueue[len(e.anQueue)-1]
		e.anQueue = e.anQueue[:len(e.anQueue)-1]
		ent := &e.trail[ti]
		switch ent.reason.gate {
		case reasonFree:
			if l := e.levelOf(int(ti)); l > 0 {
				setLevel(dst, l)
			}
		case reasonSolver:
			setLevelsUpTo(dst, e.levelOf(int(ti)))
		default:
			e.pushConflictGate(ent.reason, dst, ti)
		}
	}
}

// pushNeedSig is pushConflictSig's bit-granular counterpart: it
// requests an explanation for the given bits of one signal instance's
// refinements older than bound. The per-signal memo (sigNeed/sigBound,
// valid for the current generation) makes repeated requests cheap:
// when the accumulated coverage already includes the request nothing
// is walked; otherwise the request is merged in and the chain
// re-walked under the accumulated mask and bound. Entries whose
// changed bits miss the mask are skipped — the refinements a
// word-level analysis charges spuriously. Decision/requirement and
// solver entries are charged inline exactly once, at their first hit;
// gate-implied entries queue for transfer expansion, re-queueing when
// a later request grows the bits they must explain (expansion is
// monotone, so reprocessing with the grown mask is sound and the
// per-signal memo keeps it cheap).
func (e *Engine) pushNeedSig(dst *[]uint64, frame int, sig netlist.SignalID, bound int32, need uint64, bump bool) {
	if need == 0 {
		return
	}
	si := frame*e.nl.NumSignals() + int(sig)
	if e.sigStamp[si] == e.anGen {
		if need&^e.sigNeed[si] == 0 && bound <= e.sigBound[si] {
			return // covered by an earlier request
		}
		need |= e.sigNeed[si]
		if bound < e.sigBound[si] {
			bound = e.sigBound[si]
		}
	}
	e.sigStamp[si] = e.anGen
	e.sigNeed[si] = need
	e.sigBound[si] = bound
	ti := e.lastTouch[si]
	for ti >= bound {
		ti = e.trail[ti].prevTouch
	}
	for ti >= 0 {
		ent := &e.trail[ti]
		hit := ent.changed & need
		if e.anStamp[ti] == e.anGen {
			if ent.reason.gate >= 0 && hit&^e.anNeed[ti] != 0 {
				e.anNeed[ti] |= hit
				e.anQueue = append(e.anQueue, ti)
			}
			ti = ent.prevTouch
			continue
		}
		if hit == 0 {
			e.stats.BitSkips++
			ti = ent.prevTouch
			continue
		}
		e.anStamp[ti] = e.anGen
		e.stats.BitChainHops++
		switch ent.reason.gate {
		case reasonFree:
			if l := e.levelOf(int(ti)); l > 0 {
				setLevel(dst, l)
				if bump {
					e.bumpActivity(int(ent.frame), ent.sig)
				}
			}
		case reasonSolver:
			setLevelsUpTo(dst, e.levelOf(int(ti)))
		default:
			e.anNeed[ti] = hit
			e.anQueue = append(e.anQueue, ti)
		}
		ti = ent.prevTouch
	}
}

// pushNeedAllPins requests need bits of a gate instance's output and
// every input under one bound.
func (e *Engine) pushNeedAllPins(dst *[]uint64, g *netlist.Gate, f int, bound int32, need uint64, bump bool) {
	e.pushNeedSig(dst, f, g.Out, bound, need, bump)
	for _, s := range g.In {
		e.pushNeedSig(dst, f, s, bound, need, bump)
	}
}

// pushNeedBoolPins is the value-aware and/or-family transfer. Written
// bit values are stable — known bits never unpin — so the value a pin
// carries today is the value the implication wrote, and the and/or
// controlling-value structure narrows what it read:
//
//   - an input forced to the non-controlling value was implied by the
//     output alone (BackAnd/BackOr force 1/0 from out 1/0 without
//     consulting the sibling);
//   - an input forced to the controlling value read the output and the
//     siblings (they had to sit at the non-controlling value);
//   - an output at the controlled value was produced by any one
//     controlling input — and any input currently at the controlling
//     value re-derives it on replay, so one such witness suffices;
//   - an output at the non-controlled value read every input.
func (e *Engine) pushNeedBoolPins(dst *[]uint64, g *netlist.Gate, f int, bound int32, sig netlist.SignalID, W uint64, bump bool) {
	for W != 0 {
		k := bits.TrailingZeros64(W)
		W &^= 1 << uint(k)
		m := uint64(1) << uint(k)
		v := e.vals[f][sig].Bit(k)
		if v == bv.X {
			// Defensive: requested bit not pinned — charge every pin.
			e.pushNeedAllPins(dst, g, f, bound, m, bump)
			continue
		}
		if sig == g.Out {
			e.pushNeedBoolOut(dst, g, f, bound, k, v, bump)
			continue
		}
		e.pushNeedSig(dst, f, g.Out, bound, m, bump)
		if v == boolControlling(g.Kind) {
			for _, s := range g.In {
				if s != sig {
					e.pushNeedSig(dst, f, s, bound, m, bump)
				}
			}
		}
	}
}

// pushNeedBoolOut explains an and/or-family gate producing value v at
// output bit k (shared by entry expansion, where v is the written
// output bit, and conflict-source seeding, where v is the contradicting
// forward value).
func (e *Engine) pushNeedBoolOut(dst *[]uint64, g *netlist.Gate, f int, bound int32, k int, v bv.Trit, bump bool) {
	m := uint64(1) << uint(k)
	eo := v
	if g.Kind == netlist.KNand || g.Kind == netlist.KNor {
		eo = flipTrit(eo)
	}
	cv := boolControlling(g.Kind)
	controlled := eo == bv.Zero
	if g.Kind == netlist.KOr || g.Kind == netlist.KNor {
		controlled = eo == bv.One
	}
	if controlled {
		// Any input at the controlling value witnesses the output alone;
		// prefer one this analysis already needs the bit of, so the
		// witness rides an existing charge.
		first := netlist.SignalID(-1)
		for _, s := range g.In {
			if e.vals[f][s].Bit(k) != cv {
				continue
			}
			si := f*e.nl.NumSignals() + int(s)
			if e.sigStamp[si] == e.anGen && e.sigNeed[si]&m != 0 {
				e.pushNeedSig(dst, f, s, bound, m, bump)
				return
			}
			if first < 0 {
				first = s
			}
		}
		if first >= 0 {
			e.pushNeedSig(dst, f, first, bound, m, bump)
			return
		}
		// Defensive: no controlling witness visible — charge every input.
	}
	for _, s := range g.In {
		e.pushNeedSig(dst, f, s, bound, m, bump)
	}
}

// boolControlling returns the input value that forces an and/or-family
// gate's output regardless of its siblings.
func boolControlling(k netlist.Kind) bv.Trit {
	if k == netlist.KAnd || k == netlist.KNand {
		return bv.Zero
	}
	return bv.One
}

func flipTrit(t bv.Trit) bv.Trit {
	if t == bv.Zero {
		return bv.One
	}
	return bv.Zero
}

// pushNeedShiftOut explains a contradicted dynamic-shift output bit k
// whose forward value is Zero. The bit is zero because every amount
// value that could route a non-zero input bit to position k is ruled
// out — by a known amount bit differing from that value, or by a known
// zero at the source input position. One witness bit per candidate
// amount value suffices (known bits never unpin, so each exclusion
// still holds on replay); amount values the cube cannot represent are
// structurally excluded and charge nothing. Returns false when the
// shape doesn't apply and the caller must fall back to the generic
// transfer (any pushes already made just over-charge, which is sound).
func (e *Engine) pushNeedShiftOut(dst *[]uint64, g *netlist.Gate, f int, bound int32, k int, fwd bv.BV, bump bool) bool {
	if fwd.Bit(k) != bv.Zero {
		return false
	}
	in, amt := e.vals[f][g.In[0]], e.vals[f][g.In[1]]
	inW, amtW := in.Width(), amt.Width()
	for s := 0; s < 64; s++ {
		var src int
		if g.Kind == netlist.KShl {
			src = k - s
			if src < 0 {
				break
			}
		} else {
			src = k + s
			if src >= inW {
				break
			}
		}
		if amtW < 64 && s >= 1<<uint(amtW) {
			break // not representable in the amount: excluded for free
		}
		if m := bv.ConflictMask(amt, bv.FromUint64(amtW, uint64(s))); m != 0 {
			m = e.witnessBit(f, g.In[1], m)
			e.pushNeedSig(dst, f, g.In[1], bound, m, bump)
			continue
		}
		if in.Bit(src) != bv.Zero {
			return false // no visible exclusion; fall back
		}
		e.pushNeedSig(dst, f, g.In[0], bound, uint64(1)<<uint(src), bump)
	}
	return true
}

// pushNeedGate seeds a bit-granular analysis with its conflict source.
// The cubes are still live when the analysis runs (the conflicting
// level is popped strictly afterwards), so the contradiction the
// implication hit can be re-derived and its witness used as the seed —
// CBJ only requires that the charged levels reproduce *a* conflict at
// this gate, and any currently-derivable contradiction qualifies:
//
//   - Eq/Ne whose operand cubes contradict outright: one witnessing
//     bit pair explains the conflict; the 100+-bit operand histories a
//     word-level seed drags in are spurious.
//   - Eq/Ne forced by structural identity against a pinned output: the
//     union-find class levels plus the output chain suffice — the
//     operand cubes were never read.
//   - Any narrow gate whose forward evaluation contradicts the output
//     cube (the dominant decoder case: a one-hot shift result against
//     required enable bits): only the contradicted output bits and the
//     pin bits flowing into them (via the gate transfer) are owed.
//
// When no witness is identifiable the seed falls back to every pin in
// full — precision then comes from the per-entry transfer narrowing
// during the walk.
func (e *Engine) pushNeedGate(at gateAt, dst *[]uint64, bound int32, bump bool) {
	g := &e.nl.Gates[at.gate]
	f := int(at.frame)
	if g.Kind.IsComparator() {
		e.addUfLevelsFor(dst, f, g.In[0], g.In[1], bump)
	}
	if g.Kind == netlist.KDff {
		e.pushNeedSig(dst, f, g.In[0], bound, fullNeed, bump)
		if f+1 < e.frames {
			e.pushNeedSig(dst, f+1, g.Out, bound, fullNeed, bump)
		}
		return
	}
	if g.Kind == netlist.KEq || g.Kind == netlist.KNe {
		a, b := e.vals[f][g.In[0]], e.vals[f][g.In[1]]
		if m := bv.ConflictMask(a, b); m != 0 {
			m &= -m // one witnessing (folded) bit position suffices
			e.pushNeedSig(dst, f, g.In[0], bound, m, bump)
			e.pushNeedSig(dst, f, g.In[1], bound, m, bump)
			e.pushNeedSig(dst, f, g.Out, bound, fullNeed, bump)
			return
		}
		if e.same(f, g.In[0], g.In[1]) {
			e.pushNeedSig(dst, f, g.Out, bound, fullNeed, bump)
			return
		}
	}
	small := e.nl.Width(g.Out) <= 64
	for _, s := range g.In {
		if e.nl.Width(s) > 64 {
			small = false
			break
		}
	}
	if small && g.Kind != netlist.KConst {
		// Narrow pins only: wide evaluation may allocate, and analysis
		// must stay zero-alloc.
		in := e.inBuf[:len(g.In)]
		for i, s := range g.In {
			in[i] = e.vals[f][s]
		}
		fwd := e.nl.EvalGate(g, in)
		if contra := bv.ConflictMask(fwd, e.vals[f][g.Out]); contra != 0 {
			contra &= -contra // one contradicted bit witnesses the conflict
			e.pushNeedSig(dst, f, g.Out, bound, contra, bump)
			switch g.Kind {
			case netlist.KAnd, netlist.KOr, netlist.KNand, netlist.KNor:
				// Explain the *forward* value (the one contradicting the
				// output chain), not the written cube bit.
				k := bits.TrailingZeros64(contra)
				e.pushNeedBoolOut(dst, g, f, bound, k, fwd.Bit(k), bump)
			case netlist.KShl, netlist.KShr:
				if !e.pushNeedShiftOut(dst, g, f, bound, bits.TrailingZeros64(contra), fwd, bump) {
					e.expandGateNeed(dst, g, f, bound, g.Out, contra, bump)
				}
			default:
				e.expandGateNeed(dst, g, f, bound, g.Out, contra, bump)
			}
			return
		}
	}
	e.pushNeedAllPins(dst, g, f, bound, fullNeed, bump)
}

// drainNeedTrace expands queued gate-implied entries through their
// transfer functions until the needed-bit closure is complete.
func (e *Engine) drainNeedTrace(dst *[]uint64, bump bool) {
	for len(e.anQueue) > 0 {
		ti := e.anQueue[len(e.anQueue)-1]
		e.anQueue = e.anQueue[:len(e.anQueue)-1]
		e.expandEntryNeed(dst, ti, bump)
	}
}

// expandEntryNeed maps the needed bits of one gate-implied trail entry
// through the implying gate's transfer function: given that the
// analysis needs W of the bits this entry pinned, it requests the pin
// bits that could have influenced them. Every case over-approximates
// the bits imply.go actually read — over-charging is always sound —
// and narrows only where the implication provably reads bitwise
// (boolean gates, slices, concats, zext, mux data) or low-to-high
// (add/sub ripple).
func (e *Engine) expandEntryNeed(dst *[]uint64, ti int32, bump bool) {
	ent := &e.trail[ti]
	at := ent.reason
	g := &e.nl.Gates[at.gate]
	f := int(at.frame)
	W := e.anNeed[ti]
	if g.Kind == netlist.KDff {
		// implyDff copies D@f <-> Q@f+1 bit for bit.
		e.pushNeedSig(dst, f, g.In[0], ti, W, bump)
		if f+1 < e.frames {
			e.pushNeedSig(dst, f+1, g.Out, ti, W, bump)
		}
		return
	}
	if g.Kind.IsComparator() {
		// Comparator implications also read the structural-identity
		// union-find (identityTrit) — but only the merges in the
		// compared pins' own class.
		e.addUfLevelsFor(dst, f, g.In[0], g.In[1], bump)
	}
	if ent.flags&entryMuxScan != 0 {
		// Mux feasible-scan entries (select narrowing and the single-
		// feasible merge): the write depended on the eliminated branches
		// staying eliminated and — for the merge — on the surviving
		// branch bitwise. Eliminations are monotone: known bits never
		// unpin, so a data/output contradiction observed at scan time
		// still holds now, and one currently-witnessing bit per
		// eliminated branch is a sound explanation; replay re-eliminates
		// at least the same branches. A branch with no witness survived
		// the scan: a select entry owes it nothing (ruling a value *in*
		// needs no justification — values are ruled in by default and
		// only leave the cube through an elimination or through prior
		// select bits, both charged here), while a merge entry copied
		// its bits into the output, so the needed bits transfer to the
		// merge partner unchanged.
		e.pushNeedSig(dst, f, g.In[0], ti, fullNeed, bump)
		selEntry := ent.sig == g.In[0]
		for _, d := range g.In[1:] {
			if m := bv.ConflictMask(e.vals[f][d], e.vals[f][g.Out]); m != 0 {
				m = e.witnessBit(f, g.Out, m)
				e.pushNeedSig(dst, f, d, ti, m, bump)
				e.pushNeedSig(dst, f, g.Out, ti, m, bump)
			} else if !selEntry {
				if d != ent.sig {
					e.pushNeedSig(dst, f, d, ti, W, bump)
				}
				if ent.sig != g.Out {
					e.pushNeedSig(dst, f, g.Out, ti, W, bump)
				}
			}
		}
		return
	}
	e.expandGateNeed(dst, g, f, ti, ent.sig, W, bump)
}

// expandGateNeed requests, for a refinement of sig produced by gate g
// at frame f, the pin bits that could have influenced the needed bits W
// of that refinement. Shared by trail-entry expansion and the
// conflict-source seeding (which synthesizes sig = g.Out with the
// contradicted output bits as W).
func (e *Engine) expandGateNeed(dst *[]uint64, g *netlist.Gate, f int, bound int32, sig netlist.SignalID, W uint64, bump bool) {
	// Pins wider than 64 bits carry folded masks (bit j stands for
	// bits j, j+64, ...): bitwise and mux transfers are unaffected,
	// offset transfers (slice/concat) become rotations, and ripple
	// transfers (add/sub) lose their order and fall back to full.
	wide := e.nl.Width(g.Out) > 64
	for _, s := range g.In {
		if e.nl.Width(s) > 64 {
			wide = true
			break
		}
	}
	switch g.Kind {
	case netlist.KBuf, netlist.KNot, netlist.KXor, netlist.KXnor:
		// Bitwise: bit i of any pin interacts only with bit i of the
		// others (the per-bit Back* formulas); folding preserves this.
		e.pushNeedAllPins(dst, g, f, bound, W, bump)
	case netlist.KAnd, netlist.KOr, netlist.KNand, netlist.KNor:
		if wide {
			// Folded masks make per-bit value lookups ambiguous.
			e.pushNeedAllPins(dst, g, f, bound, W, bump)
			return
		}
		e.pushNeedBoolPins(dst, g, f, bound, sig, W, bump)
	case netlist.KAdd, netlist.KSub:
		if wide {
			e.pushNeedAllPins(dst, g, f, bound, fullNeed, bump)
			return
		}
		// Ripple structure: bit i of AddCarry/SubBorrow (forward and
		// the Back* rearrangements) depends only on operand bits <= i,
		// so needing W needs pin bits up to W's highest bit.
		e.pushNeedAllPins(dst, g, f, bound, lowMask64(bits.Len64(W)), bump)
	case netlist.KZext:
		if sig == g.Out {
			e.pushNeedSig(dst, f, g.In[0], bound, W, bump)
		} else {
			e.pushNeedSig(dst, f, g.Out, bound, W, bump)
		}
	case netlist.KSlice:
		// out bit i mirrors in bit i+Lo; folded, an offset of Lo is a
		// rotation by Lo mod 64 (rotation, not shift, when any pin is
		// wide: folded positions wrap instead of overflowing).
		if sig == g.Out {
			if wide {
				e.pushNeedSig(dst, f, g.In[0], bound, bits.RotateLeft64(W, g.Lo&63), bump)
			} else {
				e.pushNeedSig(dst, f, g.In[0], bound, W<<uint(g.Lo), bump)
			}
		} else {
			if wide {
				e.pushNeedSig(dst, f, g.Out, bound, bits.RotateLeft64(W, -(g.Lo&63)), bump)
			} else {
				e.pushNeedSig(dst, f, g.Out, bound, W>>uint(g.Lo), bump)
			}
		}
	case netlist.KConcat:
		// MSB-first: input s occupies out bits [pos, pos+width(s)).
		if sig == g.Out {
			pos := e.nl.Width(g.Out)
			for _, s := range g.In {
				w := e.nl.Width(s)
				pos -= w
				var m uint64
				if wide {
					m = bits.RotateLeft64(W, -(pos&63)) & lowMask64(w)
				} else {
					m = (W >> uint(pos)) & lowMask64(w)
				}
				e.pushNeedSig(dst, f, s, bound, m, bump)
			}
		} else {
			pos := e.nl.Width(g.Out)
			outNeed := uint64(0)
			for _, s := range g.In {
				w := e.nl.Width(s)
				pos -= w
				if s == sig {
					if wide {
						outNeed |= bits.RotateLeft64(W&lowMask64(w), pos&63)
					} else {
						outNeed |= (W & lowMask64(w)) << uint(pos)
					}
				}
			}
			e.pushNeedSig(dst, f, g.Out, bound, outNeed, bump)
		}
	case netlist.KShl, netlist.KShr:
		// The shift amount steers every output bit: charged in full.
		e.pushNeedSig(dst, f, g.In[1], bound, fullNeed, bump)
		if sig == g.In[1] {
			// No implication writes the amount today; if one ever does,
			// charge everything rather than mis-map amount-space bits
			// through the data mirror below.
			e.pushNeedAllPins(dst, g, f, bound, fullNeed, bump)
			return
		}
		if sig == g.Out {
			// Forward refinements union over every amount feasible at
			// the time, potentially reading any input bit.
			e.pushNeedSig(dst, f, g.In[0], bound, fullNeed, bump)
			return
		}
		// Input-side refinements only happen under a fully known
		// amount, and known bits never unpin: the amount read then is
		// still readable now. in[j] mirrors out[j+s] (Shl) / out[j-s]
		// (Shr); folded masks turn the offset into a rotation.
		if s, ok := e.vals[f][g.In[1]].Uint64(); ok && s < 64 {
			sh := int(s)
			var m uint64
			switch {
			case g.Kind == netlist.KShl && wide:
				m = bits.RotateLeft64(W, sh)
			case g.Kind == netlist.KShl:
				m = W << uint(sh)
			case wide: // KShr
				m = bits.RotateLeft64(W, -sh)
			default: // KShr
				m = W >> uint(sh)
			}
			e.pushNeedSig(dst, f, g.Out, bound, m, bump)
		} else {
			e.pushNeedSig(dst, f, g.Out, bound, fullNeed, bump)
		}
	case netlist.KMux:
		if sig == g.Out {
			// Forward eval / known-select merge: the select is read in
			// full (it picks the source), the data cubes bitwise. This
			// is the decoder win — a conflict on a few output bits no
			// longer charges whole data-word histories.
			e.pushNeedSig(dst, f, g.In[0], bound, fullNeed, bump)
			for _, s := range g.In[1:] {
				e.pushNeedSig(dst, f, s, bound, W, bump)
			}
		} else if sig != g.In[0] {
			// A data-pin refinement (known-select merge) reads the
			// select in full and the output bitwise.
			e.pushNeedSig(dst, f, g.In[0], bound, fullNeed, bump)
			e.pushNeedSig(dst, f, g.Out, bound, W, bump)
		} else {
			// Select refinements come from the feasible scan, which
			// reads everything (flagged entries exit above; defensive).
			e.pushNeedAllPins(dst, g, f, bound, fullNeed, bump)
		}
	default:
		// Reductions, multipliers, shifts, comparators, constants:
		// whole-word or interval implications — every bit of every pin.
		e.pushNeedAllPins(dst, g, f, bound, fullNeed, bump)
	}
}

// bumpActivity raises the conflict-activity score of a decision
// signal. The increment grows geometrically per conflict (see
// endConflict), so ordering by score favors recently-conflicting
// signals (VSIDS-style bounded decay).
func (e *Engine) bumpActivity(frame int, sig netlist.SignalID) {
	if e.actScore == nil {
		e.actScore = make([]float64, e.frames*e.nl.NumSignals())
	}
	e.actScore[frame*e.nl.NumSignals()+int(sig)] += e.actInc
}

// endConflict inflates the activity increment after a conflict
// analysis, rescaling everything down when it approaches overflow.
func (e *Engine) endConflict() {
	if e.features.NoConflictGuide {
		return
	}
	e.actInc *= 1.05
	if e.actInc > 1e100 {
		for i := range e.actScore {
			e.actScore[i] *= 1e-100
		}
		e.actInc *= 1e-100
	}
}

// activityOf returns the conflict-activity score of a signal instance.
func (e *Engine) activityOf(at sigAt) float64 {
	if e.actScore == nil {
		return 0
	}
	return e.actScore[int(at.frame)*e.nl.NumSignals()+int(at.sig)]
}

// backjump resolves the recorded conflict by conflict-directed
// backjumping. It flips the deepest decision's next alternative like
// chronological backtracking does, but on exhaustion jumps straight to
// the deepest decision level in the accumulated conflict set, popping
// every level in between unflipped. Returns false when the search
// space is exhausted.
func (e *Engine) backjump(stack *[]*decision) bool {
	for len(*stack) > 0 {
		n := len(*stack)
		d := (*stack)[n-1]
		e.analyzeConflictInto(&d.confSet, n)
		e.endConflict()
		e.popLevel()
		d.idx++
		if d.idx < len(d.alts) {
			e.pushLevel()
			if e.applyAlt(d.alts[d.idx]) {
				return true
			}
			continue // applyAlt recorded the fresh conflict
		}
		// Exhausted: every alternative failed for reasons confined to
		// confSet, so decisions at levels above its maximum could not
		// have repaired any of them.
		*stack = (*stack)[:n-1]
		target := n - 1
		if !d.chron {
			target = levelSetMax(d.confSet)
		}
		e.confScratch = append(e.confScratch[:0], d.confSet...)
		chron := d.chron
		e.putDecision(d)
		if skip := len(*stack) - target; skip > 0 {
			e.stats.Backjumps++
			e.stats.LevelsSkipped += skip
			for len(*stack) > target {
				dd := (*stack)[len(*stack)-1]
				*stack = (*stack)[:len(*stack)-1]
				e.popLevel()
				e.putDecision(dd)
			}
		}
		if len(*stack) == 0 {
			return false
		}
		// Hand the accumulated set to the jump target and flip it.
		e.setConflictLevels(chron)
	}
	return false
}
