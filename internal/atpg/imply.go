package atpg

import (
	"slices"

	"repro/internal/bv"
	"repro/internal/modarith"
	"repro/internal/netlist"
)

// implyGate performs forward and backward word-level implication for
// one gate instance at one frame (§3.1). Returns false on conflict.
func (e *Engine) implyGate(frame int, gid netlist.GateID) bool {
	g := &e.nl.Gates[gid]
	if g.Kind == netlist.KDff {
		return e.implyDff(frame, g)
	}
	// inBuf is pre-sized to the maximum gate arity at construction; the
	// netlist is immutable while the engine lives.
	in := e.inBuf[:len(g.In)]
	for i, s := range g.In {
		in[i] = e.vals[frame][s]
	}
	out := e.vals[frame][g.Out]

	// Forward: the shared three-valued evaluation, strengthened by
	// structural identity — a comparator whose operands are provably
	// the same signal has a forced output regardless of their cubes.
	fwd := e.nl.EvalGate(g, in)
	if !e.assign(frame, g.Out, fwd) {
		return false
	}
	if t := e.identityTrit(frame, g); t != bv.X {
		if !e.assign(frame, g.Out, bv.NewX(1).WithBit(0, t)) {
			return false
		}
	}
	out = e.vals[frame][g.Out]

	// Backward: per gate class.
	switch g.Kind {
	case netlist.KBuf:
		return e.assign(frame, g.In[0], out)
	case netlist.KNot:
		return e.assign(frame, g.In[0], bv.BackNot(out))
	case netlist.KAnd:
		return e.assign(frame, g.In[0], bv.BackAnd(out, in[1])) &&
			e.assign(frame, g.In[1], bv.BackAnd(out, in[0]))
	case netlist.KOr:
		return e.assign(frame, g.In[0], bv.BackOr(out, in[1])) &&
			e.assign(frame, g.In[1], bv.BackOr(out, in[0]))
	case netlist.KXor:
		return e.assign(frame, g.In[0], bv.BackXor(out, in[1])) &&
			e.assign(frame, g.In[1], bv.BackXor(out, in[0]))
	case netlist.KNand:
		n := out.Not()
		return e.assign(frame, g.In[0], bv.BackAnd(n, in[1])) &&
			e.assign(frame, g.In[1], bv.BackAnd(n, in[0]))
	case netlist.KNor:
		n := out.Not()
		return e.assign(frame, g.In[0], bv.BackOr(n, in[1])) &&
			e.assign(frame, g.In[1], bv.BackOr(n, in[0]))
	case netlist.KXnor:
		n := out.Not()
		return e.assign(frame, g.In[0], bv.BackXor(n, in[1])) &&
			e.assign(frame, g.In[1], bv.BackXor(n, in[0]))
	case netlist.KRedAnd:
		return e.assign(frame, g.In[0], bv.BackRedAnd(out, in[0]))
	case netlist.KRedOr:
		return e.assign(frame, g.In[0], bv.BackRedOr(out, in[0]))
	case netlist.KRedXor:
		return e.implyRedXorBack(frame, g, out)
	case netlist.KAdd:
		// Fig. 3: out − known input bounds the other input.
		d0, _ := bv.BackAdd(out, in[1])
		if !e.assign(frame, g.In[0], d0) {
			return false
		}
		d1, _ := bv.BackAdd(out, e.vals[frame][g.In[0]])
		return e.assign(frame, g.In[1], d1)
	case netlist.KSub:
		// out = a - b: a = out + b; b = a - out.
		if !e.assign(frame, g.In[0], bv.BackSubMinuend(out, in[1])) {
			return false
		}
		return e.assign(frame, g.In[1], bv.BackSubSubtrahend(out, e.vals[frame][g.In[0]]))
	case netlist.KMul:
		return e.implyMulBack(frame, g, out)
	case netlist.KShl, netlist.KShr:
		return e.implyShiftBack(frame, g, out)
	case netlist.KEq:
		return e.implyEqBack(frame, g, out)
	case netlist.KNe:
		return e.implyNeBack(frame, g, out)
	case netlist.KLt, netlist.KGt, netlist.KLe, netlist.KGe:
		return e.implyCmpBack(frame, g, out)
	case netlist.KMux:
		return e.implyMuxBack(frame, g, out)
	case netlist.KConcat:
		// Exact bidirectional bit mapping.
		pos := e.nl.Width(g.Out)
		for _, s := range g.In {
			w := e.nl.Width(s)
			if !e.assign(frame, s, out.Slice(pos-1, pos-w)) {
				return false
			}
			pos -= w
		}
		return true
	case netlist.KSlice:
		return e.assign(frame, g.In[0], bv.Deposit(e.nl.Width(g.In[0]), g.Lo, out, 0, out.Width()))
	case netlist.KZext:
		inW := e.nl.Width(g.In[0])
		// High output bits must be zero when the output is wider.
		if out.Width() > inW && out.HasOneIn(inW, out.Width()-inW) {
			return false
		}
		return e.assign(frame, g.In[0], bv.BackZext(out, inW))
	case netlist.KConst:
		return true
	}
	return true
}

// implyDff links Q@frame+1 with D@frame (registers are buffers across
// the frame boundary once set/reset logic has been synthesized into
// multiplexors).
func (e *Engine) implyDff(frame int, g *netlist.Gate) bool {
	if frame+1 >= e.frames {
		return true
	}
	d := g.In[0]
	q := g.Out
	if !e.assign(frame+1, q, e.vals[frame][d]) {
		return false
	}
	return e.assign(frame, d, e.vals[frame+1][q])
}

// implyRedXorBack: when the output and all input bits but one are
// known, the remaining bit is forced.
func (e *Engine) implyRedXorBack(frame int, g *netlist.Gate, out bv.BV) bool {
	if out.Bit(0) == bv.X {
		return true
	}
	in := e.vals[frame][g.In[0]]
	unknown := -1
	parity := out.Bit(0) == bv.One
	for i := 0; i < in.Width(); i++ {
		switch in.Bit(i) {
		case bv.X:
			if unknown >= 0 {
				return true
			}
			unknown = i
		case bv.One:
			parity = !parity
		}
	}
	if unknown < 0 {
		return true // fully known; forward eval already checked
	}
	t := bv.Zero
	if parity {
		t = bv.One
	}
	return e.assign(frame, g.In[0], in.WithBit(unknown, t))
}

// implyMulBack handles backward implication through a multiplier: when
// the output and one operand are fully known (and widths fit in 64
// bits), the closed-form inverse-with-product solutions for the other
// operand are unioned into a cube refinement. This captures the §4
// wrap-around solutions exactly ((4·b) mod 16 = 12 admits b = 3 and 7).
func (e *Engine) implyMulBack(frame int, g *netlist.Gate, out bv.BV) bool {
	w := out.Width()
	if w > 64 {
		return true
	}
	c, ok := out.Uint64()
	if !ok {
		return true
	}
	m := modarith.NewMod(w)
	imply := func(knownSig, otherSig netlist.SignalID) bool {
		a, ok := e.vals[frame][knownSig].Uint64()
		if !ok {
			return true
		}
		sols := m.InverseWithProduct(a, c)
		if sols.Empty() {
			return false // no operand value can produce the output
		}
		if sols.Count() > 256 {
			return true
		}
		var cube bv.BV
		first := true
		for t := uint64(0); t < sols.Count(); t++ {
			v := bv.FromUint64(w, sols.At(t))
			if first {
				cube, first = v, false
			} else {
				cube.UnionInPlace(v)
			}
		}
		return e.assign(frame, otherSig, cube)
	}
	if !imply(g.In[0], g.In[1]) {
		return false
	}
	return imply(g.In[1], g.In[0])
}

// implyShiftBack maps output bits back through a shifter with a fully
// known shift amount, and forces low/high output bits to zero
// consistency. A shifter's output has its operand's width.
func (e *Engine) implyShiftBack(frame int, g *netlist.Gate, out bv.BV) bool {
	amtV := e.vals[frame][g.In[1]]
	s, ok := amtV.Uint64()
	if !ok {
		return true
	}
	w := out.Width()
	if s >= uint64(w) {
		return true // forward eval already forces zero output
	}
	sh := int(s)
	var in0 bv.BV
	if g.Kind == netlist.KShl {
		// out[i] = in[i-sh] for i >= sh; out[i] = 0 below.
		if out.HasOneIn(0, sh) {
			return false
		}
		in0 = bv.Deposit(w, 0, out, sh, w-sh)
	} else {
		// out[i] = in[i+sh] for i+sh < w; out high bits zero.
		if out.HasOneIn(w-sh, sh) {
			return false
		}
		in0 = bv.Deposit(w, sh, out, 0, w-sh)
	}
	return e.assign(frame, g.In[0], in0)
}

// implyEqBack: output 1 merges the operand cubes; output 0 with one
// operand fully known and a single unknown bit on the other forces that
// bit to differ.
func (e *Engine) implyEqBack(frame int, g *netlist.Gate, out bv.BV) bool {
	switch out.Bit(0) {
	case bv.One:
		a, b := e.vals[frame][g.In[0]], e.vals[frame][g.In[1]]
		if _, conflict := a.RefineScan(b); conflict {
			return false
		}
		// A satisfied equality makes the operands identical.
		return e.merge(frame, g.In[0], frame, g.In[1])
	case bv.Zero:
		if e.same(frame, g.In[0], g.In[1]) {
			return false
		}
		return e.implyForcedDiff(frame, g.In[0], g.In[1])
	}
	return true
}

func (e *Engine) implyNeBack(frame int, g *netlist.Gate, out bv.BV) bool {
	switch out.Bit(0) {
	case bv.Zero:
		a, b := e.vals[frame][g.In[0]], e.vals[frame][g.In[1]]
		if _, conflict := a.RefineScan(b); conflict {
			return false
		}
		return e.merge(frame, g.In[0], frame, g.In[1])
	case bv.One:
		if e.same(frame, g.In[0], g.In[1]) {
			return false
		}
		return e.implyForcedDiff(frame, g.In[0], g.In[1])
	}
	return true
}

// implyForcedDiff handles a ≠ b when one side is fully known and the
// other has exactly one unknown bit with all known bits equal: the
// unknown bit must take the differing value.
func (e *Engine) implyForcedDiff(frame int, sa, sb netlist.SignalID) bool {
	a, b := e.vals[frame][sa], e.vals[frame][sb]
	try := func(known, part bv.BV, partSig netlist.SignalID) bool {
		if !known.IsFullyKnown() {
			return true
		}
		want, force, conflict := forcedDiff(known, part)
		if conflict {
			return false
		}
		return !force || e.assign(frame, partSig, want)
	}
	if !try(a, b, sb) {
		return false
	}
	return try(b, a, sa)
}

// forcedDiff decides part ≠ known for a fully-known vector known, a
// word at a time: conflict when part can only equal known; force, with
// the value part must take, when part has exactly one unknown bit and
// every known bit agrees with known; neither when some known bit
// already differs or two bits are still unknown.
func forcedDiff(known, part bv.BV) (want bv.BV, force, conflict bool) {
	if bv.ConflictMask(known, part) != 0 {
		return bv.BV{}, false, false
	}
	switch part.Width() - part.KnownCount() {
	case 0:
		return bv.BV{}, false, true
	case 1:
		// The sole unknown bit takes the value known does not have there.
		want = part.Max()
		if want.Equal(known) {
			want = part.Min()
		}
		return want, true, false
	}
	return bv.BV{}, false, false
}

// implyCmpBack implements the comparator implication of Fig. 4: the
// operand cubes are translated to [min, max] intervals, tightened per
// the comparator semantics and the required output, and mapped back to
// three-valued cubes obeying Rules 1 and 2. Widths above 64 bits fall
// back to no implication (forward interval evaluation still applies).
func (e *Engine) implyCmpBack(frame int, g *netlist.Gate, out bv.BV) bool {
	t := out.Bit(0)
	if t == bv.X {
		return true
	}
	w := e.nl.Width(g.In[0])
	if w > 64 {
		return true
	}
	// Normalize everything to a strict "a > b" or "a >= b" requirement.
	aSig, bSig := g.In[0], g.In[1]
	strict := true
	switch g.Kind {
	case netlist.KGt: // a > b  (true) / a <= b (false)
		if t == bv.Zero {
			aSig, bSig, strict = bSig, aSig, false // b >= a
		}
	case netlist.KLt: // a < b
		if t == bv.One {
			aSig, bSig = bSig, aSig // b > a
		} else {
			strict = false // a >= b
		}
	case netlist.KLe: // a <= b
		if t == bv.One {
			aSig, bSig, strict = bSig, aSig, false // b >= a
		} // else a > b
	case netlist.KGe: // a >= b
		if t == bv.One {
			strict = false
		} else {
			aSig, bSig = bSig, aSig // b > a
		}
	}
	// Requirement: val(aSig) > val(bSig)   (or >= when !strict).
	a, b := e.vals[frame][aSig], e.vals[frame][bSig]
	for iter := 0; iter < 4; iter++ {
		aLo, aHi := a.MinUint64(), a.MaxUint64()
		bLo, bHi := b.MinUint64(), b.MaxUint64()
		d := uint64(1)
		if !strict {
			d = 0
		}
		// a must exceed min(b) (+1 when strict); b must stay below
		// max(a) (-1 when strict).
		newALo := aLo
		if bLo+d > newALo {
			newALo = bLo + d
		}
		newBHi := bHi
		if aHi < d { // aHi - d underflows: no feasible b
			return false
		}
		if aHi-d < newBHi {
			newBHi = aHi - d
		}
		if newALo > aHi || newBHi < bLo {
			return false
		}
		na, ok := a.TightenToRange(bv.FromUint64(w, newALo), bv.FromUint64(w, aHi))
		if !ok {
			return false
		}
		nb, ok := b.TightenToRange(bv.FromUint64(w, bLo), bv.FromUint64(w, newBHi))
		if !ok {
			return false
		}
		if na.Equal(a) && nb.Equal(b) {
			break
		}
		a, b = na, nb
	}
	return e.assign(frame, aSig, a) && e.assign(frame, bSig, b)
}

// implyMuxBack implements §3.1 "Multiplexors": with a known select the
// output and selected input merge; a data input whose cube has empty
// intersection with the output rules its select value out.
func (e *Engine) implyMuxBack(frame int, g *netlist.Gate, out bv.BV) bool {
	sel := e.vals[frame][g.In[0]]
	data := g.In[1:]
	if v, ok := sel.Uint64(); ok {
		if v >= uint64(len(data)) {
			return true
		}
		d := e.vals[frame][data[v]]
		if _, conflict := d.RefineScan(out); conflict {
			return false
		}
		// The selected input and the output are the same value.
		return e.merge(frame, data[v], frame, g.Out)
	}
	if sel.Width() > 16 {
		return true
	}
	// Collect feasible select values (pooled scratch).
	feasible := e.muxFeasible[:0]
	max := sel.MaxUint64()
	for v := sel.MinUint64(); v <= max; v++ {
		if !sel.Contains(v) {
			continue
		}
		if v >= uint64(len(data)) {
			feasible = append(feasible, v)
			continue
		}
		if _, conflict := e.vals[frame][data[v]].RefineScan(out); !conflict {
			feasible = append(feasible, v)
		}
		if v == max {
			break
		}
	}
	e.muxFeasible = feasible[:0]
	if len(feasible) == 0 {
		return false
	}
	// Union of feasible select values refines the select cube. The
	// feasibility of each value was read off every data cube whole, so
	// the refinements below are flagged for bit-granular conflict
	// analysis: their transfer must charge all pins in full.
	cube := bv.FromUint64(sel.Width(), feasible[0])
	for _, v := range feasible[1:] {
		cube.UnionInPlace(bv.FromUint64(sel.Width(), v))
	}
	e.curFlags = entryMuxScan
	ok := e.assign(frame, g.In[0], cube)
	if ok && len(feasible) == 1 && feasible[0] < uint64(len(data)) {
		d := data[feasible[0]]
		if _, conflict := e.vals[frame][d].RefineScan(e.vals[frame][g.Out]); conflict {
			ok = false
		} else {
			ok = e.merge(frame, d, frame, g.Out)
		}
	}
	e.curFlags = 0
	return ok
}

// unjustified reports whether the gate instance still needs
// justification: some known output bit is not produced by forward
// three-valued evaluation of the current inputs (§3.1: "its 3-valued
// simulation value is different from its output implied value").
func (e *Engine) unjustified(frame int, gid netlist.GateID) bool {
	g := &e.nl.Gates[gid]
	if g.Kind == netlist.KDff {
		return false // cross-frame buffers justify exactly
	}
	out := e.vals[frame][g.Out]
	if out.IsAllX() {
		return false
	}
	// Identity-forced comparators are justified by structure.
	if t := e.identityTrit(frame, g); t != bv.X {
		return out.Bit(0) != t && out.Bit(0) != bv.X
	}
	in := e.inBuf[:len(g.In)]
	for i, s := range g.In {
		in[i] = e.vals[frame][s]
	}
	// Unjustified iff some bit is known in out but x in fwd.
	return bv.DeltaKnown(e.nl.EvalGate(g, in), out) != 0
}

// unjustifiedGates returns the unjustified gate instances across all
// frames, sorted by (frame, gate) — the same order a full scan would
// produce, so decision seeding is unchanged. It is incremental: only
// the instances marked dirty since the last scan (signal refined or
// restored in their neighbourhood, or any identity change for
// comparators) plus the instances unjustified last round are
// re-evaluated; everything else provably kept its status. The returned
// slice aliases a scratch buffer valid until the next call.
func (e *Engine) unjustifiedGates() []gateAt {
	cand := e.scanBuf[:0]
	cand = append(cand, e.dirtyList...)
	if e.idEvent {
		for f := 0; f < e.frames; f++ {
			for _, g := range e.cmpGates {
				cand = append(cand, gateAt{int32(f), g})
			}
		}
	}
	cand = append(cand, e.unjustBuf...)
	slices.SortFunc(cand, func(a, b gateAt) int {
		if a.frame != b.frame {
			return int(a.frame) - int(b.frame)
		}
		return int(a.gate) - int(b.gate)
	})
	out := e.unjustBuf[:0]
	prev := gateAt{frame: -1}
	checked := 0
	for _, c := range cand {
		if c == prev {
			continue
		}
		prev = c
		checked++
		if e.unjustified(int(c.frame), c.gate) {
			out = append(out, c)
		}
	}
	e.stats.FrontierScans++
	e.stats.FrontierChecks += checked
	e.stats.FrontierSkips += e.frames*e.nl.NumGates() - checked
	e.scanBuf = cand[:0]
	e.unjustBuf = out
	// Reset the dirty set: a generation bump invalidates every stamp at
	// once; the rare uint32 wrap falls back to zeroing the array.
	e.dirtyList = e.dirtyList[:0]
	e.dirtyGen++
	if e.dirtyGen == 0 {
		for i := range e.dirtyStamp {
			e.dirtyStamp[i] = 0
		}
		e.dirtyGen = 1
	}
	e.idEvent = false
	return out
}

// fullUnjustifiedScan is the reference O(frames×gates) scan the
// frontier replaces; tests cross-check the incremental result against
// it. It does not touch frontier state.
func (e *Engine) fullUnjustifiedScan() []gateAt {
	var out []gateAt
	for f := 0; f < e.frames; f++ {
		for gi := range e.nl.Gates {
			if e.unjustified(f, netlist.GateID(gi)) {
				out = append(out, gateAt{int32(f), netlist.GateID(gi)})
			}
		}
	}
	return out
}
