package atpg

import (
	"math/rand"
	"testing"

	"repro/internal/bv"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// randSeqNetlist builds a random sequential netlist out of the control
// and comparator gate classes the justification search branches over:
// 1-bit and word-level PIs, boolean gates, muxes, comparators,
// adders, registers (some uninitialized, so induction-style frame-0
// branching happens too), and reductions collapsing words into control
// bits.
func randSeqNetlist(rng *rand.Rand) (*netlist.Netlist, netlist.SignalID) {
	nl := netlist.New("rand")
	var ctl []netlist.SignalID  // 1-bit signals
	var data []netlist.SignalID // word signals (one shared width)
	w := 2 + rng.Intn(3)
	for i := 0; i < 3; i++ {
		ctl = append(ctl, nl.AddInput("c"+string(rune('0'+i)), 1))
	}
	for i := 0; i < 3; i++ {
		data = append(data, nl.AddInput("d"+string(rune('0'+i)), w))
	}
	pickCtl := func() netlist.SignalID { return ctl[rng.Intn(len(ctl))] }
	pickData := func() netlist.SignalID { return data[rng.Intn(len(data))] }
	nGates := 8 + rng.Intn(10)
	for i := 0; i < nGates; i++ {
		switch rng.Intn(10) {
		case 0:
			ctl = append(ctl, nl.Binary(netlist.KAnd, pickCtl(), pickCtl()))
		case 1:
			ctl = append(ctl, nl.Binary(netlist.KOr, pickCtl(), pickCtl()))
		case 2:
			ctl = append(ctl, nl.Binary(netlist.KXor, pickCtl(), pickCtl()))
		case 3:
			ctl = append(ctl, nl.Unary(netlist.KNot, pickCtl()))
		case 4:
			ctl = append(ctl, nl.Binary(netlist.KEq, pickData(), pickData()))
		case 5:
			ctl = append(ctl, nl.Binary(netlist.KLt, pickData(), pickData()))
		case 6:
			data = append(data, nl.Mux(pickCtl(), pickData(), pickData()))
		case 7:
			data = append(data, nl.Binary(netlist.KAdd, pickData(), pickData()))
		case 8:
			ctl = append(ctl, nl.Unary(netlist.KRedOr, pickData()))
		case 9:
			// Register over a data word; half the time uninitialized.
			init := bv.NewX(w)
			if rng.Intn(2) == 0 {
				init = bv.FromUint64(w, uint64(rng.Intn(1<<w)))
			}
			data = append(data, nl.Dff(pickData(), init, ""))
		}
	}
	// A 1-bit register keeps the control state sequential.
	ctl = append(ctl, nl.Dff(pickCtl(), bv.FromUint64(1, uint64(rng.Intn(2))), ""))
	mon := nl.Binary(netlist.KAnd, pickCtl(), nl.Unary(netlist.KNot, pickCtl()))
	mon = nl.Binary(netlist.KOr, mon, pickCtl())
	return nl, mon
}

// runEngine solves "monitor = target" over the given frame count with
// the requested features and returns the status plus the engine (for
// witness extraction).
func runEngine(t *testing.T, nl *netlist.Netlist, mon netlist.SignalID, frames int, mode Mode, target uint64, feats Features) (Status, *Engine) {
	t.Helper()
	limits := Limits{MaxDecisions: 50000, MaxBacktracks: 100000}
	e, err := New(nl, frames, mode, limits, &feats, false)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Require(frames-1, mon, bv.FromUint64(1, target)) {
		return StatusUnsat, e
	}
	return e.Solve(), e
}

// concretize pins every still-unknown primary-input and free-register
// bit through the engine, one bit at a time with full re-propagation,
// so cross-signal constraints (structural-identity merges in
// particular) are enforced on the completion. Returns false when the
// greedy completion dead-ends — word-level implication is not complete
// enough to rule that out, so callers skip the replay check then.
func concretize(e *Engine, nl *netlist.Netlist, frames int) bool {
	freeBits := func() (int, netlist.SignalID, int, bool) {
		for f := 0; f < frames; f++ {
			for _, pi := range nl.PIs {
				v := e.Value(f, pi)
				for i := 0; i < v.Width(); i++ {
					if v.Bit(i) == bv.X {
						return f, pi, i, true
					}
				}
			}
		}
		for _, ff := range nl.FFs {
			q := nl.Gates[ff].Out
			v := e.Value(0, q)
			for i := 0; i < v.Width(); i++ {
				if v.Bit(i) == bv.X {
					return 0, q, i, true
				}
			}
		}
		return 0, 0, 0, false
	}
	for {
		f, sig, bit, ok := freeBits()
		if !ok {
			return true
		}
		w := e.Value(f, sig).Width()
		pinned := false
		for _, tr := range []bv.Trit{bv.Zero, bv.One} {
			e.pushLevel()
			if e.assign(f, sig, bv.NewX(w).WithBit(bit, tr)) && e.propagate() {
				pinned = true
				break
			}
			e.popLevel()
		}
		if !pinned {
			return false
		}
	}
}

// replayWitness concretizes a satisfied engine's assignment and
// replays it on the three-valued simulator, checking the monitor hits
// the target at the last frame. The second return is false when the
// witness could not be concretized (replay not checkable).
func replayWitness(t *testing.T, nl *netlist.Netlist, e *Engine, mon netlist.SignalID, frames int, target uint64) (bool, bool) {
	t.Helper()
	if !concretize(e, nl, frames) {
		return false, false
	}
	s, err := sim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	for _, ff := range nl.FFs {
		g := &nl.Gates[ff]
		if g.Init.IsAllX() || !g.Init.IsFullyKnown() {
			if err := s.SetRegister(g.Out, e.Value(0, g.Out).Min()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for f := 0; f < frames; f++ {
		for _, pi := range nl.PIs {
			if err := s.SetInput(pi, e.Value(f, pi).Min()); err != nil {
				t.Fatal(err)
			}
		}
		s.Eval()
		if f == frames-1 {
			got, ok := s.Get(mon).Uint64()
			return ok && got == target, true
		}
		s.Step()
	}
	return false, true
}

// TestBackjumpMatchesChrono is the PR-3 cross-check: on randomized
// sequential netlists, the backjumping engine (with and without
// conflict-activity guidance) must reach the same verdict as the chronological
// engine, and every satisfying assignment must replay on the
// simulator. Backjumping may only change the order and amount of work
// — never the answer.
func TestBackjumpMatchesChrono(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	configs := []Features{
		{NoBackjump: true, NoConflictGuide: true}, // reference: chronological
		{},                      // full: backjump + guidance + bit-grain
		{NoConflictGuide: true}, // backjump only
	}
	runs := 300
	if testing.Short() {
		runs = 60
	}
	replayed := 0
	for i := 0; i < runs; i++ {
		nl, mon := randSeqNetlist(rng)
		frames := 1 + rng.Intn(3)
		mode := ModeProve
		target := uint64(0)
		if rng.Intn(2) == 0 {
			mode, target = ModeWitness, 1
		}
		var ref Status
		for ci, feats := range configs {
			st, e := runEngine(t, nl, mon, frames, mode, target, feats)
			if st == StatusSat {
				if good, checkable := replayWitness(t, nl, e, mon, frames, target); checkable && !good {
					t.Fatalf("case %d config %d: satisfying assignment fails simulator replay", i, ci)
				} else if checkable {
					replayed++
				}
			}
			if ci == 0 {
				ref = st
				continue
			}
			// An abort leaves the search incomplete; statuses are only
			// comparable when both runs are conclusive.
			if st == StatusAbort || ref == StatusAbort {
				continue
			}
			if st != ref {
				t.Fatalf("case %d config %d (frames=%d mode=%v): status %v, chronological got %v",
					i, ci, frames, mode, st, ref)
			}
		}
	}
	// The replay check must actually bite: most satisfying assignments
	// concretize and replay.
	if replayed < runs/4 {
		t.Fatalf("only %d/%d runs exercised the simulator replay check", replayed, runs)
	}
}
