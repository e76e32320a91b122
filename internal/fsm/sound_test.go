package fsm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bv"
	"repro/internal/circuits"
	"repro/internal/fsm"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// randValue returns a uniformly random fully-known value of width w.
func randValue(rng *rand.Rand, w int) bv.BV {
	v := bv.FromUint64(min(w, 64), rng.Uint64())
	for lo := 64; lo < w; lo += 64 {
		v = bv.Concat(bv.FromUint64(min(w-lo, 64), rng.Uint64()), v)
	}
	return v
}

// checkSimulatedStates runs the design from reset for steps cycles
// under the inputs next draws, and reports every fully-known register
// value at step f that lies outside its machine's frame-f set.
func checkSimulatedStates(t *testing.T, nl *netlist.Netlist, ms []*fsm.Machine, steps int, next func(w int) bv.BV) {
	t.Helper()
	s, err := sim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; ; f++ {
		for _, m := range ms {
			if v := s.Get(m.Q); v.IsFullyKnown() && !m.AllowedAt(f, v) {
				t.Fatalf("%s: step %d reaches %v, outside the machine's frame-%d set %v (first reached at %v)",
					nl.Signals[m.Q].Name, f, v, f, m.Values, m.First)
			}
		}
		if f == steps {
			return
		}
		for _, pi := range nl.PIs {
			if err := s.SetInput(pi, next(nl.Width(pi))); err != nil {
				t.Fatal(err)
			}
		}
		s.Step()
	}
}

// TestMachinesContainSimulatedStates is the soundness oracle on the
// benchmark corpus: a machine must contain every value its register
// takes in simulation, frame by frame, under random inputs from reset.
func TestMachinesContainSimulatedStates(t *testing.T) {
	ds, err := circuits.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []func() (*circuits.Design, error){
		func() (*circuits.Design, error) { return circuits.Arbiter(24) },
		func() (*circuits.Design, error) { return circuits.TokenRing(96) },
		func() (*circuits.Design, error) { return circuits.Industry01(64) },
	} {
		d, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	for i, d := range ds {
		ms, err := fsm.Extract(d.NL)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		for run := 0; run < 8; run++ {
			checkSimulatedStates(t, d.NL, ms, 64, func(w int) bv.BV { return randValue(rng, w) })
		}
	}
}

// allowsCompletions reports whether every completion of a cube of at
// most 16 unknown bits is in m's frame-f set.
func allowsCompletions(m *fsm.Machine, f int, cube bv.BV) bool {
	var xs []int
	for i := 0; i < cube.Width(); i++ {
		if cube.Bit(i) == bv.X {
			xs = append(xs, i)
		}
	}
	for c := 0; c < 1<<len(xs); c++ {
		v := cube
		for k, i := range xs {
			v = v.WithBit(i, bv.Trit(c>>k&1))
		}
		if !m.AllowedAt(f, v) {
			return false
		}
	}
	return true
}

// oneMachine extracts the only machine of nl.
func oneMachine(t *testing.T, nl *netlist.Netlist) *fsm.Machine {
	t.Helper()
	ms, err := fsm.Extract(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("extracted %d machines, want 1", len(ms))
	}
	return ms[0]
}

// TestMuxPastDataListIsFree: q' = {0, data[sel]} over three data
// words, so sel = 3 leaves the low bits x. The machine must allow every
// value that x allows, 3 included, not just the three data words.
func TestMuxPastDataListIsFree(t *testing.T) {
	nl := netlist.New("muxpast")
	sel := nl.AddInput("sel", 2)
	q := nl.DffPlaceholder(3, bv.FromUint64(3, 0), "q")
	low := nl.Mux(sel, nl.ConstUint(2, 0), nl.ConstUint(2, 1), nl.ConstUint(2, 2))
	nl.ConnectDff(q, nl.Concat(nl.ConstUint(1, 0), low))
	m := oneMachine(t, nl)
	s, err := sim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetInput(sel, bv.FromUint64(2, 3)); err != nil {
		t.Fatal(err)
	}
	s.Step()
	if got := s.Get(q); got.String() != "3'b0xx" || !allowsCompletions(m, 1, got) {
		t.Errorf("after sel=3, q = %v; machine allows only %v", got, m.Values)
	}
	if m.AllowedEver(bv.FromUint64(3, 4)) {
		t.Errorf("machine %v allows 4, whose top bit is constant 0", m.Values)
	}
}

// TestXConstantIsFree: q' = {0, 2'bx1}, so q can reach 1 and 3. The
// machine must allow both, not only the value the x bit reads as 0.
func TestXConstantIsFree(t *testing.T) {
	nl := netlist.New("xconst")
	q := nl.DffPlaceholder(3, bv.FromUint64(3, 0), "q")
	nl.ConnectDff(q, nl.Concat(nl.ConstUint(1, 0), nl.Const(bv.MustParse("2'bx1"))))
	m := oneMachine(t, nl)
	s, err := sim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	if got := s.Get(q); got.String() != "3'b0x1" || !allowsCompletions(m, 1, got) {
		t.Errorf("after one step, q = %v; machine allows only %v", got, m.Values)
	}
	if len(m.Values) != 3 {
		t.Errorf("machine values = %v, want 0, 1 and 3", m.Values)
	}
}

// TestWideShiftAmount: q' = q >> amt or q << amt, where the only amount
// bit that can be set is bit 63 or bit 64. Either one shifts every bit
// out, so q goes from 0x18 to 0 in one step. The expected set is stated
// directly: the simulator's shifts take amounts of at most 64 bits.
func TestWideShiftAmount(t *testing.T) {
	want := fmt.Sprint([]bv.BV{bv.FromUint64(8, 0), bv.FromUint64(8, 0x18)}, []int{1, 0})
	for _, kind := range []netlist.Kind{netlist.KShr, netlist.KShl} {
		for _, bit := range []int{63, 64} {
			nl := netlist.New("wideshift")
			on := nl.AddInput("on", 1)
			q := nl.DffPlaceholder(8, bv.FromUint64(8, 0x18), "q")
			nl.ConnectDff(q, nl.Binary(kind, q, nl.Concat(on, nl.ConstUint(bit, 0))))
			m := oneMachine(t, nl)
			if got := fmt.Sprint(m.Values, m.First); got != want {
				t.Errorf("%v by amount bit %d: machine values and first frames %s, want %s", kind, bit, got, want)
			}
		}
	}
}

// byteSource hands out fuzz bytes, then zeros.
type byteSource struct{ data []byte }

func (b *byteSource) next() byte {
	if len(b.data) == 0 {
		return 0
	}
	c := b.data[0]
	b.data = b.data[1:]
	return c
}

// n returns a value in [0, k).
func (b *byteSource) n(k int) int { return int(b.next()) % k }

// randNetlist builds a small sequential netlist from fuzz bytes: up to
// three inputs and registers (some uninitialized), then up to 16 gates
// of every kind over them, including constants with x bits and muxes
// whose select can pass their data list, and finally each register's
// next state.
func randNetlist(b *byteSource) *netlist.Netlist {
	nl := netlist.New("fuzz")
	fit := func(s netlist.SignalID, w int) netlist.SignalID {
		if nl.Width(s) == w {
			return s
		}
		return nl.Zext(s, w)
	}
	var sigs, regs []netlist.SignalID
	for i := 0; i <= b.n(3); i++ {
		sigs = append(sigs, nl.AddInput(fmt.Sprintf("in%d", i), 1+b.n(4)))
	}
	for i := 0; i <= b.n(3); i++ {
		w := 1 + b.n(5)
		init := bv.FromUint64(w, uint64(b.next()))
		if b.n(6) == 0 {
			init = bv.NewX(w)
		}
		q := nl.DffPlaceholder(w, init, fmt.Sprintf("r%d", i))
		regs = append(regs, q)
		sigs = append(sigs, q)
	}
	pick := func() netlist.SignalID { return sigs[b.n(len(sigs))] }
	for i := 0; i < 2+b.n(15); i++ {
		a := pick()
		w := nl.Width(a)
		var s netlist.SignalID
		switch b.n(9) {
		case 0:
			kinds := []netlist.Kind{netlist.KAnd, netlist.KOr, netlist.KXor, netlist.KNand, netlist.KNor, netlist.KXnor}
			s = nl.Binary(kinds[b.n(len(kinds))], a, fit(pick(), w))
		case 1:
			kinds := []netlist.Kind{netlist.KAdd, netlist.KSub, netlist.KMul}
			s = nl.Binary(kinds[b.n(len(kinds))], a, fit(pick(), w))
		case 2:
			kinds := []netlist.Kind{netlist.KShl, netlist.KShr}
			s = nl.Binary(kinds[b.n(len(kinds))], a, pick())
		case 3:
			kinds := []netlist.Kind{netlist.KEq, netlist.KNe, netlist.KLt, netlist.KGt, netlist.KLe, netlist.KGe}
			s = nl.Binary(kinds[b.n(len(kinds))], a, fit(pick(), w))
		case 4:
			kinds := []netlist.Kind{netlist.KBuf, netlist.KNot, netlist.KRedAnd, netlist.KRedOr, netlist.KRedXor}
			s = nl.Unary(kinds[b.n(len(kinds))], a)
		case 5:
			data := []netlist.SignalID{a}
			for k := b.n(4); k > 0; k-- {
				data = append(data, fit(pick(), w))
			}
			s = nl.Mux(fit(pick(), 1+b.n(2)), data...)
		case 6:
			c := bv.FromUint64(1+b.n(4), uint64(b.next()))
			xmask := b.next()
			for k := 0; k < c.Width(); k++ {
				if xmask>>k&1 == 1 && b.n(2) == 0 {
					c = c.WithBit(k, bv.X)
				}
			}
			s = nl.Const(c)
		case 7:
			if hi := b.n(w); b.n(2) == 0 {
				s = nl.Slice(a, hi, b.n(hi+1))
			} else {
				s = nl.Concat(a, fit(pick(), 1+b.n(3)))
			}
		default:
			s = nl.Zext(a, 1+b.n(6))
		}
		sigs = append(sigs, s)
	}
	for _, q := range regs {
		nl.ConnectDff(q, fit(pick(), nl.Width(q)))
	}
	return nl
}

// FuzzMachinesContainSimulatedStates is the soundness oracle on random
// netlists: every fully-known value a register takes in simulation
// must lie in its machine's set for that frame.
func FuzzMachinesContainSimulatedStates(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &byteSource{data: data}
		nl := randNetlist(b)
		ms, err := fsm.Extract(nl)
		if err != nil {
			t.Fatal(err)
		}
		checkSimulatedStates(t, nl, ms, 12, func(w int) bv.BV {
			return bv.FromUint64(w, uint64(b.next()))
		})
	})
}
