package netlist_test

import (
	"fmt"
	"testing"

	"repro/internal/bv"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// fuzzBytes hands out fuzz bytes, then zeros.
type fuzzBytes struct{ data []byte }

func (b *fuzzBytes) next() byte {
	if len(b.data) == 0 {
		return 0
	}
	c := b.data[0]
	b.data = b.data[1:]
	return c
}

// n returns a value in [0, k).
func (b *fuzzBytes) n(k int) int { return int(b.next()) % k }

// randSequential builds a small sequential netlist from fuzz bytes: up
// to four inputs and registers (some uninitialized), then up to 20
// gates over them, including constants with x bits and muxes whose
// select can pass their data list, and finally each register's next
// state.
func randSequential(b *fuzzBytes) *netlist.Netlist {
	nl := netlist.New("fuzz")
	fit := func(s netlist.SignalID, w int) netlist.SignalID {
		if nl.Width(s) == w {
			return s
		}
		return nl.Zext(s, w)
	}
	var sigs, regs []netlist.SignalID
	for i := 0; i <= b.n(4); i++ {
		sigs = append(sigs, nl.AddInput(fmt.Sprintf("in%d", i), 1+b.n(4)))
	}
	for i := 0; i <= b.n(4); i++ {
		w := 1 + b.n(4)
		init := bv.FromUint64(w, uint64(b.next()))
		if b.n(5) == 0 {
			init = bv.NewX(w)
		}
		q := nl.DffPlaceholder(w, init, fmt.Sprintf("r%d", i))
		regs = append(regs, q)
		sigs = append(sigs, q)
	}
	pick := func() netlist.SignalID { return sigs[b.n(len(sigs))] }
	for i := 0; i < 2+b.n(19); i++ {
		a := pick()
		w := nl.Width(a)
		var s netlist.SignalID
		switch b.n(7) {
		case 0:
			kinds := []netlist.Kind{netlist.KAnd, netlist.KOr, netlist.KXor, netlist.KAdd, netlist.KSub}
			s = nl.Binary(kinds[b.n(len(kinds))], a, fit(pick(), w))
		case 1:
			kinds := []netlist.Kind{netlist.KEq, netlist.KLt, netlist.KShl}
			s = nl.Binary(kinds[b.n(len(kinds))], a, fit(pick(), w))
		case 2:
			kinds := []netlist.Kind{netlist.KNot, netlist.KRedOr, netlist.KRedXor}
			s = nl.Unary(kinds[b.n(len(kinds))], a)
		case 3:
			// Up to three data inputs behind a two-bit select: a
			// select past the list gives x.
			data := []netlist.SignalID{a}
			for k := b.n(3); k > 0; k-- {
				data = append(data, fit(pick(), w))
			}
			s = nl.Mux(fit(pick(), 2), data...)
		case 4:
			c := bv.FromUint64(1+b.n(4), uint64(b.next()))
			for k := 0; k < c.Width(); k++ {
				if b.n(3) == 0 {
					c = c.WithBit(k, bv.X)
				}
			}
			s = nl.Const(c)
		case 5:
			if hi := b.n(w); b.n(2) == 0 {
				s = nl.Slice(a, hi, b.n(hi+1))
			} else {
				s = nl.Concat(a, fit(pick(), 1+b.n(3)))
			}
		default:
			s = nl.Zext(a, 1+b.n(5))
		}
		sigs = append(sigs, s)
	}
	for _, q := range regs {
		nl.ConnectDff(q, fit(pick(), nl.Width(q)))
	}
	return nl
}

// FuzzConeSimulatesLikeDesign: the cone of random roots of a random
// netlist, simulated from reset on the design's inputs, takes the value
// of its design signal in every cone signal in every cycle.
func FuzzConeSimulatesLikeDesign(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &fuzzBytes{data: data}
		nl := randSequential(b)
		if err := nl.Validate(); err != nil {
			t.Fatal(err)
		}
		var roots []netlist.SignalID
		for k := 0; k <= b.n(3); k++ {
			roots = append(roots, netlist.SignalID(b.n(nl.NumSignals())))
		}
		cone, toCone := nl.Cone(roots...)
		ds, err := sim.New(nl)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := sim.New(cone)
		if err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < 12; cycle++ {
			for _, pi := range nl.PIs {
				v := bv.FromUint64(nl.Width(pi), uint64(b.next()))
				if err := ds.SetInput(pi, v); err != nil {
					t.Fatal(err)
				}
				if c := toCone[pi]; c != netlist.None {
					if err := cs.SetInput(c, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			ds.Eval()
			cs.Eval()
			for s, c := range toCone {
				if c == netlist.None {
					continue
				}
				if got, want := cs.Get(c), ds.Get(netlist.SignalID(s)); !got.Equal(want) {
					t.Fatalf("cycle %d, roots %v: %s is %v in the cone, %v in the design",
						cycle, roots, nl.Signals[s].Name, got, want)
				}
			}
			ds.Step()
			cs.Step()
		}
	})
}
