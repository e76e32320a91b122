package netlist

import (
	"testing"

	"repro/internal/bv"
)

// coneDesign builds a two-part design: the monitor's cone reaches the
// input a, the uninitialized register r0 and, through r0's next state,
// the register r2; the input c and the register r1 feed only the
// output other.
func coneDesign(t *testing.T) (*Netlist, SignalID) {
	t.Helper()
	n := New("cone")
	a := n.AddInput("a", 4)
	c := n.AddInput("c", 2)
	r0 := n.DffPlaceholder(4, bv.NewX(4), "r0")
	r1 := n.DffPlaceholder(2, bv.FromUint64(2, 1), "r1")
	r2 := n.DffPlaceholder(4, bv.FromUint64(4, 5), "r2")
	n.ConnectDff(r1, n.Binary(KXor, r1, c))
	n.MarkOutput("other", r1)
	x := n.Const(bv.MustParse("4'b1x0x"))
	sum := n.Binary(KAdd, r2, a)
	n.ConnectDff(r2, n.Mux(n.Slice(a, 1, 0), sum, x, r2))
	n.ConnectDff(r0, n.Binary(KAnd, r2, x))
	mon := n.NamedBuf("mon", n.Binary(KNe, r0, n.ConstUint(4, 0)))
	n.MarkOutput("mon", mon)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n, mon
}

// TestConeKeepsOrderAndContent: the cone holds exactly the monitor's
// sequential fanin, in the design's relative order, with every name,
// width, constant, slice bound, initial value and wire as it was; the
// signal map is dense and one-to-one, and the cone's topological order
// is primed.
func TestConeKeepsOrderAndContent(t *testing.T) {
	n, mon := coneDesign(t)
	c, toCone := n.Cone(mon)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.topo == nil {
		t.Error("the cone's topological order is not primed")
	}
	if len(toCone) != n.NumSignals() {
		t.Fatalf("map covers %d signals, want %d", len(toCone), n.NumSignals())
	}
	// Dense and one-to-one: the mapped signals number the cone's
	// signals 0, 1, 2, ... in the design's order.
	toDesign := map[SignalID]SignalID{}
	next := SignalID(0)
	for s, cs := range toCone {
		if cs == None {
			continue
		}
		if cs != next {
			t.Fatalf("design signal %d maps to %d, want %d", s, cs, next)
		}
		toDesign[cs] = SignalID(s)
		next++
	}
	if int(next) != c.NumSignals() {
		t.Fatalf("map reaches %d cone signals, the cone has %d", next, c.NumSignals())
	}
	for _, name := range []string{"c", "r1", "other"} {
		if s, ok := n.SignalByName(name); ok && toCone[s] != None {
			t.Errorf("%s is outside the monitor's cone but was kept", name)
		}
	}
	for _, name := range []string{"a", "r0", "r2", "mon"} {
		s, _ := n.SignalByName(name)
		if cs, ok := c.SignalByName(name); !ok || toCone[s] != cs {
			t.Errorf("%s: cone signal %d (found %v), want %d", name, cs, ok, toCone[s])
		}
	}
	lastGate := GateID(-1)
	for cs, sig := range c.Signals {
		ds := toDesign[SignalID(cs)]
		want := n.Signals[ds]
		if sig.Name != want.Name || sig.Width != want.Width {
			t.Errorf("cone signal %d is %s/%d, design's %s/%d", cs, sig.Name, sig.Width, want.Name, want.Width)
		}
		if (sig.Driver == None) != (want.Driver == None) {
			t.Fatalf("%s: driven %v in the cone, %v in the design", sig.Name, sig.Driver != None, want.Driver != None)
		}
		if sig.Driver == None {
			continue
		}
		if sig.Driver <= lastGate {
			t.Errorf("%s: gate %d follows gate %d, out of the design's order", sig.Name, sig.Driver, lastGate)
		}
		lastGate = sig.Driver
		g, dg := c.Gates[sig.Driver], n.Gates[want.Driver]
		if g.Kind != dg.Kind || g.Hi != dg.Hi || g.Lo != dg.Lo || !g.Const.Equal(dg.Const) || !g.Init.Equal(dg.Init) {
			t.Errorf("%s: gate %+v, design's %+v", sig.Name, g, dg)
		}
		if len(g.In) != len(dg.In) {
			t.Fatalf("%s: %d inputs, design's %d", sig.Name, len(g.In), len(dg.In))
		}
		for k, in := range g.In {
			if in != toCone[dg.In[k]] {
				t.Errorf("%s: input %d is cone signal %d, want %d", sig.Name, k, in, toCone[dg.In[k]])
			}
			if !containsGate(c.Signals[in].Fanout, sig.Driver) {
				t.Errorf("%s: missing from the fanout of its input %d", sig.Name, in)
			}
		}
	}
	names := func(nl *Netlist, ids []SignalID) []string {
		var out []string
		for _, s := range ids {
			out = append(out, nl.Signals[s].Name)
		}
		return out
	}
	var ffs []SignalID
	for _, ff := range c.FFs {
		ffs = append(ffs, c.Gates[ff].Out)
	}
	if got := names(c, ffs); len(got) != 2 || got[0] != "r0" || got[1] != "r2" {
		t.Errorf("cone registers %v, want [r0 r2]", got)
	}
	if got := names(c, c.PIs); len(got) != 1 || got[0] != "a" {
		t.Errorf("cone inputs %v, want [a]", got)
	}
	if _, ok := c.POs["other"]; ok || c.POs["mon"] != toCone[mon] {
		t.Errorf("cone outputs %v, want mon alone", c.POs)
	}
}

func containsGate(gs []GateID, g GateID) bool {
	for _, x := range gs {
		if x == g {
			return true
		}
	}
	return false
}

// TestConeOfEveryRoot: roots that together reach every register keep
// every register, and a combinational root keeps none.
func TestConeOfEveryRoot(t *testing.T) {
	n, mon := coneDesign(t)
	other := n.POs["other"]
	if c, _ := n.Cone(mon, other); len(c.FFs) != len(n.FFs) || len(c.PIs) != len(n.PIs) {
		t.Errorf("cone of every output holds %d of %d registers and %d of %d inputs",
			len(c.FFs), len(n.FFs), len(c.PIs), len(n.PIs))
	}
	a, _ := n.SignalByName("a")
	lo := n.Slice(a, 0, 0)
	if c, _ := n.Cone(lo); len(c.FFs) != 0 || c.NumGates() != 1 || c.NumSignals() != 2 {
		t.Errorf("cone of a[0] has %d registers, %d gates, %d signals; want 0, 1, 2",
			len(c.FFs), c.NumGates(), c.NumSignals())
	}
}
