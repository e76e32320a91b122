package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/netlist"
	"repro/internal/property"
)

// buildHardInstance creates a wide combinational search problem with no
// easy implication shortcuts: a parity constraint over many inputs.
func buildHardInstance(n int) (*netlist.Netlist, netlist.SignalID) {
	nl := netlist.New("hard")
	var acc netlist.SignalID
	for i := 0; i < n; i++ {
		in := nl.AddInput(name("i", i), 16)
		red := nl.Unary(netlist.KRedXor, in)
		if i == 0 {
			acc = red
		} else {
			acc = nl.Binary(netlist.KXor, acc, red)
		}
	}
	return nl, acc
}

// TestTimeoutReturnsUnknown: a check under a deadline that has already
// passed is unknown, since ctx is the only time bound a check has.
func TestTimeoutReturnsUnknown(t *testing.T) {
	nl, mon := buildHardInstance(24)
	p, _ := property.NewInvariant(nl, "parity", mon)
	c, err := New(nl, Options{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	if res := c.CheckCtx(ctx, p); res.Verdict != VerdictUnknown {
		t.Fatalf("verdict = %v, want unknown", res.Verdict)
	}
}

func TestCheckerRejectsInvalidNetlist(t *testing.T) {
	nl := netlist.New("bad")
	in := nl.AddInput("i", 1)
	b1 := nl.Unary(netlist.KBuf, in)
	b2 := nl.Unary(netlist.KBuf, b1)
	// Create a combinational cycle by surgery.
	nl.Gates[nl.Signals[b1].Driver].In[0] = b2
	if _, err := New(nl, Options{}); err == nil {
		t.Fatal("cyclic netlist accepted")
	}
}

func TestWitnessModeRespectsAssumes(t *testing.T) {
	// Witness for a&b under the assumption !b must not exist.
	nl := netlist.New("wa")
	a := nl.AddInput("a", 1)
	b := nl.AddInput("b", 1)
	target := nl.Binary(netlist.KAnd, a, b)
	nb := nl.Unary(netlist.KNot, b)
	p, _ := property.NewWitness(nl, "wa", target)
	p = p.WithAssume(nb)
	c, _ := New(nl, Options{MaxDepth: 2})
	res := c.Check(p)
	if res.Verdict != VerdictNoWitness {
		t.Fatalf("verdict = %v, want no-witness", res.Verdict)
	}
	// Without the assumption it exists.
	p2, _ := property.NewWitness(nl, "wa2", target)
	if res := c.Check(p2); res.Verdict != VerdictWitnessFound {
		t.Fatalf("verdict = %v, want witness-found", res.Verdict)
	}
}
