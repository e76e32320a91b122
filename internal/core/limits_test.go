package core

import (
	"testing"
	"time"

	"repro/internal/atpg"
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

func TestTimeoutReturnsUnknown(t *testing.T) {
	nl, mon := buildHardInstance(24)
	p, _ := property.NewInvariant(nl, "parity", mon)
	c, err := New(nl, Options{
		MaxDepth: 1,
		Limits:   atpg.Limits{Timeout: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := c.Check(p)
	if res.Verdict != VerdictUnknown && res.Verdict != VerdictFalsified {
		// A nanosecond budget must either abort or (on a very fast
		// first branch) still find the trivially falsifiable parity.
		t.Fatalf("verdict = %v", res.Verdict)
	}
}

func TestDecisionLimitAborts(t *testing.T) {
	nl, mon := buildHardInstance(24)
	// Require parity monitor to be 1 always — falsifiable, but with a
	// 1-decision budget the search cannot finish... except implication
	// may decide instantly; accept either outcome but require
	// non-crash and a conclusive-or-unknown verdict.
	p, _ := property.NewInvariant(nl, "parity", mon)
	c, _ := New(nl, Options{
		MaxDepth: 1,
		Limits:   atpg.Limits{MaxDecisions: 1, MaxBacktracks: 1},
	})
	res := c.Check(p)
	switch res.Verdict {
	case VerdictUnknown, VerdictFalsified, VerdictProved, VerdictProvedBounded:
	default:
		t.Fatalf("unexpected verdict %v", res.Verdict)
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
