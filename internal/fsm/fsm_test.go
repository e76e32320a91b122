package fsm

import (
	"testing"

	"repro/internal/bv"
	"repro/internal/netlist"
)

// buildWrapCounter builds q' = (q == wrapAt) ? 0 : q+1, init 0.
func buildWrapCounter(w int, wrapAt uint64) (*netlist.Netlist, netlist.SignalID) {
	nl := netlist.New("cnt")
	q := nl.DffPlaceholder(w, bv.FromUint64(w, 0), "q")
	wrap := nl.Binary(netlist.KEq, q, nl.ConstUint(w, wrapAt))
	inc := nl.Binary(netlist.KAdd, q, nl.ConstUint(w, 1))
	nl.ConnectDff(q, nl.Mux(wrap, inc, nl.ConstUint(w, 0)))
	return nl, q
}

func TestExtractWrapCounter(t *testing.T) {
	nl, q := buildWrapCounter(3, 5)
	ms, err := Extract(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("extracted %d machines, want 1", len(ms))
	}
	m := ms[0]
	if m.Q != q || m.Width != 3 {
		t.Errorf("machine = %+v", m)
	}
	fix := m.Values
	want := []uint64{0, 1, 2, 3, 4, 5}
	if len(fix) != len(want) {
		t.Fatalf("fixpoint = %v, want %v", fix, want)
	}
	for i := range want {
		if !fix[i].Equal(bv.FromUint64(3, want[i])) {
			t.Fatalf("fixpoint = %v, want %v", fix, want)
		}
	}
	if m.AllowedEver(bv.FromUint64(3, 6)) || m.AllowedEver(bv.FromUint64(3, 7)) {
		t.Error("6 and 7 must be unreachable")
	}
	// Per-frame unrolling: within 2 steps only {0,1,2}.
	if !m.AllowedAt(2, bv.FromUint64(3, 2)) || m.AllowedAt(2, bv.FromUint64(3, 3)) {
		t.Errorf("reach-at-2 wrong: values %v first reached at %v", m.Values, m.First)
	}
	if len(fix) >= 1<<m.Width {
		t.Error("machine should restrict")
	}
}

// TestPerFrameSets checks the counter frame by frame: it steps
// deterministically v -> v+1 up to 5, so the set within f steps is
// {0..f}, and the frame after 5 adds nothing.
func TestPerFrameSets(t *testing.T) {
	nl, _ := buildWrapCounter(3, 5)
	ms, _ := Extract(nl)
	m := ms[0]
	for f := 0; f <= 6; f++ {
		for v := uint64(0); v < 8; v++ {
			want := v <= 5 && v <= uint64(f)
			if got := m.AllowedAt(f, bv.FromUint64(3, v)); got != want {
				t.Errorf("frame %d: AllowedAt(%d) = %v, want %v", f, v, got, want)
			}
		}
	}
	if m.Frames != 7 {
		t.Errorf("frames = %d, want 7 (frames 0..5 each reach one value, frame 6 none)", m.Frames)
	}
}

func TestInputDependentMachineStillSound(t *testing.T) {
	// q' = en ? q+1 : q — successors depend on an input, so each state
	// has two successors; the full range is reachable and the machine
	// is dropped (no restriction).
	nl := netlist.New("en")
	en := nl.AddInput("en", 1)
	q := nl.DffPlaceholder(3, bv.FromUint64(3, 0), "q")
	inc := nl.Binary(netlist.KAdd, q, nl.ConstUint(3, 1))
	nl.ConnectDff(q, nl.Mux(en, q, inc))
	ms, err := Extract(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Errorf("free-running counter should not restrict; got %v", ms[0].Values)
	}
}

func TestUnknownInitSkipped(t *testing.T) {
	nl := netlist.New("noinit")
	q := nl.DffPlaceholder(2, bv.NewX(2), "q")
	nl.ConnectDff(q, q)
	ms, err := Extract(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Error("uninitialized register has no anchored STG")
	}
}

// rotator builds token' = rotate(token), init 0...01.
func rotator(n int) *netlist.Netlist {
	nl := netlist.New("rot")
	token := nl.DffPlaceholder(n, bv.FromUint64(n, 1), "token")
	hi := nl.Slice(token, n-2, 0)
	top := nl.Slice(token, n-1, n-1)
	nl.ConnectDff(token, nl.Concat(hi, top))
	return nl
}

// oneHot reports whether v has exactly one bit set.
func oneHot(v bv.BV) bool {
	ones := 0
	for i := 0; i < v.Width(); i++ {
		if v.Bit(i) == bv.One {
			ones++
		}
	}
	return ones == 1
}

func TestOneHotRotatorSTG(t *testing.T) {
	// Reachable = the 5 one-hot values only.
	ms, err := Extract(rotator(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("machines = %d", len(ms))
	}
	fix := ms[0].Values
	if len(fix) != 5 {
		t.Fatalf("fixpoint = %v, want the 5 one-hot values", fix)
	}
	for _, v := range fix {
		if !oneHot(v) {
			t.Errorf("non-one-hot reachable value %v", v)
		}
	}
}

// TestWideRotator: a 96-bit one-hot rotator, wider than a machine
// word, gets its 96 values, the bit at position f first reached at
// frame f.
func TestWideRotator(t *testing.T) {
	const n = 96
	ms, err := Extract(rotator(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("machines = %d", len(ms))
	}
	m := ms[0]
	if len(m.Values) != n || m.Frames != n+1 {
		t.Fatalf("%d values over %d frames, want %d over %d", len(m.Values), m.Frames, n, n+1)
	}
	for k, v := range m.Values {
		if !oneHot(v) || v.Bit(k) != bv.One || m.First[k] != k {
			t.Errorf("value %d = %v first reached at %d, want bit %d set at frame %d", k, v, m.First[k], k, k)
		}
	}
	top := bv.Concat(bv.FromUint64(1, 1), bv.FromUint64(n-1, 0))
	if m.AllowedAt(n-2, top) || !m.AllowedAt(n-1, top) || !m.AllowedEver(top) {
		t.Errorf("bit %d must be reachable from frame %d on, not before", n-1, n-1)
	}
	two := bv.Concat(bv.FromUint64(n-64, 0), bv.FromUint64(64, 3))
	if m.AllowedEver(two) || m.FeasibleEver(bv.Concat(bv.FromUint64(n-64, 0), bv.FromUint64(64, 0))) {
		t.Error("a value with two bits set, or none, must be unreachable")
	}
}
