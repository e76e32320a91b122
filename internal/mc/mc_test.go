package mc

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bdd"
	"repro/internal/bv"
	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/internal/property"
)

func buildCounterMax(wrapAt uint64) (*netlist.Netlist, netlist.SignalID) {
	nl := netlist.New("cnt")
	q := nl.DffPlaceholder(3, bv.FromUint64(3, 0), "q")
	wrap := nl.Binary(netlist.KEq, q, nl.ConstUint(3, wrapAt))
	inc := nl.Binary(netlist.KAdd, q, nl.ConstUint(3, 1))
	next := nl.Mux(wrap, inc, nl.ConstUint(3, 0))
	nl.ConnectDff(q, next)
	return nl, q
}

func TestReachabilityProves(t *testing.T) {
	nl, q := buildCounterMax(5)
	b := property.Builder{NL: nl}
	p, _ := property.NewInvariant(nl, "range", b.InRange(q, 0, 5))
	res := Check(nl, p, Options{})
	if res.Verdict != Proved {
		t.Fatalf("verdict = %v, want proved", res.Verdict)
	}
	// Exactly 6 reachable states: 0..5.
	if res.States != 6 {
		t.Errorf("states = %v, want 6", res.States)
	}
	if res.PeakNodes == 0 {
		t.Error("no nodes counted")
	}
}

func TestReachabilityFalsifies(t *testing.T) {
	nl, q := buildCounterMax(6)
	b := property.Builder{NL: nl}
	p, _ := property.NewInvariant(nl, "range", b.InRange(q, 0, 5))
	res := Check(nl, p, Options{})
	if res.Verdict != Falsified {
		t.Fatalf("verdict = %v, want falsified", res.Verdict)
	}
	if res.Iters != 6 {
		t.Errorf("depth = %d, want 6", res.Iters)
	}
}

func TestWitnessReachability(t *testing.T) {
	nl, q := buildCounterMax(5)
	b := property.Builder{NL: nl}
	p, _ := property.NewWitness(nl, "reach3", b.Reaches(q, 3))
	res := Check(nl, p, Options{})
	if res.Verdict != Falsified { // "reached" for witnesses
		t.Fatalf("verdict = %v, want reached", res.Verdict)
	}
	if res.Iters != 3 {
		t.Errorf("reached at %d, want 3", res.Iters)
	}
}

func TestInputsDriveTransitions(t *testing.T) {
	// q' = en ? q+1 : q, init 0; with a free input the counter can stay
	// or advance: reachable = all 8 states eventually; q==7 reachable.
	nl := netlist.New("en-cnt")
	en := nl.AddInput("en", 1)
	q := nl.DffPlaceholder(3, bv.FromUint64(3, 0), "q")
	inc := nl.Binary(netlist.KAdd, q, nl.ConstUint(3, 1))
	next := nl.Mux(en, q, inc)
	nl.ConnectDff(q, next)
	b := property.Builder{NL: nl}
	p, _ := property.NewWitness(nl, "reach7", b.Reaches(q, 7))
	res := Check(nl, p, Options{})
	if res.Verdict != Falsified {
		t.Fatalf("verdict = %v, want reached", res.Verdict)
	}
	if res.Iters != 7 {
		t.Errorf("reached at %d, want 7", res.Iters)
	}
}

func TestAssumptionsRestrict(t *testing.T) {
	// With en assumed 0 the counter never moves: q==1 unreachable.
	nl := netlist.New("held")
	en := nl.AddInput("en", 1)
	q := nl.DffPlaceholder(3, bv.FromUint64(3, 0), "q")
	inc := nl.Binary(netlist.KAdd, q, nl.ConstUint(3, 1))
	next := nl.Mux(en, q, inc)
	nl.ConnectDff(q, next)
	enOff := nl.Unary(netlist.KNot, en)
	b := property.Builder{NL: nl}
	p, _ := property.NewInvariant(nl, "stuck", b.Reaches(q, 0))
	p = p.WithAssume(enOff)
	res := Check(nl, p, Options{})
	if res.Verdict != Proved {
		t.Fatalf("verdict = %v, want proved (q stays 0)", res.Verdict)
	}
	if res.States != 1 {
		t.Errorf("states = %v, want 1", res.States)
	}
}

func TestNodeBudgetGivesUnknown(t *testing.T) {
	// A multiplier-fed register with a tiny node budget must blow up.
	nl := netlist.New("blow")
	a := nl.AddInput("a", 8)
	bIn := nl.AddInput("b", 8)
	prod := nl.Binary(netlist.KMul, a, bIn)
	q := nl.Dff(prod, bv.FromUint64(8, 0), "q")
	pb := property.Builder{NL: nl}
	p, _ := property.NewInvariant(nl, "never255", pb.NeverValue(q, 255))
	res := Check(nl, p, Options{MaxNodes: 300})
	if res.Verdict != Unknown {
		t.Fatalf("verdict = %v, want unknown (node blow-up)", res.Verdict)
	}
}

// heldCounter is a counter with a wrap plus an input-held branch, and
// properties that exercise proved, falsified and witness verdicts.
func heldCounter() (*netlist.Netlist, []property.Property) {
	nl := netlist.New("cmp")
	en := nl.AddInput("en", 1)
	q := nl.DffPlaceholder(3, bv.FromUint64(3, 0), "q")
	wrap := nl.Binary(netlist.KEq, q, nl.ConstUint(3, 5))
	inc := nl.Binary(netlist.KAdd, q, nl.ConstUint(3, 1))
	step := nl.Mux(wrap, inc, nl.ConstUint(3, 0))
	nl.ConnectDff(q, nl.Mux(en, q, step))
	pb := property.Builder{NL: nl}
	inRange, _ := property.NewInvariant(nl, "in-range", pb.InRange(q, 0, 5))
	never3, _ := property.NewInvariant(nl, "never-3", pb.NeverValue(q, 3))
	reach5, _ := property.NewWitness(nl, "reach-5", pb.Reaches(q, 5))
	return nl, []property.Property{inRange, never3, reach5}
}

// TestCompiledMatchesDirect pins the compile/load path against the
// direct path: checking through a Compiled model (snapshot loaded into
// a fresh manager per call) must reproduce the direct CheckCtx result
// exactly — verdict, iteration count, state count and node count — for
// every property kind, and repeated/concurrent calls must agree.
func TestCompiledMatchesDirect(t *testing.T) {
	nl, props := heldCounter()

	comp, err := Compile(nl, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range props {
		direct := Check(nl, p, Options{})
		loaded := comp.CheckCtx(context.Background(), p, Options{})
		if direct.Verdict != loaded.Verdict || direct.Iters != loaded.Iters ||
			direct.States != loaded.States || direct.PeakNodes != loaded.PeakNodes {
			t.Errorf("%s: direct {%v iters=%d states=%v nodes=%d}, compiled {%v iters=%d states=%v nodes=%d}",
				p.Name, direct.Verdict, direct.Iters, direct.States, direct.PeakNodes,
				loaded.Verdict, loaded.Iters, loaded.States, loaded.PeakNodes)
		}
	}

	for _, p := range props {
		if r := Check(nl, p, Options{}); r.Partitions == 0 || r.QuantDepth == 0 {
			t.Errorf("%s: run reports no schedule (parts=%d qdepth=%d)",
				p.Name, r.Partitions, r.QuantDepth)
		}
	}

	// Concurrent sessions over one compiled model: private managers,
	// identical answers.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := props[w%len(props)]
			direct := Check(nl, p, Options{})
			got := comp.CheckCtx(context.Background(), p, Options{})
			if got.Verdict != direct.Verdict || got.Iters != direct.Iters {
				t.Errorf("worker %d %s: %v/%d, want %v/%d", w, p.Name,
					got.Verdict, got.Iters, direct.Verdict, direct.Iters)
			}
		}()
	}
	wg.Wait()
}

// TestCancelledCheckSkipsLoad: a compiled check whose context is
// already cancelled returns unknown without copying the snapshot, which
// is 38 MB for Industry01(64).
func TestCancelledCheckSkipsLoad(t *testing.T) {
	d, err := circuits.Industry01(64)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Compile(d.NL, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := comp.CheckCtx(ctx, d.Props[0], Options{})
	runtime.ReadMemStats(&m1)
	if res.Verdict != Unknown {
		t.Errorf("cancelled check returned %v, want unknown", res.Verdict)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Errorf("cancelled check allocated %d KB, want under 1 MB", got>>10)
	}
}

// TestCompileRespectsNodeBudget: a design that blows the build budget
// fails to compile with an error instead of panicking.
func TestCompileRespectsNodeBudget(t *testing.T) {
	nl := netlist.New("blow2")
	a := nl.AddInput("a", 8)
	bIn := nl.AddInput("b", 8)
	q := nl.Dff(nl.Binary(netlist.KMul, a, bIn), bv.FromUint64(8, 0), "q")
	_ = q
	if _, err := Compile(nl, CompileOptions{MaxNodes: 300}); err == nil {
		t.Fatal("compile under a tiny node budget succeeded, want error")
	}
}

// TestStateCountPastFloatRange: a design with more than 1023 state and
// input bits still gets its exact state count. Counting over every BDD
// variable overflowed to +Inf there, and dividing by the equally
// infinite don't-care factor gave NaN.
func TestStateCountPastFloatRange(t *testing.T) {
	nl := netlist.New("wide-input")
	in := nl.AddInput("in", 1100)
	q := nl.Dff(nl.Slice(in, 7, 0), bv.FromUint64(8, 0), "q")
	pb := property.Builder{NL: nl}
	p, err := property.NewInvariant(nl, "in-range", pb.InRange(q, 0, 255))
	if err != nil {
		t.Fatal(err)
	}
	res := Check(nl, p, Options{})
	if res.Verdict != Proved || res.States != 256 {
		t.Fatalf("got %v with %v states, want proved with 256", res.Verdict, res.States)
	}
}

// monolithicImage is the conjoin-then-quantify image the partitioned
// fold replaced, kept as the reference every fold step must equal: the
// clusters conjoined into one transition relation T, then
// ∃ current,input . T ∧ reached ∧ assume in a single quantification.
func monolithicImage(m *bdd.Manager, mo *model, reached, assume bdd.Ref) bdd.Ref {
	tr := bdd.True
	for _, p := range mo.parts {
		tr = m.And(tr, p)
	}
	img := m.Exists(m.And(m.And(tr, reached), assume), func(v int) bool { return mo.quantOK[v] })
	return m.Rename(img, func(v int) int { return v - 1 })
}

// TestPartitionedImageMatchesMonolithic walks each property's
// reachability fixpoint and requires every partitioned image step to be
// the very node the monolithic reference builds in the same manager
// (BDDs are canonical, so equal refs are equal state sets). A tiny
// cluster budget splits every relation into many clusters, so early
// quantification happens at many points of the fold.
func TestPartitionedImageMatchesMonolithic(t *testing.T) {
	type design struct {
		nl    *netlist.Netlist
		props []property.Property
	}
	nl, props := heldCounter()
	en, _ := nl.SignalByName("en")
	held := props[2].WithAssume(nl.Unary(netlist.KNot, en))
	designs := []design{{nl, append(props, held)}}
	for _, build := range []func() (*circuits.Design, error){
		circuits.AlarmClock,
		func() (*circuits.Design, error) { return circuits.Arbiter(4) },
		func() (*circuits.Design, error) { return circuits.TokenRing(6) },
	} {
		d, err := build()
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, design{d.NL, d.Props})
	}
	for _, d := range designs {
		for _, budget := range []int{0, 1} {
			nState, nIn := layoutSizes(d.nl)
			m := bdd.New(2*nState + nIn)
			mo, err := buildModel(m, d.nl, budget)
			if err != nil {
				t.Fatal(err)
			}
			if budget == 1 && len(mo.parts) < 2 {
				t.Fatalf("%s: budget 1 built %d clusters, want several", d.nl.Name, len(mo.parts))
			}
			for _, p := range d.props {
				assume := bdd.True
				for _, a := range p.Assumes {
					assume = m.And(assume, mo.funcs[a][0])
				}
				reached := mo.init
				for iter := 0; ; iter++ {
					peak := 0
					img := mo.image(m, reached, assume, &peak)
					if want := monolithicImage(m, &mo, reached, assume); img != want {
						t.Fatalf("%s/%s budget %d iteration %d: partitioned image differs from the monolithic one",
							d.nl.Name, p.Name, budget, iter)
					}
					next := m.Or(reached, img)
					if next == reached {
						break
					}
					reached = next
				}
			}
		}
	}
}
