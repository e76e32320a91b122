package mc

import (
	"context"
	"sync"
	"testing"

	"repro/internal/bv"
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

// TestCompiledMatchesDirect pins the compile/load path against the
// direct path: checking through a Compiled model (snapshot loaded into
// a fresh manager per call) must reproduce the direct CheckCtx result
// exactly — verdict, iteration count, state count and node count — for
// every property kind, and repeated/concurrent calls must agree.
func TestCompiledMatchesDirect(t *testing.T) {
	// A counter with a wrap plus an input-held branch: exercises
	// proved, falsified and witness verdicts.
	build := func() *netlist.Netlist {
		nl := netlist.New("cmp")
		en := nl.AddInput("en", 1)
		q := nl.DffPlaceholder(3, bv.FromUint64(3, 0), "q")
		wrap := nl.Binary(netlist.KEq, q, nl.ConstUint(3, 5))
		inc := nl.Binary(netlist.KAdd, q, nl.ConstUint(3, 1))
		step := nl.Mux(wrap, inc, nl.ConstUint(3, 0))
		nl.ConnectDff(q, nl.Mux(en, q, step))
		return nl
	}
	nl := build()
	q, _ := nl.SignalByName("q")
	pb := property.Builder{NL: nl}
	inRange, _ := property.NewInvariant(nl, "in-range", pb.InRange(q, 0, 5))
	never3, _ := property.NewInvariant(nl, "never-3", pb.NeverValue(q, 3))
	reach5, _ := property.NewWitness(nl, "reach-5", pb.Reaches(q, 5))
	props := []property.Property{inRange, never3, reach5}

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

	// Partitioned vs monolithic image: the two modes quantify in a
	// different order over different variable layouts, but both compute
	// exact images, so verdict, iteration count and reachable-state
	// count must agree; node counts may differ (different layouts build
	// different tables). The partitioned run must report its schedule,
	// the monolithic run must not.
	monoComp, err := Compile(nl, CompileOptions{MonolithicImage: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range props {
		part := Check(nl, p, Options{})
		mono := Check(nl, p, Options{MonolithicImage: true})
		if part.Verdict != mono.Verdict || part.Iters != mono.Iters || part.States != mono.States {
			t.Errorf("%s: partitioned {%v iters=%d states=%v}, monolithic {%v iters=%d states=%v}",
				p.Name, part.Verdict, part.Iters, part.States,
				mono.Verdict, mono.Iters, mono.States)
		}
		if part.Partitions == 0 || part.QuantDepth == 0 {
			t.Errorf("%s: partitioned run reports no schedule (parts=%d qdepth=%d)",
				p.Name, part.Partitions, part.QuantDepth)
		}
		if mono.Partitions != 0 || mono.PeakImageNodes != 0 || mono.QuantDepth != 0 {
			t.Errorf("%s: monolithic run leaks partition stats {%d %d %d}",
				p.Name, mono.Partitions, mono.PeakImageNodes, mono.QuantDepth)
		}
		loadedMono := monoComp.CheckCtx(context.Background(), p, Options{MonolithicImage: true})
		if loadedMono.Verdict != mono.Verdict || loadedMono.Iters != mono.Iters ||
			loadedMono.States != mono.States || loadedMono.PeakNodes != mono.PeakNodes {
			t.Errorf("%s: compiled monolithic {%v iters=%d states=%v nodes=%d}, direct {%v iters=%d states=%v nodes=%d}",
				p.Name, loadedMono.Verdict, loadedMono.Iters, loadedMono.States, loadedMono.PeakNodes,
				mono.Verdict, mono.Iters, mono.States, mono.PeakNodes)
		}
		// A snapshot only supports the image mode it was compiled for.
		if r := monoComp.CheckCtx(context.Background(), p, Options{}); r.Verdict != Unknown {
			t.Errorf("%s: mode-mismatched compiled check returned %v, want unknown", p.Name, r.Verdict)
		}
		if r := comp.CheckCtx(context.Background(), p, Options{MonolithicImage: true}); r.Verdict != Unknown {
			t.Errorf("%s: mode-mismatched compiled check returned %v, want unknown", p.Name, r.Verdict)
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
