package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/bmc"
	"repro/internal/bv"
	"repro/internal/circuits"
	"repro/internal/cnf"
	"repro/internal/mc"
	"repro/internal/netlist"
	"repro/internal/property"
)

// randomSequential builds a random small sequential circuit with a mix
// of control and datapath logic plus a 1-bit monitor signal. With
// withX set it also has two x sources: a constant operand with x bits, and a
// mux whose 2-bit select can pass its three entries.
func randomSequential(r *rand.Rand, withX bool) (*netlist.Netlist, netlist.SignalID) {
	nl := netlist.New("rand")
	w := 2 + r.Intn(3) // datapath width 2..4
	var sigs []netlist.SignalID
	// A couple of inputs.
	nIn := 1 + r.Intn(2)
	for i := 0; i < nIn; i++ {
		sigs = append(sigs, nl.AddInput(name("in", i), w))
	}
	ctl := nl.AddInput("ctl", 1)
	// One or two registers with feedback, connected later.
	nFF := 1 + r.Intn(2)
	var ffs []netlist.SignalID
	for i := 0; i < nFF; i++ {
		q := nl.DffPlaceholder(w, bv.FromUint64(w, uint64(r.Intn(1<<uint(w)))), name("q", i))
		ffs = append(ffs, q)
		sigs = append(sigs, q)
	}
	// Random combinational layer.
	kinds := []netlist.Kind{
		netlist.KAnd, netlist.KOr, netlist.KXor, netlist.KAdd, netlist.KSub,
		netlist.KMul, netlist.KNand,
	}
	depth := 3 + r.Intn(4)
	for i := 0; i < depth; i++ {
		a := sigs[r.Intn(len(sigs))]
		bb := sigs[r.Intn(len(sigs))]
		k := kinds[r.Intn(len(kinds))]
		sigs = append(sigs, nl.Binary(k, a, bb))
	}
	if withX {
		c := bv.FromUint64(w, r.Uint64())
		for i := 0; i < w; i++ {
			if i == 0 || r.Intn(3) == 0 {
				c = c.WithBit((i+r.Intn(w))%w, bv.X)
			}
		}
		a := sigs[r.Intn(len(sigs))]
		sigs = append(sigs, nl.Binary(kinds[r.Intn(len(kinds))], a, nl.Const(c)))
		sel := nl.Slice(sigs[r.Intn(len(sigs))], 1, 0)
		sigs = append(sigs, nl.Mux(sel, sigs[r.Intn(len(sigs))], sigs[r.Intn(len(sigs))], sigs[r.Intn(len(sigs))]))
	}
	// A mux keyed on the control input.
	a := sigs[r.Intn(len(sigs))]
	bb := sigs[r.Intn(len(sigs))]
	sigs = append(sigs, nl.Mux(ctl, a, bb))
	// Connect register feedback.
	for _, q := range ffs {
		nl.ConnectDff(q, sigs[len(sigs)-1-r.Intn(2)])
	}
	// Monitor: a comparator between two random datapath signals.
	x := sigs[r.Intn(len(sigs))]
	y := sigs[r.Intn(len(sigs))]
	cmpKinds := []netlist.Kind{netlist.KEq, netlist.KNe, netlist.KLt, netlist.KGe}
	mon := nl.Binary(cmpKinds[r.Intn(len(cmpKinds))], x, y)
	return nl, mon
}

func name(base string, i int) string {
	return base + string(rune('0'+i))
}

// TestCrossCheckATPGvsBMC generates random sequential circuits and
// requires the two independent engines — word-level ATPG and bit-level
// SAT BMC — to agree on every invariant verdict and depth.
func TestCrossCheckATPGvsBMC(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	agree := 0
	for trial := 0; trial < 120; trial++ {
		nl, mon := randomSequential(r, false)
		if err := nl.Validate(); err != nil {
			continue // rare: degenerate feedback; skip
		}
		p, err := property.NewInvariant(nl, "rand-inv", mon)
		if err != nil {
			t.Fatal(err)
		}
		// Both engines scan depths 1..4 (BMC is inherently incremental;
		// the checker's iterative deepening matches it).
		const depth = 4
		c, err := New(nl, Options{MaxDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		atpgRes := c.Check(p)
		bmcRes := bmc.Check(nl, p, bmc.Options{MaxDepth: depth})
		switch atpgRes.Verdict {
		case VerdictFalsified:
			if bmcRes.Verdict != bmc.Falsified {
				t.Fatalf("trial %d: atpg falsified (depth %d), bmc %v", trial, atpgRes.Depth, bmcRes.Verdict)
			}
			if !atpgRes.Validated {
				t.Fatalf("trial %d: atpg trace failed validation", trial)
			}
		case VerdictProved, VerdictProvedBounded:
			if bmcRes.Verdict == bmc.Falsified {
				t.Fatalf("trial %d: atpg proved but bmc found cex at depth %d", trial, bmcRes.Depth)
			}
		case VerdictUnknown:
			continue // resource-limited: no claim to compare
		}
		agree++
	}
	if agree < 100 {
		t.Errorf("only %d/120 trials produced comparable verdicts", agree)
	}
}

// TestCrossCheckBMCvsBDDOverX requires the two bit-level engines to
// read x alike, as an unconstrained value chosen afresh in every frame:
// on random sequential netlists with x sources, BMC finds a
// counterexample at depth d exactly when BDD reachability first hits a
// bad state at iteration d-1.
func TestCrossCheckBMCvsBDDOverX(t *testing.T) {
	const depth = 4
	compared := 0
	for seed := int64(0); seed < 200; seed++ {
		nl, mon := randomSequential(rand.New(rand.NewSource(seed)), true)
		if err := nl.Validate(); err != nil {
			continue
		}
		p, err := property.NewInvariant(nl, "rand-x", mon)
		if err != nil {
			t.Fatal(err)
		}
		tmpl, err := cnf.Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		b := bmc.CheckCompiled(context.Background(), tmpl, p, bmc.Options{MaxDepth: depth})
		d := mc.Check(nl, p, mc.Options{})
		if b.Verdict == bmc.Unknown || d.Verdict == mc.Unknown {
			continue
		}
		bmcAt, bddAt := 0, 0
		if b.Verdict == bmc.Falsified {
			bmcAt = b.Depth
		}
		if d.Verdict == mc.Falsified && d.Iters+1 <= depth {
			bddAt = d.Iters + 1
		}
		if bmcAt != bddAt {
			t.Errorf("seed %d: bmc %v at depth %d, bdd %v at iteration %d", seed, b.Verdict, b.Depth, d.Verdict, d.Iters)
		}
		sess, err := New(nl, Options{MaxDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		conesMatchDirect(t, fmt.Sprintf("seed %d", seed), sess, p, depth)
		compared++
	}
	if compared < 190 {
		t.Errorf("only %d of 200 netlists compared", compared)
	}
}

// conesMatchDirect checks one property through the session's BMC and
// BDD adapters, which run on the property's cone of influence, against
// the direct whole-design bmc.CheckCtx and mc.CheckCtx: the same
// outcome, the same BMC depth and BDD falsification depth, and a BDD
// proof depth no larger than the design's (the cone's fixpoint may
// close sooner). A BMC model counts as found whether or not it replays;
// the adapter results are returned for the caller's own checks.
func conesMatchDirect(t *testing.T, label string, sess *Session, p property.Property, depth int) (bmcRes, bddRes Result) {
	t.Helper()
	ctx := context.Background()
	nl := sess.Netlist()
	prob := Problem{NL: nl, Prop: p, MaxDepth: depth}
	bmcRes = sess.BMCEngine(bmc.Options{}).Check(ctx, prob)
	bddRes = sess.BDDEngine(mc.Options{}).Check(ctx, prob)
	b := bmc.CheckCtx(ctx, nl, p, bmc.Options{MaxDepth: depth})
	d := mc.CheckCtx(ctx, nl, p, mc.Options{})

	bmcGot := bmc.BoundedOK
	switch {
	case bmcRes.Trace != nil:
		bmcGot = bmc.Falsified
	case bmcRes.Verdict == VerdictUnknown:
		bmcGot = bmc.Unknown
	}
	if bmcGot != b.Verdict || bmcRes.Depth != b.Depth {
		t.Errorf("%s: bmc on the cone %v at depth %d (%v), on the design %v at depth %d",
			label, bmcGot, bmcRes.Depth, bmcRes.Verdict, b.Verdict, b.Depth)
	}
	bddGot := mc.Unknown
	switch bddRes.Verdict {
	case VerdictProved, VerdictNoWitness:
		bddGot = mc.Proved
	case VerdictFalsified, VerdictWitnessFound:
		bddGot = mc.Falsified
	}
	if bddGot != d.Verdict ||
		(bddGot == mc.Falsified && bddRes.Depth != d.Iters) ||
		(bddGot == mc.Proved && bddRes.Depth > d.Iters) {
		t.Errorf("%s: bdd on the cone %v at iteration %d, on the design %v at iteration %d",
			label, bddGot, bddRes.Depth, d.Verdict, d.Iters)
	}
	return bmcRes, bddRes
}

// TestConeEnginesMatchWholeDesign: on every corpus property at its
// Table-2 depth, the BMC and BDD adapters, which check the property's
// cone, reach the verdicts and depths of the direct whole-design runs
// (conesMatchDirect), and every BMC counterexample or witness mapped
// back from the cone replays on the design.
func TestConeEnginesMatchWholeDesign(t *testing.T) {
	for _, gd := range goldenDesigns(t) {
		for i, p := range gd.d.Props {
			key := gd.tag + "/" + gd.d.PropIDs[i]
			depth := circuits.TableDepth(gd.d.PropIDs[i])
			sess, err := New(gd.d.NL, Options{MaxDepth: depth, UseInduction: true})
			if err != nil {
				t.Fatal(err)
			}
			bmcRes, _ := conesMatchDirect(t, key, sess, p, depth)
			if bmcRes.Trace != nil && !bmcRes.Validated {
				t.Errorf("%s: the bmc model from the cone fails replay on the design (%v)", key, bmcRes.Verdict)
			}
		}
	}
}

// TestCrossCheckWitnessDepths requires the two engines to find
// counterexamples of the same (shortest) depth when one exists.
func TestCrossCheckWitnessDepths(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	checked := 0
	for trial := 0; trial < 100 && checked < 25; trial++ {
		nl, mon := randomSequential(r, false)
		if err := nl.Validate(); err != nil {
			continue
		}
		p, err := property.NewInvariant(nl, "rand-depth", mon)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(nl, Options{MaxDepth: 5})
		if err != nil {
			t.Fatal(err)
		}
		atpgRes := c.Check(p)
		if atpgRes.Verdict != VerdictFalsified {
			continue
		}
		bmcRes := bmc.Check(nl, p, bmc.Options{MaxDepth: 5})
		if bmcRes.Verdict != bmc.Falsified {
			t.Fatalf("trial %d: atpg cex at depth %d, bmc found none", trial, atpgRes.Depth)
		}
		if bmcRes.Depth != atpgRes.Depth {
			t.Fatalf("trial %d: shortest cex depth differs: atpg %d, bmc %d", trial, atpgRes.Depth, bmcRes.Depth)
		}
		checked++
	}
	if checked < 10 {
		t.Skipf("only %d falsifiable circuits generated", checked)
	}
}

// TestCrossCheckThreeWayEngines runs random sequential netlists through
// all three engines — one session per netlist, through its three
// Engine adapters — and checks the verdicts are mutually consistent.
// The consistency relation accounts for the engines' different
// completeness: ATPG and BMC are bounded to depth frames, the BDD
// engine is unbounded reachability, so a BDD counterexample deeper
// than the bound is consistent with a bounded proof.
func TestCrossCheckThreeWayEngines(t *testing.T) {
	trials := 80
	if testing.Short() {
		trials = 30
	}
	const depth = 4
	r := rand.New(rand.NewSource(4242))
	agree := 0
	for trial := 0; trial < trials; trial++ {
		nl, mon := randomSequential(r, false)
		if err := nl.Validate(); err != nil {
			continue
		}
		p, err := property.NewInvariant(nl, "rand3", mon)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := New(nl, Options{MaxDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		engines := []Engine{
			sess.ATPGEngine(),
			sess.BMCEngine(bmc.Options{MaxDepth: depth}),
			sess.BDDEngine(mc.Options{}),
		}
		prob := Problem{NL: nl, Prop: p, MaxDepth: depth}
		res := make([]Result, len(engines))
		for i, eng := range engines {
			res[i] = eng.Check(context.Background(), prob)
			if res[i].Engine != eng.Name() {
				t.Fatalf("trial %d: result attributed to %q, engine is %q", trial, res[i].Engine, eng.Name())
			}
		}
		av, bv_, dv := res[0], res[1], res[2]
		if av.Verdict == VerdictUnknown || bv_.Verdict == VerdictUnknown || dv.Verdict == VerdictUnknown {
			continue // resource-limited: no claim to compare
		}
		switch av.Verdict {
		case VerdictFalsified:
			if !av.Validated {
				t.Fatalf("trial %d: atpg cex failed validation", trial)
			}
			if bv_.Verdict != VerdictFalsified {
				t.Fatalf("trial %d: atpg falsified (depth %d), bmc %v", trial, av.Depth, bv_.Verdict)
			}
			if !bv_.Validated {
				t.Fatalf("trial %d: bmc cex failed validation", trial)
			}
			if bv_.Depth != av.Depth {
				t.Fatalf("trial %d: shortest cex depth differs: atpg %d, bmc %d", trial, av.Depth, bv_.Depth)
			}
			if dv.Verdict != VerdictFalsified {
				t.Fatalf("trial %d: atpg falsified, bdd %v", trial, dv.Verdict)
			}
			// BDD reports the image iteration that first hit a bad
			// state: a cex of depth d frames appears at iteration d-1.
			if dv.Depth+1 != av.Depth {
				t.Fatalf("trial %d: cex depth differs: atpg %d frames, bdd iteration %d", trial, av.Depth, dv.Depth)
			}
		case VerdictProved:
			// A full ATPG proof: BDD reachability must also prove; BMC
			// can only ever report bounded.
			if bv_.Verdict != VerdictProvedBounded {
				t.Fatalf("trial %d: atpg proved, bmc %v", trial, bv_.Verdict)
			}
			if dv.Verdict != VerdictProved {
				t.Fatalf("trial %d: atpg proved, bdd %v", trial, dv.Verdict)
			}
		case VerdictProvedBounded:
			if bv_.Verdict != VerdictProvedBounded {
				t.Fatalf("trial %d: atpg proved-bounded, bmc %v", trial, bv_.Verdict)
			}
			// The unbounded BDD engine may prove outright, or find a
			// counterexample deeper than the bound — both consistent.
			if dv.Verdict == VerdictFalsified && dv.Depth+1 <= depth {
				t.Fatalf("trial %d: atpg proved-bounded at %d, bdd cex at depth %d", trial, depth, dv.Depth+1)
			}
		}
		agree++
	}
	if agree < trials*2/3 {
		t.Errorf("only %d/%d trials produced comparable verdicts", agree, trials)
	}
}

// TestEngineCancellationPrompt pins the cancellation contract on each
// engine's session adapter: on an instance whose uncancelled search
// runs for many seconds, cancelling the context makes Check return
// VerdictUnknown within its check-interval budget — far sooner than
// the search could have completed. The one-time design compile is
// bounded by its node budget, not by ctx, so each case builds its
// compiled form before the clock starts.
func TestEngineCancellationPrompt(t *testing.T) {
	// Generous CI budget; the uncancelled searches below all run >6s
	// on a 2-vCPU Xeon (and far longer under -race), so a return
	// within the budget demonstrates the cancellation path, not a
	// completed search.
	const cancelAfter = 250 * time.Millisecond
	const returnBudget = 5 * time.Second

	arbiter := func(t *testing.T, n int, opts Options) (*circuits.Design, *Session) {
		d, err := circuits.Arbiter(n)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := New(d.NL, opts)
		if err != nil {
			t.Fatal(err)
		}
		return d, sess
	}
	cases := []struct {
		name  string
		build func(t *testing.T) (Engine, Problem)
	}{
		{"atpg", func(t *testing.T) (Engine, Problem) {
			// The chronological engine (ablated backjumping and
			// guidance) needs >8s on the depth-3 arbiter induction
			// proof without the local FSMs, whose one-hot ptr and
			// grant_r machines would let it prove in milliseconds.
			d, sess := arbiter(t, 24, Options{MaxDepth: 3, UseInduction: true, DisableLocalFSM: true,
				Features: atpg.Features{NoBackjump: true, NoConflictGuide: true}})
			if _, err := sess.Design().ATPGPrep(); err != nil {
				t.Fatal(err)
			}
			return sess.ATPGEngine(), Problem{NL: d.NL, Prop: d.Props[0], MaxDepth: 3}
		}},
		{"bmc", func(t *testing.T) (Engine, Problem) {
			// Bit-blasting the 48-requester arbiter to 24 frames keeps
			// the CDCL solver busy long past the budget.
			d, sess := arbiter(t, 48, Options{})
			if _, err := sess.Design().BMCTemplate(); err != nil {
				t.Fatal(err)
			}
			return sess.BMCEngine(bmc.Options{MaxDepth: 24}), Problem{NL: d.NL, Prop: d.Props[0], MaxDepth: 24}
		}},
		{"bdd", func(t *testing.T) (Engine, Problem) {
			// The 48-requester arbiter's model compiles in under a
			// second, but its reachability fixpoint runs for seconds.
			d, sess := arbiter(t, 48, Options{})
			if _, err := sess.Design().BDDModel(); err != nil {
				t.Fatal(err)
			}
			return sess.BDDEngine(mc.Options{}), Problem{NL: d.NL, Prop: d.Props[0]}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng, prob := tc.build(t)
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(cancelAfter)
				cancel()
			}()
			start := time.Now()
			res := eng.Check(ctx, prob)
			elapsed := time.Since(start)
			cancel()
			if res.Verdict != VerdictUnknown {
				t.Fatalf("%s: cancelled check returned %v, want unknown", tc.name, res.Verdict)
			}
			if elapsed > returnBudget {
				t.Fatalf("%s: cancelled check took %v, budget %v", tc.name, elapsed, returnBudget)
			}
		})
	}
}

// TestATPGDeadlineBoundsConflictRecovery pins that a deadline bounds
// the ATPG search between decisions too. ATPG alone on
// Arbiter(112)/p5, a fresh design at its Table-2 depth with induction
// on, searches for tens of seconds: its registers are past the local
// FSMs' node budget, and the search meets long runs of failing
// alternatives with no decision between them. While ctx was polled
// only per decision, a 6 s deadline returned after 9-11 s.
func TestATPGDeadlineBoundsConflictRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("a 6 s search on a scaled design")
	}
	const deadline, slack = 6 * time.Second, 250 * time.Millisecond
	d, err := circuits.Arbiter(112)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := New(d.NL, Options{MaxDepth: circuits.TableDepth("p5"), UseInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	res := sess.CheckCtx(ctx, d.Props[slices.Index(d.PropIDs, "p5")])
	elapsed := time.Since(start)
	if res.Verdict != VerdictUnknown {
		t.Fatalf("verdict %v under a %v deadline, want unknown", res.Verdict, deadline)
	}
	if elapsed > deadline+slack {
		t.Fatalf("returned after %v: %v past its %v deadline (%d implications, %d decisions)",
			elapsed, elapsed-deadline, deadline, res.Stats.Implications, res.Stats.Decisions)
	}
}

// blockingEngine is a synthetic portfolio member that never concludes
// on its own: it blocks until its context is cancelled, then records
// whether it observed the cancellation (as opposed to completing).
type blockingEngine struct {
	name          string
	sawCancel     atomic.Bool
	startedOrDone chan struct{}
}

func (e *blockingEngine) Name() string { return e.name }

func (e *blockingEngine) Check(ctx context.Context, prob Problem) EngineResult {
	close(e.startedOrDone)
	<-ctx.Done()
	e.sawCancel.Store(true)
	return Result{Property: prob.Prop.Name, Verdict: VerdictUnknown, Engine: e.name}
}

// quickEngine concludes after its blocking peers have started.
type quickEngine struct {
	name      string
	verdict   Verdict
	validated bool
	waitFor   []*blockingEngine
}

func (e *quickEngine) Name() string { return e.name }

func (e *quickEngine) Check(ctx context.Context, prob Problem) EngineResult {
	for _, b := range e.waitFor {
		<-b.startedOrDone
	}
	return Result{Property: prob.Prop.Name, Verdict: e.verdict, Engine: e.name, Validated: e.validated}
}

// TestPortfolioCancelsLosers pins the portfolio contract with
// deterministic synthetic engines: once one member returns a
// conclusive verdict, the others' contexts are cancelled, they return
// without concluding, and the winner's result is selected even though
// it is not the highest-priority member.
func TestPortfolioCancelsLosers(t *testing.T) {
	nl := netlist.New("pf")
	mon := nl.Unary(netlist.KBuf, nl.AddInput("m", 1))
	p, err := property.NewInvariant(nl, "pf-prop", mon)
	if err != nil {
		t.Fatal(err)
	}
	loserA := &blockingEngine{name: "loser-a", startedOrDone: make(chan struct{})}
	loserB := &blockingEngine{name: "loser-b", startedOrDone: make(chan struct{})}
	winner := &quickEngine{name: "winner", verdict: VerdictProved, waitFor: []*blockingEngine{loserA, loserB}}
	pf := NewPortfolio(loserA, winner, loserB)
	start := time.Now()
	res := pf.Check(context.Background(), Problem{NL: nl, Prop: p})
	if res.Verdict != VerdictProved || res.Engine != "winner" {
		t.Fatalf("portfolio returned %v [%s], want proved [winner]", res.Verdict, res.Engine)
	}
	if !loserA.sawCancel.Load() || !loserB.sawCancel.Load() {
		t.Fatal("losing engines did not observe ctx cancellation")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("portfolio took %v; losers were not cancelled promptly", elapsed)
	}
}

// TestPortfolioPriorityTieBreak pins the deterministic selection rule:
// with several conclusive members, the earliest-registered one wins
// regardless of finish order; a stronger verdict beats priority.
func TestPortfolioPriorityTieBreak(t *testing.T) {
	nl := netlist.New("pf2")
	mon := nl.Unary(netlist.KBuf, nl.AddInput("m", 1))
	p, err := property.NewInvariant(nl, "pf2-prop", mon)
	if err != nil {
		t.Fatal(err)
	}
	prob := Problem{NL: nl, Prop: p}
	mk := func(name string, v Verdict) Engine { return &quickEngine{name: name, verdict: v} }

	// Both conclusive: priority order decides.
	res := NewPortfolio(mk("first", VerdictProved), mk("second", VerdictProved)).
		Check(context.Background(), prob)
	if res.Engine != "first" {
		t.Fatalf("tie broke to %q, want first", res.Engine)
	}
	// Conclusive beats bounded even at lower priority — the
	// proved-bounded -> proved strengthening.
	res = NewPortfolio(mk("bounded", VerdictProvedBounded), mk("full", VerdictProved)).
		Check(context.Background(), prob)
	if res.Engine != "full" || res.Verdict != VerdictProved {
		t.Fatalf("got %v [%s], want proved [full]", res.Verdict, res.Engine)
	}
	// Bounded beats unknown.
	res = NewPortfolio(mk("unk", VerdictUnknown), mk("bounded", VerdictProvedBounded)).
		Check(context.Background(), prob)
	if res.Engine != "bounded" {
		t.Fatalf("got %v [%s], want proved-bounded [bounded]", res.Verdict, res.Engine)
	}
	// Within a strength class, a replay-validated (trace-carrying)
	// falsification beats a traceless one regardless of priority: the
	// BDD engine concludes without a trace, and when the ATPG/BMC
	// counterexample survived the race the user should get the trace.
	res = NewPortfolio(
		&quickEngine{name: "traceless", verdict: VerdictFalsified},
		&quickEngine{name: "traced", verdict: VerdictFalsified, validated: true},
	).Check(context.Background(), prob)
	if res.Engine != "traced" || !res.Validated {
		t.Fatalf("got %v [%s] validated=%v, want falsified [traced] validated", res.Verdict, res.Engine, res.Validated)
	}
}
