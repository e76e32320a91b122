package core

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/bmc"
	"repro/internal/bv"
	"repro/internal/circuits"
	"repro/internal/elab"
	"repro/internal/mc"
	"repro/internal/netlist"
	"repro/internal/property"
)

// table2Short returns the Table-2 designs with the property subset the
// concurrent suites use (arbiter p5's serial induction proof is many
// seconds under -race; every other property completes in milliseconds).
func table2Short(t *testing.T) []*circuits.Design {
	t.Helper()
	designs, err := circuits.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range designs {
		var props []property.Property
		var ids []string
		for i, p := range d.Props {
			if d.PropIDs[i] == "p5" {
				continue
			}
			props = append(props, p)
			ids = append(ids, d.PropIDs[i])
		}
		d.Props, d.PropIDs = props, ids
	}
	return designs
}

// bddCheapDesigns lists the Table-2 designs whose BDD reachability
// completes in tens of milliseconds; the wide decoder/ring state
// spaces run seconds per fixpoint and would dominate the -race suite.
var bddCheapDesigns = map[string]bool{"arbiter": true, "alarm_clock": true}

// TestDesignSharedSessionsRace is the Design/Session concurrency
// contract: 8 goroutines share one compiled Design and run concurrent
// sessions with mixed engines (ATPG, template-BMC, snapshot-BDD) over
// the Table-2 properties, and every concurrent result must equal the
// serial baseline — verdict always, decision/implication counts too
// for the deterministic ATPG and BMC paths. Run under -race in CI.
func TestDesignSharedSessionsRace(t *testing.T) {
	designs := table2Short(t)
	for _, cd := range designs {
		cd := cd
		t.Run(cd.Name, func(t *testing.T) {
			d, err := DesignFor(cd.NL)
			if err != nil {
				t.Fatal(err)
			}
			engines := []string{EngineATPG, EngineBMC}
			if bddCheapDesigns[cd.Name] {
				engines = append(engines, EngineBDD)
			}
			// Serial baselines: one fresh session per (engine, property),
			// exactly the shape each goroutine below uses.
			type key struct {
				eng  string
				prop int
			}
			baseline := map[key]Result{}
			for _, eng := range engines {
				for i := range cd.Props {
					baseline[key{eng, i}] = checkVia(t, d, eng, cd, i)
				}
			}
			const workers = 8
			results := make([]map[key]Result, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					mine := map[key]Result{}
					eng := engines[w%len(engines)]
					for i := range cd.Props {
						mine[key{eng, i}] = checkVia(t, d, eng, cd, i)
					}
					results[w] = mine
				}()
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				for k, got := range results[w] {
					want := baseline[k]
					id := cd.PropIDs[k.prop]
					if got.Verdict != want.Verdict {
						t.Errorf("worker %d %s_%s [%s]: verdict %v, serial %v",
							w, cd.Name, id, k.eng, got.Verdict, want.Verdict)
					}
					// ATPG and BMC searches are deterministic given a fresh
					// session; concurrency must not perturb their effort.
					if k.eng != EngineBDD {
						if got.Metrics.Decisions != want.Metrics.Decisions ||
							got.Metrics.Implications != want.Metrics.Implications {
							t.Errorf("worker %d %s_%s [%s]: decisions/implications %d/%d, serial %d/%d",
								w, cd.Name, id, k.eng,
								got.Metrics.Decisions, got.Metrics.Implications,
								want.Metrics.Decisions, want.Metrics.Implications)
						}
					}
				}
			}
		})
	}
}

// checkVia opens a fresh session over d and checks one property
// through the named engine — the per-check unit both the serial
// baseline and the concurrent workers use.
func checkVia(t *testing.T, d *Design, engine string, cd *circuits.Design, propIdx int) Result {
	t.Helper()
	depth := circuits.TableDepth(cd.PropIDs[propIdx])
	opts := Options{MaxDepth: depth, UseInduction: true}
	if engine != EngineATPG {
		opts.DisableLocalFSM = true
	}
	sess, err := d.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	var eng Engine
	switch engine {
	case EngineATPG:
		eng = sess.ATPGEngine()
	case EngineBMC:
		eng = sess.BMCEngine(bmc.Options{})
	case EngineBDD:
		eng = sess.BDDEngine(mc.Options{})
	}
	return eng.Check(context.Background(), Problem{NL: cd.NL, Prop: cd.Props[propIdx], MaxDepth: depth})
}

// TestEngineCachesBuildOnce pins the build-once contract: under
// concurrent first use from many goroutines, each per-engine compiled
// cache (local FSMs, ATPG prep, BMC frame template, BDD model) is
// built exactly once and every caller sees the same artifact.
func TestEngineCachesBuildOnce(t *testing.T) {
	cd, err := circuits.AlarmClock()
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDesign(cd.NL)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	type got struct {
		ms, prep, tmpl, comp any
	}
	outs := make([]got, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms, err := d.Machines()
			if err != nil {
				t.Error(err)
			}
			prep, err := d.ATPGPrep()
			if err != nil {
				t.Error(err)
			}
			tmpl, err := d.BMCTemplate()
			if err != nil {
				t.Error(err)
			}
			comp, err := d.BDDModel()
			if err != nil {
				t.Error(err)
			}
			var msAny any
			if len(ms) > 0 {
				msAny = ms[0]
			}
			outs[w] = got{ms: msAny, prep: prep, tmpl: tmpl, comp: comp}
		}()
	}
	wg.Wait()
	fsmB, atpgB, bmcB, bddB := d.machines.builds.Load(), d.prep.builds.Load(), d.whole.bmc.builds.Load(), d.whole.bdd.builds.Load()
	if fsmB != 1 || atpgB != 1 || bmcB != 1 || bddB != 1 {
		t.Errorf("cache builds fsm=%d atpg=%d bmc=%d bdd=%d, want 1 each", fsmB, atpgB, bmcB, bddB)
	}
	for w := 1; w < workers; w++ {
		if outs[w] != outs[0] {
			t.Errorf("worker %d saw different cached artifacts", w)
		}
	}

	// The first BMC and BDD checks of alarm_clock/p8, whose cone holds
	// 2 of the design's 5 registers, walk the cone once, build its
	// template and model once each and never the design's own.
	d, err = NewDesign(cd.NL)
	if err != nil {
		t.Fatal(err)
	}
	p8 := slices.Index(cd.PropIDs, "p8")
	results := make([]Result, 2*workers)
	for w := range results {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = checkVia(t, d, []string{EngineBMC, EngineBDD}[w%2], cd, p8)
		}()
	}
	wg.Wait()
	for w, r := range results {
		if r.Verdict != VerdictWitnessFound {
			t.Errorf("check %d [%s]: %v, want witness-found", w, r.Engine, r.Verdict)
		}
	}
	cn := d.coneFor(cd.Props[p8])
	if cn == nil || len(cn.nl.FFs) != 2 || len(cd.NL.FFs) != 5 {
		t.Fatalf("alarm_clock/p8's cone is not 2 of 5 registers")
	}
	if walks, bmcB, bddB := coneWalks(d), cn.bmc.builds.Load(), cn.bdd.builds.Load(); walks != 1 || bmcB != 1 || bddB != 1 {
		t.Errorf("cone walks=%d bmc=%d bdd=%d, want 1 each", walks, bmcB, bddB)
	}
	wholeUnbuilt(t, d)
}

// coneWalks sums the cone walks of every root list d holds an entry
// for: the builds of their slices.
func coneWalks(d *Design) int32 {
	var n int32
	for _, e := range d.cones {
		n += e.slice.builds.Load()
	}
	return n
}

// wholeUnbuilt fails the test when d's own CNF template or BDD model
// was built.
func wholeUnbuilt(t *testing.T, d *Design) {
	t.Helper()
	if bmcB, bddB := d.whole.bmc.builds.Load(), d.whole.bdd.builds.Load(); bmcB != 0 || bddB != 0 {
		t.Errorf("the design's own template and model built %d and %d times, want 0", bmcB, bddB)
	}
}

// TestFailedBuildStaysCached pins the cached-error half of the
// build-once contract: the CNF template of a design with a 65-bit
// multiplier, which the bit-blaster cannot encode, fails once, and
// every later BMC check reports unknown from the cached error without
// rebuilding it.
func TestFailedBuildStaysCached(t *testing.T) {
	nl := netlist.New("widemul")
	a := nl.AddInput("a", 65)
	prod := nl.Binary(netlist.KMul, a, a)
	mon := nl.Unary(netlist.KNot, property.Builder{NL: nl}.Equals(prod, 4))
	p, err := property.NewInvariant(nl, "square_not_4", mon)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDesign(nl)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := d.NewSession(Options{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := sess.BMCEngine(bmc.Options{})
	for i := 0; i < 3; i++ {
		if r := eng.Check(context.Background(), Problem{NL: nl, Prop: p, MaxDepth: 2}); r.Verdict != VerdictUnknown {
			t.Errorf("check %d: %v, want unknown", i, r.Verdict)
		}
	}
	if _, err := d.BMCTemplate(); err == nil {
		t.Error("a 65-bit multiplier compiled into a CNF template")
	}
	if n := d.whole.bmc.builds.Load(); n != 1 {
		t.Errorf("the failing template built %d times, want 1", n)
	}
}

// TestConeHashBuildsNoEngineForm: hashing every corpus property of a
// fresh design, twice, hashes each root list once and walks no slice,
// builds no cone or design template or model, and compiles no ATPG
// form, so hash-only traffic such as a verdict-cache lookup pays for
// the hash alone.
func TestConeHashBuildsNoEngineForm(t *testing.T) {
	for _, gd := range goldenDesigns(t) {
		d, err := NewDesign(gd.d.NL)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			for _, p := range gd.d.Props {
				d.PropertyConeHash(p)
			}
		}
		if len(d.cones) == 0 {
			t.Fatalf("%s: no cone entries after hashing %d properties", gd.tag, len(gd.d.Props))
		}
		for key, e := range d.cones {
			if h, walks := e.hash.builds.Load(), e.slice.builds.Load(); h != 1 || walks != 0 {
				t.Errorf("%s roots %s: hashed %d times and walked %d, want 1 and 0", gd.tag, key, h, walks)
			}
		}
		wholeUnbuilt(t, d)
		if fsmB, atpgB := d.machines.builds.Load(), d.prep.builds.Load(); fsmB != 0 || atpgB != 0 {
			t.Errorf("%s: local FSMs and ATPG prep built %d and %d times, want 0", gd.tag, fsmB, atpgB)
		}
	}
}

// TestColdPortfolioBuildsNoDesignForm: the first portfolio check of
// Industry01(64)/p10 on a fresh design, whose cone holds 1 of its 65
// registers, leaves the design's whole CNF template and BDD model
// unbuilt, so the race waits for no whole-design compile.
func TestColdPortfolioBuildsNoDesignForm(t *testing.T) {
	cd, err := circuits.Industry01(64)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDesign(cd.NL)
	if err != nil {
		t.Fatal(err)
	}
	p10 := slices.Index(cd.PropIDs, "p10")
	depth := circuits.TableDepth("p10")
	sess, err := d.NewSession(Options{MaxDepth: depth, UseInduction: true})
	if err != nil {
		t.Fatal(err)
	}
	r := sess.Portfolio().Check(context.Background(), Problem{NL: cd.NL, Prop: cd.Props[p10], MaxDepth: depth})
	if r.Verdict != VerdictProved {
		t.Errorf("industry_0164/p10: %v [%s], want proved", r.Verdict, r.Engine)
	}
	wholeUnbuilt(t, d)
	if walks := coneWalks(d); walks > 1 {
		t.Errorf("p10's cone walked %d times, want at most 1", walks)
	}
}

// TestBatchElaboratesOnce pins the compile-once contract end to end:
// compiling a design from source elaborates exactly once, and a
// CheckAll batch on an 8-worker pool — the configuration the
// acceptance criteria name — performs zero further elaborations and
// zero further FSM extractions, across repeated batches and repeated
// New calls.
func TestBatchElaboratesOnce(t *testing.T) {
	designs := table2Short(t)
	before := elab.Elaborations()
	for _, cd := range designs {
		maxDepth := 0
		for _, id := range cd.PropIDs {
			if dep := circuits.TableDepth(id); dep > maxDepth {
				maxDepth = dep
			}
		}
		c, err := New(cd.NL, Options{MaxDepth: maxDepth, UseInduction: true})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			results := c.CheckAll(context.Background(), cd.Props, BatchOptions{Jobs: 8})
			for i, res := range results {
				if res.Property != cd.Props[i].Name {
					t.Fatalf("%s: result %d out of input order", cd.Name, i)
				}
			}
		}
		// A second New over the same netlist must reuse the cached
		// Design outright.
		c2, err := New(cd.NL, Options{MaxDepth: maxDepth})
		if err != nil {
			t.Fatal(err)
		}
		if c2.Design() != c.Design() {
			t.Errorf("%s: repeated New compiled a second Design", cd.Name)
		}
		if fsmB := c.Design().machines.builds.Load(); fsmB > 1 {
			t.Errorf("%s: local FSMs extracted %d times", cd.Name, fsmB)
		}
	}
	if after := elab.Elaborations(); after != before {
		t.Errorf("CheckAll batches elaborated %d more times; elaboration must happen exactly once, at design compile", after-before)
	}
}

// TestSessionSurvivesPostDesignMonitors pins the design-resolution
// rule (Session.designFor): a session opened before its netlist grew —
// by new monitor logic, or only by a new input the property assumes
// (signals grow, gates do not) — must check the new property on every
// engine as a session over a freshly compiled design does. The engines
// run through safeCheck, so a design that does not cover the property
// shows up as an error verdict rather than a panic.
func TestSessionSurvivesPostDesignMonitors(t *testing.T) {
	counter := func() (*netlist.Netlist, netlist.SignalID) {
		nl := netlist.New("late")
		en := nl.AddInput("en", 1)
		q := nl.DffPlaceholder(3, bv.FromUint64(3, 0), "q")
		inc := nl.Binary(netlist.KAdd, q, nl.ConstUint(3, 1))
		nl.ConnectDff(q, nl.Mux(en, q, inc))
		return nl, q
	}
	opts := Options{MaxDepth: 8, UseInduction: true}
	// open returns a session with every design cache built, so the
	// netlist grows after its compiled forms exist.
	open := func(t *testing.T, nl *netlist.Netlist) *Session {
		sess, err := New(nl, opts)
		if err != nil {
			t.Fatal(err)
		}
		d := sess.Design()
		if _, err := d.ATPGPrep(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.BMCTemplate(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.BDDModel(); err != nil {
			t.Fatal(err)
		}
		return sess
	}
	legs := []string{"check", EngineATPG, EngineBMC, EngineBDD, EnginePortfolio}
	run := func(sess *Session, p property.Property) map[string]Result {
		ctx := context.Background()
		prob := Problem{NL: sess.Netlist(), Prop: p, MaxDepth: opts.MaxDepth}
		return map[string]Result{
			"check":         sess.Check(p),
			EngineATPG:      safeCheck(sess.ATPGEngine(), ctx, prob),
			EngineBMC:       safeCheck(sess.BMCEngine(bmc.Options{}), ctx, prob),
			EngineBDD:       safeCheck(sess.BDDEngine(mc.Options{}), ctx, prob),
			EnginePortfolio: safeCheck(sess.Portfolio(), ctx, prob),
		}
	}
	compare := func(t *testing.T, stale *Session, p property.Property) {
		d, err := NewDesign(stale.Netlist())
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := d.NewSession(opts)
		if err != nil {
			t.Fatal(err)
		}
		got, want := run(stale, p), run(fresh, p)
		for _, leg := range legs {
			g, w := got[leg], want[leg]
			// The race picks its winner by timing, so only the
			// portfolio's verdict is comparable.
			if g.Verdict != w.Verdict || (leg != EnginePortfolio && g.Depth != w.Depth) {
				t.Errorf("%s: stale session %v@%d %s, fresh design %v@%d",
					leg, g.Verdict, g.Depth, g.Err, w.Verdict, w.Depth)
			}
			// q first leaves 0..5 in frame 7; BDD reachability reports
			// the image iteration that reaches it, 6.
			wantDepth := 7
			if leg == EngineBDD {
				wantDepth = 6
			}
			if g.Verdict != VerdictFalsified || (leg != EnginePortfolio && g.Depth != wantDepth) {
				t.Errorf("%s: got %v@%d %s, want falsified@%d", leg, g.Verdict, g.Depth, g.Err, wantDepth)
			}
		}
	}
	t.Run("monitor", func(t *testing.T) {
		nl, q := counter()
		sess := open(t, nl)
		pb := property.Builder{NL: nl}
		p, err := property.NewInvariant(nl, "late-small", pb.InRange(q, 0, 5))
		if err != nil {
			t.Fatal(err)
		}
		compare(t, sess, p)
	})
	t.Run("input", func(t *testing.T) {
		nl, q := counter()
		pb := property.Builder{NL: nl}
		small := pb.InRange(q, 0, 5)
		sess := open(t, nl)
		gates := nl.NumGates()
		p, err := property.NewInvariant(nl, "late-input", small)
		if err != nil {
			t.Fatal(err)
		}
		p = p.WithAssume(nl.AddInput("go", 1))
		if nl.NumGates() != gates {
			t.Fatalf("adding an input added %d gates", nl.NumGates()-gates)
		}
		compare(t, sess, p)
	})
}
