package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/atpg"
	"repro/internal/bmc"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/property"
)

// batchRecorder accumulates what the batch loops measure. The timing
// wrappers run on CheckAll's worker goroutines, so it is mutex-guarded.
type batchRecorder struct {
	mu     sync.Mutex
	wallMs map[string][]float64 // check walls by property key
	busy   time.Duration
	passes []time.Duration
	props  int
	failed int
	wrong  []string
	// counts holds each property's ATPG stats from the first pass it
	// ran in; every later pass must reproduce them exactly.
	counts    map[string]atpg.Stats
	countPass atpg.Stats

	// Portfolio layer, filled only when the members are wrapped.
	memberMs    map[string]float64
	wins        map[string]int
	wastedMs    float64
	allMemberMs float64
	cancelMs    []float64
	bmcProps    int64
	bmcConfl    int64
	bmcMem      int64
	bddPeak     int64
	bddIters    int64
	bddPeakImg  int
}

func newBatchRecorder() *batchRecorder {
	return &batchRecorder{wallMs: map[string][]float64{}, counts: map[string]atpg.Stats{},
		memberMs: map[string]float64{}, wins: map[string]int{}}
}

// spanCtx rides the context from the check wrapper into the portfolio
// members, which inherit it through the race's derived context.
type spanCtx struct {
	trace string
	id    int64
	race  *raceRec
}

type spanKey struct{}

type raceRec struct {
	mu      sync.Mutex
	members []memberRec
}

type memberRec struct {
	engine string
	dur    time.Duration
	end    time.Time
	res    core.Result
}

// timedEngine is the thin timing wrapper on the engine passed in
// BatchOptions.Engine: it times every Engine.Check call CheckAll makes
// (for a portfolio, the whole race).
type timedEngine struct {
	inner  core.Engine
	rec    *batchRecorder
	tr     *tracer
	design string
	pass   int
}

func (e *timedEngine) Name() string { return e.inner.Name() }

func (e *timedEngine) Check(ctx context.Context, prob core.Problem) core.EngineResult {
	var sc *spanCtx
	if e.tr != nil {
		sc = &spanCtx{trace: fmt.Sprintf("pass%d/%s/%s", e.pass, e.design, prob.Prop.Name),
			id: e.tr.newID(), race: &raceRec{}}
		ctx = context.WithValue(ctx, spanKey{}, sc)
	}
	start := time.Now()
	res := e.inner.Check(ctx, prob)
	end := time.Now()
	d := end.Sub(start)
	key := e.design + "/" + prob.Prop.Name
	e.rec.mu.Lock()
	e.rec.wallMs[key] = append(e.rec.wallMs[key], ms(d))
	e.rec.busy += d
	e.rec.mu.Unlock()
	if sc != nil {
		e.tr.record(sc.trace, sc.id, 0, "check", start, end)
		if len(sc.race.members) > 0 {
			e.rec.addRace(res, sc.race)
		}
	}
	return res
}

// memberEngine wraps one portfolio member to time it and keep its
// result; it reports into the race of the enclosing check.
type memberEngine struct {
	inner core.Engine
	tr    *tracer
}

func (m *memberEngine) Name() string { return m.inner.Name() }

func (m *memberEngine) Check(ctx context.Context, prob core.Problem) core.EngineResult {
	start := time.Now()
	res := m.inner.Check(ctx, prob)
	end := time.Now()
	if sc, ok := ctx.Value(spanKey{}).(*spanCtx); ok {
		m.tr.record(sc.trace, m.tr.newID(), sc.id, "engine."+m.inner.Name(), start, end)
		sc.race.mu.Lock()
		sc.race.members = append(sc.race.members, memberRec{engine: m.inner.Name(), dur: end.Sub(start), end: end, res: res})
		sc.race.mu.Unlock()
	}
	return res
}

// addRace folds one finished race into the portfolio layer totals.
func (r *batchRecorder) addRace(win core.Result, race *raceRec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wins[win.Engine]++
	var firstConclusive, last time.Time
	for _, m := range race.members {
		d := ms(m.dur)
		r.memberMs[m.engine] += d
		r.allMemberMs += d
		if m.engine != win.Engine {
			r.wastedMs += d
		}
		if m.res.Verdict.Conclusive() && (firstConclusive.IsZero() || m.end.Before(firstConclusive)) {
			firstConclusive = m.end
		}
		if m.end.After(last) {
			last = m.end
		}
		switch m.engine {
		case core.EngineBMC:
			r.bmcProps += m.res.Metrics.Implications
			r.bmcConfl += m.res.Metrics.Conflicts
			r.bmcMem += m.res.Metrics.MemUnits
		case core.EngineBDD:
			r.bddIters += m.res.Metrics.Decisions
			r.bddPeak = max(r.bddPeak, m.res.Metrics.MemUnits)
			r.bddPeakImg = max(r.bddPeakImg, m.res.BDD.PeakImageNodes)
		}
	}
	if !firstConclusive.IsZero() {
		r.cancelMs = append(r.cancelMs, ms(last.Sub(firstConclusive)))
	}
}

// batchBench runs corpus passes with one engine kind.
type batchBench struct {
	c         *corpus
	portfolio bool
	jobs      int
	rng       *rand.Rand
	npass     int
}

func newBatchBench(c *corpus, portfolio bool, seed int64) *batchBench {
	jobs := runtime.GOMAXPROCS(0)
	if portfolio {
		// Each race already runs three members on the available cores.
		jobs = 1
	}
	return &batchBench{c: c, portfolio: portfolio, jobs: jobs, rng: rand.New(rand.NewSource(seed))}
}

// engine returns the engine a group's session checks with: the pinned
// session constructors, wrapped per member only when traced.
func (b *batchBench) engine(sess *core.Session, tr *tracer) core.Engine {
	switch {
	case !b.portfolio:
		return sess.ATPGEngine()
	case tr == nil:
		return sess.Portfolio()
	default:
		return core.NewPortfolio(
			&memberEngine{sess.ATPGEngine(), tr},
			&memberEngine{sess.BMCEngine(bmc.Options{}), tr},
			&memberEngine{sess.BDDEngine(mc.Options{}), tr},
		)
	}
}

// pass checks the whole corpus once, in a seeded order, with fresh
// sessions, and runs the oracle on every verdict.
func (b *batchBench) pass(ctx context.Context, rec *batchRecorder, tr *tracer) error {
	b.npass++
	start := time.Now()
	for _, g := range b.c.shuffled(b.rng) {
		sess, err := g.cd.d.NewSession(core.Options{MaxDepth: g.depth, UseInduction: true})
		if err != nil {
			return fmt.Errorf("session %s: %w", g.cd.name, err)
		}
		eng := &timedEngine{inner: b.engine(sess, tr), rec: rec, tr: tr, design: g.cd.name, pass: b.npass}
		props := make([]property.Property, len(g.props))
		for i, cp := range g.props {
			props[i] = cp.prop
		}
		results := sess.CheckAll(ctx, props, core.BatchOptions{Jobs: b.jobs, Engine: eng})
		for i, res := range results {
			rec.judge(g.props[i], res, !b.portfolio)
		}
	}
	rec.mu.Lock()
	rec.passes = append(rec.passes, time.Since(start))
	rec.mu.Unlock()
	return nil
}

// outcome reports the recorder's operation counts and wrong answers.
func (r *batchRecorder) outcome() outcome {
	return outcome{attempted: r.props, failed: r.failed, wrong: r.wrong, m: metrics{}}
}

// judge applies the batch oracle to one result.
func (r *batchRecorder) judge(cp *corpusProp, res core.Result, exactCounts bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.props++
	switch {
	case failedVerdict(res.Verdict):
		r.failed++
	case !verdictOK(res.Verdict, cp.want):
		r.wrong = append(r.wrong, fmt.Sprintf("%s: verdict %s, want %s", cp.key, res.Verdict, cp.want))
	}
	if !exactCounts {
		return
	}
	first, seen := r.counts[cp.key]
	if !seen {
		r.counts[cp.key] = res.Stats
		r.countPass = addCounts(r.countPass, res.Stats)
		return
	}
	if countsOf(first) != countsOf(res.Stats) {
		r.wrong = append(r.wrong, fmt.Sprintf("%s: atpg counts %v, first pass had %v", cp.key, countsOf(res.Stats), countsOf(first)))
	}
}

// atpgCounts is the exact, run-independent part of atpg.Stats that the
// benchmark reports and pins.
type atpgCounts struct {
	Implications, Decisions, Backtracks, Backjumps, FrontierChecks, ArithCalls, BitSkips, MaxTrail int
}

func countsOf(s atpg.Stats) atpgCounts {
	return atpgCounts{s.Implications, s.Decisions, s.Backtracks, s.Backjumps,
		s.FrontierChecks, s.ArithCalls, s.BitSkips, s.MaxTrail}
}

func addCounts(a, b atpg.Stats) atpg.Stats {
	a.Implications += b.Implications
	a.Decisions += b.Decisions
	a.Backtracks += b.Backtracks
	a.Backjumps += b.Backjumps
	a.FrontierChecks += b.FrontierChecks
	a.ArithCalls += b.ArithCalls
	a.BitSkips += b.BitSkips
	a.MaxTrail = max(a.MaxTrail, b.MaxTrail)
	return a
}

// setupBatch builds and compiles the corpus and runs one unmeasured
// pass, which builds every lazy Design cache the workload touches.
func setupBatch(ctx context.Context, portfolio bool, seed int64) (*batchBench, *batchRecorder, time.Duration, error) {
	start := time.Now()
	c, err := buildCorpus()
	if err != nil {
		return nil, nil, 0, err
	}
	b := newBatchBench(c, portfolio, seed)
	warm := newBatchRecorder()
	if err := b.pass(ctx, warm, nil); err != nil {
		return nil, nil, 0, err
	}
	return b, warm, time.Since(start), nil
}

// measure runs passes until dur has elapsed and at least minSamples
// checks were timed, always finishing the pass in progress.
func (b *batchBench) measure(ctx context.Context, rec *batchRecorder, tr *tracer, dur time.Duration, minSamples int) error {
	start := time.Now()
	for time.Since(start) < dur || rec.props < minSamples {
		if err := b.pass(ctx, rec, tr); err != nil {
			return err
		}
	}
	return nil
}

// checkStats returns the geometric mean and the p90, across the corpus,
// of each property's median check wall. Every pass checks the same
// properties, so a quantile of the pooled walls sits on the edge between
// two properties whose walls differ several-fold, and noise decides
// which side it lands on; per-property medians move only with the walls.
// A p50 of those medians still rests on one property's median of a
// dozen samples, and the small portfolio races it lands on spread 2x
// from one check to the next; the geometric mean weighs every property's
// relative change alike and averages that noise over the corpus.
func (r *batchRecorder) checkStats() (gmean, p90 float64) {
	var meds []float64
	for _, walls := range r.wallMs {
		meds = append(meds, median(walls))
	}
	return geomean(meds), quantile(meds, 0.9)
}

// medianPass is the median pass wall: a pass slowed by a transient
// stall elsewhere on the machine moves it less than it moves a mean.
func (r *batchRecorder) medianPass() time.Duration {
	walls := make([]float64, len(r.passes))
	for i, p := range r.passes {
		walls[i] = float64(p)
	}
	return time.Duration(median(walls))
}

// wall sums the measured pass walls.
func (r *batchRecorder) wall() time.Duration {
	var w time.Duration
	for _, p := range r.passes {
		w += p
	}
	return w
}

// layerMetrics reports the batch loop's per-layer numbers.
func (r *batchRecorder) layerMetrics(jobs int, m metrics) {
	w := r.wall()
	m.set("batch.busy_share", ratio(float64(r.busy), float64(jobs)*float64(w)))
	m.set("batch.makespan_s", w.Seconds()/float64(len(r.passes)))
}

// portfolioMetrics reports the portfolio, BMC and BDD layers, per pass.
func (r *batchRecorder) portfolioMetrics(m metrics) {
	n := float64(len(r.passes))
	for _, e := range []string{core.EngineATPG, core.EngineBMC, core.EngineBDD} {
		m.set("portfolio.member_ms."+e, r.memberMs[e]/n)
		m.set("portfolio.wins."+e, float64(r.wins[e])/n)
	}
	m.set("portfolio.wasted_share", ratio(r.wastedMs, r.allMemberMs))
	m.set("portfolio.cancel_ms", median(r.cancelMs))
	m.set("bmc.propagations", float64(r.bmcProps)/n)
	m.set("bmc.conflicts", float64(r.bmcConfl)/n)
	m.set("bmc.mem_units", float64(r.bmcMem)/n)
	m.set("bdd.peak_nodes", float64(r.bddPeak))
	m.set("bdd.iters", float64(r.bddIters)/n)
	m.set("bdd.peak_image_nodes", float64(r.bddPeakImg))
}

// countMetrics reports one pass's exact ATPG counts.
func countMetrics(s atpg.Stats, m metrics) {
	c := countsOf(s)
	m.set("atpg.implications", float64(c.Implications))
	m.set("atpg.decisions", float64(c.Decisions))
	m.set("atpg.backtracks", float64(c.Backtracks))
	m.set("atpg.backjumps", float64(c.Backjumps))
	m.set("atpg.frontier_checks", float64(c.FrontierChecks))
	m.set("atpg.arith_calls", float64(c.ArithCalls))
	m.set("atpg.bit_skips", float64(c.BitSkips))
	m.set("atpg.max_trail", float64(c.MaxTrail))
}
