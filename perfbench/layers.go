package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/atpg"
	"repro/internal/bv"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/elab"
	"repro/internal/mc"
	"repro/internal/netlist"
	"repro/internal/property"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// probeSource is one distinct source the compile probe times: its
// Verilog text, and how to get the netlist with its property monitors.
type probeSource struct {
	name, text, top string
	build           func() (*netlist.Netlist, []property.Property, int, error) // netlist, properties, depth
}

// corpusSources are the batch corpus's sources.
func corpusSources() []probeSource {
	var out []probeSource
	for _, b := range corpusBuilders {
		b := b
		src, err := b.build()
		if err != nil {
			continue // buildCorpus reports the same error first
		}
		out = append(out, probeSource{name: b.name, text: src.Source, top: src.Name,
			build: func() (*netlist.Netlist, []property.Property, int, error) {
				d, err := b.build()
				if err != nil {
					return nil, nil, 0, err
				}
				return d.NL, d.Props, circuits.TableDepth(d.PropIDs[len(d.PropIDs)-1]), nil
			}})
	}
	return out
}

// serveSources are serve-mix's sources: the repeat pool and one edit.
func serveSources(t *traffic) []probeSource {
	seen := map[string]bool{}
	var out []probeSource
	add := func(name, text, top string) {
		if seen[text] {
			return
		}
		seen[text] = true
		out = append(out, probeSource{name: name, text: text, top: top,
			build: func() (*netlist.Netlist, []property.Property, int, error) {
				ast, err := verilog.Parse(text)
				if err != nil {
					return nil, nil, 0, err
				}
				nl, err := elab.Elaborate(ast, top, nil)
				if err != nil {
					return nil, nil, 0, err
				}
				props, err := property.FromNames(nl, lanes([]int{0}), nil)
				return nl, props, serveDepth, err
			}})
	}
	for _, r := range t.pool {
		add(r.top, r.src, r.top)
	}
	add("edit", editSource(t.churn, 0, 1), "churn")
	return out
}

// bddProbeTimeout bounds the BDD cold/warm checks of the compile probe.
const bddProbeTimeout = 20 * time.Second

// compileProbe times every compile layer on each source, from fresh
// designs, and the first (unmemoized) cone hash of every property.
// compile.bdd_model_ms is the cold-minus-warm first Session.BDDEngine
// check on the source's last property.
func compileProbe(ctx context.Context, srcs []probeSource, m metrics) error {
	var parse, el, design, fsmT, prep, cnfT, bddT, cone time.Duration
	var fsmAlloc uint64
	var hashes int
	for _, s := range srcs {
		t := time.Now()
		ast, err := verilog.Parse(s.text)
		if err != nil {
			return fmt.Errorf("parse %s: %w", s.name, err)
		}
		parse += time.Since(t)
		t = time.Now()
		if _, err := elab.Elaborate(ast, s.top, nil); err != nil {
			return fmt.Errorf("elaborate %s: %w", s.name, err)
		}
		el += time.Since(t)
		nl, props, depth, err := s.build()
		if err != nil {
			return fmt.Errorf("build %s: %w", s.name, err)
		}
		t = time.Now()
		d, err := core.NewDesign(nl)
		if err != nil {
			return fmt.Errorf("design %s: %w", s.name, err)
		}
		design += time.Since(t)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t = time.Now()
		if _, err := d.Machines(); err != nil {
			return fmt.Errorf("fsm %s: %w", s.name, err)
		}
		fsmT += time.Since(t)
		runtime.ReadMemStats(&m1)
		fsmAlloc += m1.TotalAlloc - m0.TotalAlloc
		t = time.Now()
		if _, err := d.ATPGPrep(); err != nil {
			return fmt.Errorf("atpg prep %s: %w", s.name, err)
		}
		prep += time.Since(t)
		t = time.Now()
		_, _ = d.BMCTemplate() // a design that cannot be bit-blasted still took the time
		cnfT += time.Since(t)
		for _, p := range props {
			t = time.Now()
			d.PropertyConeHash(p)
			cone += time.Since(t)
			hashes++
		}
		sess, err := d.NewSession(core.Options{MaxDepth: depth})
		if err != nil {
			return err
		}
		eng := sess.BDDEngine(mc.Options{})
		prob := core.Problem{NL: nl, Prop: props[len(props)-1], MaxDepth: depth}
		timed := func() time.Duration {
			cctx, cancel := context.WithTimeout(ctx, bddProbeTimeout)
			defer cancel()
			t := time.Now()
			eng.Check(cctx, prob)
			return time.Since(t)
		}
		cold := timed()
		bddT += cold - timed()
	}
	m.set("compile.parse_ms", ms(parse))
	m.set("compile.elab_ms", ms(el))
	m.set("compile.design_ms", ms(design))
	m.set("compile.fsm_ms", ms(fsmT))
	m.set("compile.fsm_alloc_mb", float64(fsmAlloc)/(1<<20))
	m.set("compile.atpg_prep_ms", ms(prep))
	m.set("compile.cnf_template_ms", ms(cnfT))
	m.set("compile.bdd_model_ms", ms(bddT))
	m.set("design.conehash_us", us(cone)/float64(hashes))
	return nil
}

var bvSink bv.BV

// bvOps runs a fixed mix of public three-valued ops on operands of
// width w with some unknown bits, n times; it returns ns per op.
func bvOps(w, n int) float64 {
	a := bv.Ones(w).WithBit(1, bv.X).WithBit(w-2, bv.X)
	b := bv.FromUint64(w, 0x5a5a5a5a5a5a5a5a).WithBit(3, bv.X)
	sh := bv.FromUint64(8, 3)
	const opsPerRound = 10
	t := time.Now()
	for i := 0; i < n; i++ {
		x := a.And(b)
		x = x.Or(a)
		x = x.Xor(b)
		x = x.Not()
		x = x.Add(b)
		x = x.Sub(a)
		x = x.Shl(sh)
		if y, ok := x.Intersect(a); ok {
			x = y
		}
		x = x.Union(b)
		bvSink = x.RedOr()
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n*opsPerRound)
}

// bvProbe reports the median of five timed rounds at 32 and 152 bits.
func bvProbe(m metrics) {
	var narrow, wide []float64
	for i := 0; i < 5; i++ {
		narrow = append(narrow, bvOps(32, 100000))
		wide = append(wide, bvOps(152, 30000))
	}
	m.set("bv.op_ns", median(narrow))
	m.set("bv.wide_op_ns", median(wide))
}

// propagateProbe times one implication pass — atpg.New, Require and
// Propagate — on a fixed Arbiter(24) requirement set.
func propagateProbe(c *corpus, m metrics) error {
	var cp *corpusProp
	for _, p := range c.props {
		if p.key == "arbiter24/p5" {
			cp = p
		}
	}
	if cp == nil {
		return fmt.Errorf("corpus has no arbiter24/p5")
	}
	nl := cp.cd.src.NL
	var times []float64
	for i := 0; i < 40; i++ {
		t := time.Now()
		eng, err := atpg.New(nl, cp.depth, atpg.ModeProve, atpg.Limits{}, nil, false)
		if err != nil {
			return err
		}
		eng.Require(cp.depth-1, cp.prop.Monitor, bv.FromUint64(1, 0))
		eng.Propagate()
		times = append(times, us(time.Since(t)))
	}
	m.set("atpg.propagate_us", median(times))
	return nil
}

// atpgProbe checks the corpus one property at a time with
// Session.CheckCtx (whose memstats are attributable when nothing else
// runs), replays every returned trace on the simulator, and measures
// the Fig. 1 loop's induction share on the tail property.
func atpgProbe(ctx context.Context, c *corpus, m metrics) (atpg.Stats, []string, error) {
	var total atpg.Stats
	var wrong []string
	var wall time.Duration
	var allocs uint64
	var replays []float64
	for _, cp := range c.props {
		sess, err := cp.cd.d.NewSession(core.Options{MaxDepth: cp.depth, UseInduction: true})
		if err != nil {
			return total, nil, err
		}
		res := sess.CheckCtx(ctx, cp.prop)
		if !verdictOK(res.Verdict, cp.want) {
			wrong = append(wrong, fmt.Sprintf("%s: CheckCtx verdict %s, want %s", cp.key, res.Verdict, cp.want))
		}
		total = addCounts(total, res.Stats)
		wall += res.Elapsed
		allocs += res.AllocObjects
		if res.Trace != nil {
			t := time.Now()
			ok, err := replay(cp, res)
			replays = append(replays, us(time.Since(t)))
			if err != nil || !ok {
				wrong = append(wrong, fmt.Sprintf("%s: trace does not replay (%v)", cp.key, err))
			}
		}
	}
	m.set("atpg.ns_per_impl", float64(wall.Nanoseconds())/float64(total.Implications))
	m.set("atpg.allocs_per_check", float64(allocs)/float64(len(c.props)))
	m.set("sim.replay_us", median(replays))
	return total, wrong, fig1Probe(ctx, c, m)
}

// replay runs a returned trace through the public simulator and
// reports whether the monitor reaches the verdict's target value.
func replay(cp *corpusProp, res core.Result) (bool, error) {
	nl := cp.cd.src.NL
	s, err := sim.New(nl)
	if err != nil {
		return false, err
	}
	s.Reset()
	for sig, v := range res.InitState {
		if err := s.SetRegister(sig, v); err != nil {
			return false, err
		}
	}
	want := uint64(0)
	if cp.prop.Kind == property.Witness {
		want = 1
	}
	n := res.Trace.Len()
	for f := 0; f < n; f++ {
		for sig, v := range res.Trace.Inputs[f] {
			if err := s.SetInput(sig, v); err != nil {
				return false, err
			}
		}
		s.Eval()
		if f == n-1 {
			got, ok := s.Get(cp.prop.Monitor).Uint64()
			return ok && got == want, nil
		}
		s.Step()
	}
	return false, nil
}

// fig1Probe runs the tail property with induction off and on.
func fig1Probe(ctx context.Context, c *corpus, m metrics) error {
	for _, cp := range c.props {
		if cp.key != "token_ring96/p3" {
			continue
		}
		timed := func(induction bool) (time.Duration, error) {
			sess, err := cp.cd.d.NewSession(core.Options{MaxDepth: cp.depth, UseInduction: induction})
			if err != nil {
				return 0, err
			}
			return sess.CheckCtx(ctx, cp.prop).Elapsed, nil
		}
		bounded, err := timed(false)
		if err != nil {
			return err
		}
		full, err := timed(true)
		if err != nil {
			return err
		}
		m.set("fig1.bounded_ms", ms(bounded))
		m.set("fig1.induction_ms", ms(full-bounded))
		m.set("fig1.induction_share", ratio(float64(full-bounded), float64(full)))
		return nil
	}
	return fmt.Errorf("corpus has no token_ring96/p3")
}
