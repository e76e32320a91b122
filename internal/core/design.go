// The Design/Session split. A Design is the immutable compiled
// artifact of one netlist: the front-end output plus every static
// analysis and per-engine compiled form that does not depend on a
// particular run — local FSMs, per-signal cone/state analysis, the BMC
// frame template and the BDD model snapshot (the design's, and one
// each per property cone that leaves a register out) and the ATPG prep
// tables. All of it is built at most once (sync.Once-guarded,
// concurrency-safe) and shared read-only by any number of Sessions; a
// Session (see session.go) holds only cheap per-run mutable state.
// This is what lets N batch workers, portfolio members or serving
// requests check properties of one design with zero re-elaboration and
// zero re-compilation.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/atpg"
	"repro/internal/bmc"
	"repro/internal/bv"
	"repro/internal/cnf"
	"repro/internal/elab"
	"repro/internal/fsm"
	"repro/internal/lru"
	"repro/internal/mc"
	"repro/internal/netlist"
	"repro/internal/property"
	"repro/internal/verilog"
)

// Design is the immutable compiled form of one netlist. Construction
// (NewDesign) runs the cheap always-needed analyses eagerly; the
// per-engine compiled caches build lazily on first use, exactly once
// each, and every accessor is safe for concurrent callers.
type Design struct {
	nl    *netlist.Netlist
	stats netlist.Stats
	// stateBearing[s] reports whether a flip-flop lies in the
	// transitive fanin of signal s — the per-property cone analysis
	// (a property whose monitor and assumption cones are all
	// combinational is fully proved by a depth-1 exhaustion).
	stateBearing []bool
	// fingerprint identifies the design content: the source hash when
	// compiled from Verilog (CompileVerilog), empty for netlists built
	// programmatically.
	fingerprint string

	fsmOnce   sync.Once
	machines  []*fsm.Machine
	fsmErr    error
	fsmBuilds atomic.Int32

	atpgOnce   sync.Once
	atpgPrep   *atpg.Prep
	atpgErr    error
	atpgBuilds atomic.Int32

	// whole holds the design's own CNF template and BDD model.
	whole forms

	// coneMemo caches ConeHash results per root-signal set; the walk is
	// cheap but runs once per property per request on the serving path.
	coneMu   sync.Mutex
	coneMemo map[string]string

	// cones maps a property's root list (the monitor, then the
	// assumptions) to the compiled forms of its cone of influence, nil
	// when the cone holds every register and the design's own forms
	// serve it. An entry lives as long as the design; root lists name
	// the design's own signals, so there is at most one entry per
	// distinct root list checked. coneWalks counts the walks, for the
	// build-once-per-cone contract's test hook.
	conesMu   sync.Mutex
	cones     map[string]*cone
	coneWalks atomic.Int32
}

// NewDesign compiles a netlist into an immutable design artifact. The
// design covers the netlist as it is now: signals and gates added
// afterwards are not reflected in its analyses. A session routes a
// check over a grown netlist to DesignFor, which keys on the signal and
// gate counts (Session.designFor).
func NewDesign(nl *netlist.Netlist) (*Design, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	d := &Design{nl: nl, stats: nl.Stats(), whole: forms{nl: nl}}
	// Prime the netlist's memoized topological order from this single
	// construction point, so concurrent sessions only ever read it.
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	d.stateBearing = make([]bool, nl.NumSignals())
	for _, ff := range nl.FFs {
		d.stateBearing[nl.Gates[ff].Out] = true
	}
	for _, gid := range order {
		g := &nl.Gates[gid]
		for _, in := range g.In {
			if d.stateBearing[in] {
				d.stateBearing[g.Out] = true
				break
			}
		}
	}
	return d, nil
}

// CompileVerilog runs the whole front end — parse, elaborate, design
// compilation — and fingerprints the result by content hash, so a
// serving layer can cache compiled designs across requests.
func CompileVerilog(src, top string) (*Design, error) {
	ast, err := verilog.Parse(src)
	if err != nil {
		return nil, err
	}
	nl, err := elab.Elaborate(ast, top, nil)
	if err != nil {
		return nil, err
	}
	d, err := NewDesign(nl)
	if err != nil {
		return nil, err
	}
	d.fingerprint = Fingerprint(src, top)
	return d, nil
}

// Fingerprint returns the content hash a CompileVerilog design carries:
// sha256 over the top-module name and the source text.
func Fingerprint(src, top string) string {
	h := sha256.New()
	h.Write([]byte(top))
	h.Write([]byte{0})
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil))
}

// Netlist returns the design under check.
func (d *Design) Netlist() *netlist.Netlist { return d.nl }

// Stats returns the netlist statistics computed at design build.
func (d *Design) Stats() netlist.Stats { return d.stats }

// Fingerprint returns the content hash (empty for programmatic
// netlists).
func (d *Design) Fingerprint() string { return d.fingerprint }

// stale reports whether the netlist has gained signals or gates since
// the design was built, so that its analyses no longer cover it.
func (d *Design) stale() bool {
	return d.nl.NumSignals() != len(d.stateBearing) || d.nl.NumGates() != d.stats.Gates
}

// coneHasState reports whether any of the given signals has a
// flip-flop in its transitive fanin. The signals must predate the
// design.
func (d *Design) coneHasState(sigs ...netlist.SignalID) bool {
	for _, s := range sigs {
		if d.stateBearing[s] {
			return true
		}
	}
	return false
}

// Machines returns the extracted local FSMs (§6), building them on
// first use. Exactly one extraction runs even under concurrent first
// callers.
func (d *Design) Machines() ([]*fsm.Machine, error) {
	d.fsmOnce.Do(func() {
		d.fsmBuilds.Add(1)
		d.machines, d.fsmErr = fsm.Extract(d.nl)
	})
	return d.machines, d.fsmErr
}

// ATPGPrep returns the shared ATPG engine tables (gate
// classifications, table shapes), building them on first use.
func (d *Design) ATPGPrep() (*atpg.Prep, error) {
	d.atpgOnce.Do(func() {
		d.atpgBuilds.Add(1)
		d.atpgPrep, d.atpgErr = atpg.NewPrep(d.nl)
	})
	return d.atpgPrep, d.atpgErr
}

// BMCTemplate returns the design's compiled one-frame CNF template,
// bit-blasting it on first use. Sessions instantiate it into private
// solvers (bmc.CheckCompiled); the template itself is immutable.
func (d *Design) BMCTemplate() (*cnf.Template, error) { return d.whole.template() }

// BDDModel returns the design's compiled symbolic model (variable
// order, per-signal functions, transition relation), building it on
// first use under the default node budget. Sessions load the snapshot
// into private managers (mc.Compiled.CheckCtx). A design whose model
// blows the build budget returns the same error on every call, so its
// BDD checks report Unknown without rebuilding.
func (d *Design) BDDModel() (*mc.Compiled, error) { return d.whole.model() }

// CacheBuilds reports how many times each lazily-compiled engine cache
// was built (fsm, atpg, bmc, bdd) — each must be 0 or 1; the
// build-once contract's test hook.
func (d *Design) CacheBuilds() (fsmB, atpgB, bmcB, bddB int) {
	return int(d.fsmBuilds.Load()), int(d.atpgBuilds.Load()),
		int(d.whole.bmcBuilds.Load()), int(d.whole.bddBuilds.Load())
}

// forms holds the compiled BMC and BDD forms of one netlist, a
// design's or a property cone's. Each builds at most once, on first
// use, and caches its build error.
type forms struct {
	nl *netlist.Netlist

	bmcOnce   sync.Once
	bmcTmpl   *cnf.Template
	bmcErr    error
	bmcBuilds atomic.Int32

	bddOnce   sync.Once
	bddComp   *mc.Compiled
	bddErr    error
	bddBuilds atomic.Int32
}

// template returns the one-frame CNF template, bit-blasting it on
// first use.
func (f *forms) template() (*cnf.Template, error) {
	f.bmcOnce.Do(func() {
		f.bmcBuilds.Add(1)
		f.bmcTmpl, f.bmcErr = cnf.Compile(f.nl)
	})
	return f.bmcTmpl, f.bmcErr
}

// model returns the compiled symbolic model, building it on first use
// under the default node budget.
func (f *forms) model() (*mc.Compiled, error) {
	f.bddOnce.Do(func() {
		f.bddBuilds.Add(1)
		f.bddComp, f.bddErr = mc.Compile(f.nl, mc.CompileOptions{})
	})
	return f.bddComp, f.bddErr
}

// cone is one property's cone of influence (netlist.Cone) with its own
// compiled forms, for the BMC and BDD engines. A model's cost is its
// state, so a cone that leaves a register out checks in a model of its
// own. A nil *cone stands for a cone that holds every register: the
// design's own forms serve it, unchanged.
type cone struct {
	forms
	toCone   []netlist.SignalID // design signal → cone signal, None outside
	toDesign []netlist.SignalID // cone signal → design signal
}

// coneFor returns the cone cache that serves p's BMC and BDD checks,
// nil when p's cone holds every register of the design. The cone of a
// root list (the monitor, then the assumptions) is walked on its first
// check only. p's signals must predate the design.
func (d *Design) coneFor(p property.Property) *cone {
	roots := append([]netlist.SignalID{p.Monitor}, p.Assumes...)
	key := fmt.Sprint(roots)
	d.conesMu.Lock()
	defer d.conesMu.Unlock()
	if cn, ok := d.cones[key]; ok {
		return cn
	}
	d.coneWalks.Add(1)
	nl, toCone := d.nl.Cone(roots...)
	var cn *cone
	if len(nl.FFs) < len(d.nl.FFs) {
		cn = &cone{forms: forms{nl: nl}, toCone: toCone, toDesign: make([]netlist.SignalID, nl.NumSignals())}
		for s, c := range toCone {
			if c != netlist.None {
				cn.toDesign[c] = netlist.SignalID(s)
			}
		}
	}
	if d.cones == nil {
		d.cones = make(map[string]*cone)
	}
	d.cones[key] = cn
	return cn
}

// formsFor returns the compiled forms that serve cn: the design's own
// for nil.
func (d *Design) formsFor(cn *cone) *forms {
	if cn == nil {
		return &d.whole
	}
	return &cn.forms
}

// property rewrites p onto the cone's signals.
func (cn *cone) property(p property.Property) property.Property {
	if cn == nil {
		return p
	}
	p.Monitor = cn.toCone[p.Monitor]
	p.Assumes = slices.Clone(p.Assumes)
	for i, a := range p.Assumes {
		p.Assumes[i] = cn.toCone[a]
	}
	return p
}

// toDesignSignals maps a BMC model over the cone back to design
// signals, so the design replays it. Inputs outside the cone stay out
// of the trace: they cannot reach the property, and the simulator reads
// a missing input as all-x.
func (cn *cone) toDesignSignals(br *bmc.Result) {
	if cn == nil || br.Trace == nil {
		return
	}
	mapKeys := func(m map[netlist.SignalID]bv.BV) map[netlist.SignalID]bv.BV {
		out := make(map[netlist.SignalID]bv.BV, len(m))
		for s, v := range m {
			out[cn.toDesign[s]] = v
		}
		return out
	}
	for f, in := range br.Trace.Inputs {
		br.Trace.Inputs[f] = mapKeys(in)
	}
	br.InitState = mapKeys(br.InitState)
}

// ---------------------------------------------------------------------
// Design cache.

// designKey identifies a netlist build state: the pointer plus the
// signal and gate counts, so a netlist extended with new monitor logic
// or new inputs after a design was compiled gets a fresh design.
type designKey struct {
	nl          *netlist.Netlist
	sigs, gates int
}

type designEntry struct {
	once sync.Once
	d    *Design
	err  error
}

// DefaultDesignCacheCap bounds the process-wide design cache. The
// cache keys on live netlist pointers, so before the bound existed it
// pinned every netlist a process ever compiled — in a long-lived
// server that is an unbounded leak. Eviction only costs a recompile on
// the next DesignFor for that netlist; correctness never depends on
// residency.
const DefaultDesignCacheCap = 128

// designCache memoizes DesignFor per netlist build state, LRU-bounded.
// Entries singleflight their build through a sync.Once, so concurrent
// first callers share one compilation while the entry is resident.
var designCache = lru.New[designKey, *designEntry](DefaultDesignCacheCap)

// DesignFor returns the (process-wide cached) compiled design of a
// netlist: repeated calls — every batch worker, every sibling checker,
// every portfolio member — share one Design, so elaboration-derived
// analyses run exactly once per netlist build state (while the entry
// stays resident; see DefaultDesignCacheCap).
func DesignFor(nl *netlist.Netlist) (*Design, error) {
	key := designKey{nl, nl.NumSignals(), nl.NumGates()}
	e, _ := designCache.GetOrAdd(key, func() *designEntry { return &designEntry{} })
	e.once.Do(func() {
		e.d, e.err = NewDesign(nl)
	})
	if e.err != nil {
		return nil, fmt.Errorf("core: compiling design %s: %w", nl.Name, e.err)
	}
	return e.d, nil
}

// DesignCacheStats snapshots the process-wide design cache counters
// (hits, misses, evictions, residency) for serving-path observability.
func DesignCacheStats() lru.Stats { return designCache.Stats() }

// SetDesignCacheCap rebounds the process-wide design cache (<= 0 for
// unbounded), evicting down to the new bound, and returns the previous
// cap — an ops tuning knob for servers holding many designs.
func SetDesignCacheCap(n int) int { return designCache.SetCap(n) }
