// The Design/Session split. A Design is the immutable compiled
// artifact of one netlist: the front-end output plus every static
// analysis and per-engine compiled form that does not depend on a
// particular run — local FSMs, per-signal cone/state analysis, the BMC
// frame template and the BDD model snapshot (the design's, and one
// each per property cone that leaves a register out), the ATPG prep
// tables and the per-property cone hashes. Each is a lazy: built at
// most once, on first use, and shared read-only by any number of
// Sessions; a Session (see session.go) holds only cheap per-run
// mutable state.
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

	machines lazy[[]*fsm.Machine]
	prep     lazy[*atpg.Prep]

	// whole holds the design's own CNF template and BDD model.
	whole forms

	// cones maps a property's root list (coneRoots) to its cone entry.
	// An entry lives as long as the design; root lists name the
	// design's own signals, so there is at most one entry per distinct
	// root list hashed or checked.
	conesMu sync.Mutex
	cones   map[string]*coneEntry
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

// lazy is a value built at most once, on first use: concurrent first
// callers share one build, and a build error is cached with the value,
// so a failed build is never rerun. builds counts the builds (0 or 1),
// for the build-once contract's tests.
type lazy[T any] struct {
	once   sync.Once
	v      T
	err    error
	builds atomic.Int32
}

// get returns the value, running build on the first call only.
func (l *lazy[T]) get(build func() (T, error)) (T, error) {
	l.once.Do(func() {
		l.builds.Add(1)
		l.v, l.err = build()
	})
	return l.v, l.err
}

// Machines returns the extracted local FSMs (§6), building them on
// first use.
func (d *Design) Machines() ([]*fsm.Machine, error) {
	return d.machines.get(func() ([]*fsm.Machine, error) { return fsm.Extract(d.nl) })
}

// ATPGPrep returns the shared ATPG engine tables (gate
// classifications, table shapes), building them on first use.
func (d *Design) ATPGPrep() (*atpg.Prep, error) {
	return d.prep.get(func() (*atpg.Prep, error) { return atpg.NewPrep(d.nl) })
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

// forms holds the compiled BMC and BDD forms of one netlist, a
// design's or a property cone's.
type forms struct {
	nl  *netlist.Netlist
	bmc lazy[*cnf.Template]
	bdd lazy[*mc.Compiled]
}

// template returns the one-frame CNF template, bit-blasting it on
// first use.
func (f *forms) template() (*cnf.Template, error) {
	return f.bmc.get(func() (*cnf.Template, error) { return cnf.Compile(f.nl) })
}

// model returns the compiled symbolic model, building it on first use
// under the default node budget.
func (f *forms) model() (*mc.Compiled, error) {
	return f.bdd.get(func() (*mc.Compiled, error) { return mc.Compile(f.nl, mc.CompileOptions{}) })
}

// coneRoots is the root list of p's cone of influence: the monitor,
// then the assumptions (they constrain the search, so they are part of
// the verdict's identity).
func coneRoots(p property.Property) []netlist.SignalID {
	return append(append(make([]netlist.SignalID, 0, 1+len(p.Assumes)), p.Monitor), p.Assumes...)
}

// coneEntry is the cache of one root list's cone of influence. Its two
// facets build independently, each on first use: the content hash the
// verdict cache keys on (PropertyConeHash), and the slice the BMC and
// BDD engines check (coneFor), whose build walks the cone.
type coneEntry struct {
	roots []netlist.SignalID
	hash  lazy[string]
	slice lazy[*cone]
}

// coneOf returns the cone entry of p's root list, adding it on first
// use. p's signals must predate the design.
func (d *Design) coneOf(p property.Property) *coneEntry {
	roots := coneRoots(p)
	key := fmt.Sprint(roots)
	d.conesMu.Lock()
	defer d.conesMu.Unlock()
	e, ok := d.cones[key]
	if !ok {
		if d.cones == nil {
			d.cones = make(map[string]*coneEntry)
		}
		e = &coneEntry{roots: roots}
		d.cones[key] = e
	}
	return e
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

// coneFor returns the cone that serves p's BMC and BDD checks, nil
// when p's cone holds every register of the design. The cone of a root
// list is walked on its first check only.
func (d *Design) coneFor(p property.Property) *cone {
	e := d.coneOf(p)
	cn, _ := e.slice.get(func() (*cone, error) {
		nl, toCone := d.nl.Cone(e.roots...)
		if len(nl.FFs) == len(d.nl.FFs) {
			return nil, nil
		}
		cn := &cone{forms: forms{nl: nl}, toCone: toCone, toDesign: make([]netlist.SignalID, nl.NumSignals())}
		for s, c := range toCone {
			if c != netlist.None {
				cn.toDesign[c] = netlist.SignalID(s)
			}
		}
		return cn, nil
	})
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

// designCacheCap bounds the process-wide design cache. The cache keys
// on live netlist pointers, so without a bound it would pin every
// netlist a process ever compiled — in a long-lived server, an
// unbounded leak. Eviction only costs a recompile on the next
// DesignFor for that netlist; correctness never depends on residency.
const designCacheCap = 128

// designCache memoizes DesignFor per netlist build state, LRU-bounded.
// Entries singleflight their build as lazies, so concurrent first
// callers share one compilation while the entry is resident.
var designCache = lru.New[designKey, *lazy[*Design]](designCacheCap)

// DesignFor returns the (process-wide cached) compiled design of a
// netlist: repeated calls — every batch worker, every sibling checker,
// every portfolio member — share one Design, so elaboration-derived
// analyses run exactly once per netlist build state (while the entry
// stays resident; see designCacheCap).
func DesignFor(nl *netlist.Netlist) (*Design, error) {
	key := designKey{nl, nl.NumSignals(), nl.NumGates()}
	e, _ := designCache.GetOrAdd(key, func() *lazy[*Design] { return new(lazy[*Design]) })
	d, err := e.get(func() (*Design, error) { return NewDesign(nl) })
	if err != nil {
		return nil, fmt.Errorf("core: compiling design %s: %w", nl.Name, err)
	}
	return d, nil
}
