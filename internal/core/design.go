// The Design/Session split. A Design is the immutable compiled
// artifact of one netlist: the front-end output plus every static
// analysis and per-engine compiled form that does not depend on a
// particular run — local FSMs, per-signal cone/state analysis, the BMC
// frame template, the BDD model snapshot and the ATPG prep tables. All
// of it is built at most once (sync.Once-guarded, concurrency-safe)
// and shared read-only by any number of Sessions; a Session (see
// session.go) holds only cheap per-run mutable state. This is what
// lets N batch workers, portfolio members or serving requests check
// properties of one design with zero re-elaboration and zero
// re-compilation.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/atpg"
	"repro/internal/cnf"
	"repro/internal/elab"
	"repro/internal/fsm"
	"repro/internal/lru"
	"repro/internal/mc"
	"repro/internal/netlist"
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

	bmcOnce   sync.Once
	bmcTmpl   *cnf.Template
	bmcErr    error
	bmcBuilds atomic.Int32

	bddOnce   sync.Once
	bddComp   *mc.Compiled
	bddErr    error
	bddBuilds atomic.Int32

	// coneMemo caches ConeHash results per root-signal set; the walk is
	// cheap but runs once per property per request on the serving path.
	coneMu   sync.Mutex
	coneMemo map[string]string
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
	d := &Design{nl: nl, stats: nl.Stats()}
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
func (d *Design) BMCTemplate() (*cnf.Template, error) {
	d.bmcOnce.Do(func() {
		d.bmcBuilds.Add(1)
		d.bmcTmpl, d.bmcErr = cnf.Compile(d.nl)
	})
	return d.bmcTmpl, d.bmcErr
}

// BDDModel returns the design's compiled symbolic model (variable
// order, per-signal functions, transition relation), building it on
// first use under the default node budget. Sessions load the snapshot
// into private managers (mc.Compiled.CheckCtx). A design whose model
// blows the build budget returns the same error on every call, so its
// BDD checks report Unknown without rebuilding.
func (d *Design) BDDModel() (*mc.Compiled, error) {
	d.bddOnce.Do(func() {
		d.bddBuilds.Add(1)
		d.bddComp, d.bddErr = mc.Compile(d.nl, mc.CompileOptions{})
	})
	return d.bddComp, d.bddErr
}

// CacheBuilds reports how many times each lazily-compiled engine cache
// was built (fsm, atpg, bmc, bdd) — each must be 0 or 1; the
// build-once contract's test hook.
func (d *Design) CacheBuilds() (fsmB, atpgB, bmcB, bddB int) {
	return int(d.fsmBuilds.Load()), int(d.atpgBuilds.Load()),
		int(d.bmcBuilds.Load()), int(d.bddBuilds.Load())
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
