// The verdict cache: cone-granular incremental re-verification. The
// dominant production workload is CI — the same design resubmitted
// with small edits — and a whole-source cache key invalidates every
// verdict on any one-line change. This cache keys each property's
// record on its cone hash (conehash.go) plus everything else the
// record depends on (property kind and name, depth bounds, engine,
// session options), so an edit re-checks only the properties whose
// cones it actually touched.
//
// Byte-safety is the design constraint: per-property records are
// deterministic and batch-composition-independent (the ROADMAP
// invariants the serving contracts pin), so a stored JSONRecord
// replayed verbatim is exactly what a fresh re-check would produce —
// the cache is transparent to every consumer of the record bytes.
// Two guards keep that true:
//
//   - only deterministic verdicts are stored (proved, proved-bounded,
//     falsified, witness-found, no-witness) — unknown depends on
//     wall-clock deadlines and error on injected faults;
//   - non-ATPG engines key on the whole-design fingerprint in addition
//     to the cone: a cone that holds every register is checked on the
//     whole design, and a sliced cone keeps the design's relative
//     signal order, which the cone hash does not see, so BMC variable
//     numbering and the BDD variable order can change under
//     out-of-cone edits and move their effort counters even though
//     verdicts cannot. ATPG records are cone-local by construction,
//     which is what makes cross-edit reuse sound on the default path.
package core

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/lru"
	"repro/internal/property"
)

// DefaultVerdictCacheCap bounds the verdict cache when callers pass no
// explicit capacity. Entries are one JSONRecord each (~200 bytes), so
// the default costs about a megabyte fully populated.
const DefaultVerdictCacheCap = 4096

// VerdictCache is a bounded, concurrency-safe map from verdict keys to
// the exact wire records of previous runs. Construct with
// NewVerdictCache.
type VerdictCache struct {
	entries *lru.Cache[string, JSONRecord]
	stores  atomic.Int64
}

// VerdictCacheStats is a point-in-time snapshot of the cache counters.
type VerdictCacheStats struct {
	Entries   int
	Hits      int64
	Misses    int64
	Stores    int64
	Evictions int64
}

// NewVerdictCache returns an empty cache bounded to capacity entries
// (0 = DefaultVerdictCacheCap, < 0 = unbounded).
func NewVerdictCache(capacity int) *VerdictCache {
	if capacity == 0 {
		capacity = DefaultVerdictCacheCap
	}
	if capacity < 0 {
		capacity = 0 // lru: <= 0 means unbounded
	}
	return &VerdictCache{entries: lru.New[string, JSONRecord](capacity)}
}

// Get returns the cached record for key, marking it recently used.
func (vc *VerdictCache) Get(key string) (JSONRecord, bool) {
	return vc.entries.Get(key)
}

// Put stores a record under key. Callers are responsible for only
// storing deterministic verdicts (cacheableVerdict).
func (vc *VerdictCache) Put(key string, rec JSONRecord) {
	vc.entries.Add(key, rec)
	vc.stores.Add(1)
}

// Len returns the number of resident records.
func (vc *VerdictCache) Len() int { return vc.entries.Len() }

// Mutations returns a counter that advances on every Put — the
// flush-skip signal for persistence (an unchanged counter means the
// snapshot on disk is already current).
func (vc *VerdictCache) Mutations() int64 { return vc.stores.Load() }

// Stats snapshots the cache counters.
func (vc *VerdictCache) Stats() VerdictCacheStats {
	st := vc.entries.Stats()
	return VerdictCacheStats{
		Entries:   st.Len,
		Hits:      st.Hits,
		Misses:    st.Misses,
		Stores:    vc.stores.Load(),
		Evictions: st.Evictions,
	}
}

// verdictSnapshot is the persisted form: entries MRU-first, inside the
// persist store's validated envelope.
type verdictSnapshot struct {
	Version int            `json:"version"`
	Entries []verdictEntry `json:"entries"`
}

type verdictEntry struct {
	Key    string     `json:"key"`
	Record JSONRecord `json:"record"`
}

const verdictSnapshotVersion = 1

// Snapshot serializes the cache for persistence, MRU-first, so a
// restore preserves the recency order a warm restart wants.
func (vc *VerdictCache) Snapshot() ([]byte, error) {
	snap := verdictSnapshot{Version: verdictSnapshotVersion}
	for _, key := range vc.entries.Keys() {
		if rec, ok := vc.entries.Peek(key); ok {
			snap.Entries = append(snap.Entries, verdictEntry{Key: key, Record: rec})
		}
	}
	return json.Marshal(snap)
}

// Restore loads a Snapshot blob, inserting LRU-first so the MRU entry
// ends up most recent again. Entries whose verdict no current version
// understands are skipped; an undecodable blob restores nothing. It
// returns the number of records restored.
func (vc *VerdictCache) Restore(blob []byte) (int, error) {
	var snap verdictSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		return 0, err
	}
	if snap.Version != verdictSnapshotVersion {
		return 0, fmt.Errorf("core: verdict snapshot version %d, want %d", snap.Version, verdictSnapshotVersion)
	}
	n := 0
	for i := len(snap.Entries) - 1; i >= 0; i-- {
		e := snap.Entries[i]
		if v, ok := verdictFromString(e.Record.Verdict); !ok || !cacheableVerdict(v) {
			continue
		}
		vc.entries.Add(e.Key, e.Record)
		n++
	}
	return n, nil
}

// verdictFromString inverts Verdict.String.
func verdictFromString(s string) (Verdict, bool) {
	for i, name := range verdictNames {
		if name == s {
			return Verdict(i), true
		}
	}
	return 0, false
}

// cacheableVerdict reports whether a verdict is deterministic enough
// to replay: unknown depends on deadlines and resource limits racing
// wall clock, error on faults — neither is a fact about the design.
func cacheableVerdict(v Verdict) bool {
	return v <= VerdictNoWitness
}

// verdictKey assembles the full cache key for one property check. The
// property name is last: cone hashes are hex and meta is built from
// fixed fields, so the name (a Verilog identifier) can never collide
// with the separators in front of it.
func verdictKey(cone string, p property.Property, meta string) string {
	return cone + "|" + p.Kind.String() + "|" + meta + "|" + p.Name
}

// cacheMeta canonically encodes everything outside the cone that a
// record depends on: the engine, the depth bound, the induction and
// local-FSM switches and the ablation switches. Non-ATPG
// engines additionally pin the whole-design fingerprint (see the
// package comment); designs without a fingerprint (programmatic
// netlists) disable caching for those engines by returning "". The
// leading version changes whenever a fresh run's record for an
// unchanged key does, so a persisted entry never replays a record the
// engine no longer produces (v2: per-register local FSMs; v3: proofs
// at the first k that closes, with the depth of that k; v4: one
// bit-level expander, which changes BMC records' effort counters, and
// x sources free in the whole-design BDD model, which changes
// mem_units in BDD records on designs with x sources; v5: the fallback
// decision branches over a local FSM's values, which changes ATPG
// records on designs whose registers pass 64 reachable values; v6: BMC
// and BDD check a property's cone of influence, which changes their
// records wherever the cone leaves a register out). A
// change to the key's fields alone, with every fresh record the same,
// keeps the version: older keys have another shape and never match.
func (c *Session) cacheMeta(engineName string) string {
	o := c.opts
	meta := fmt.Sprintf("v6|%s|d%d|ind%t|fsm%t|%+v",
		engineName, o.MaxDepth, o.UseInduction, o.DisableLocalFSM, o.Features)
	if engineName != EngineATPG {
		fp := c.d.fingerprint
		if fp == "" {
			return ""
		}
		meta += "|fp" + fp
	}
	return meta
}

// resultFromRecord rebuilds the Result a cached record stands for. The
// structured extras a live run carries (counterexample trace, initial
// state, full ATPG stats) are not part of the wire record and are not
// reconstructed — record consumers (the serving path, -json output)
// never see them.
func resultFromRecord(rec JSONRecord) Result {
	v, _ := verdictFromString(rec.Verdict)
	return Result{
		Property: rec.Property,
		Verdict:  v,
		Engine:   rec.Engine,
		Metrics: EngineMetrics{
			Decisions:    rec.Decisions,
			Conflicts:    rec.Conflicts,
			Implications: rec.Implications,
			MemUnits:     rec.MemUnits,
		},
		Depth:     rec.Depth,
		Elapsed:   time.Duration(rec.ElapsedNs),
		Validated: rec.Validated,
		Err:       rec.Error,
		FromCache: true,
	}
}
