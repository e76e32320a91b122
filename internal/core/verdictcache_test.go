package core

// Byte-safety of the verdict cache: a cache hit must be
// indistinguishable on the wire from the run that populated it —
// replayed records are byte-identical including elapsed_ns and search
// metrics, which is what lets the serving layer keep its
// "responses are byte-reproducible" contract with the cache on.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/property"
)

// batchRecords runs CheckAll on a fresh session over d and returns the
// results plus their encoded wire bytes.
func batchRecords(t *testing.T, d *Design, names []string, cache *VerdictCache) ([]Result, []byte) {
	t.Helper()
	sess, err := d.NewSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	props, err := property.FromNames(d.Netlist(), names, nil)
	if err != nil {
		t.Fatal(err)
	}
	results := sess.CheckAll(context.Background(), props, BatchOptions{Cache: cache})
	recs := make([]JSONRecord, len(results))
	for i, r := range results {
		recs[i] = RecordFromResult(r)
	}
	var buf bytes.Buffer
	if err := EncodeJSONRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return results, buf.Bytes()
}

func TestVerdictCacheWarmReplayByteIdentical(t *testing.T) {
	src := coneTestSrc("v1", false, 0, 0)
	d, err := CompileVerilog(src, "top")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"ok0", "ok1"}
	cache := NewVerdictCache(0)

	cold, coldBytes := batchRecords(t, d, names, cache)
	for i, r := range cold {
		if r.FromCache {
			t.Errorf("cold result %d claims FromCache", i)
		}
	}
	if got := cache.Len(); got != len(names) {
		t.Fatalf("cache holds %d entries after cold run, want %d", got, len(names))
	}

	// Same source recompiled — a different Design value, as a separate
	// process restart would produce — must hit on every property and
	// encode byte-identically, original elapsed_ns included.
	d2, err := CompileVerilog(src, "top")
	if err != nil {
		t.Fatal(err)
	}
	warm, warmBytes := batchRecords(t, d2, names, cache)
	for i, r := range warm {
		if !r.FromCache {
			t.Errorf("warm result %d not from cache", i)
		}
	}
	if !bytes.Equal(coldBytes, warmBytes) {
		t.Errorf("warm encoding differs from cold:\ncold: %s\nwarm: %s", coldBytes, warmBytes)
	}
	if st := cache.Stats(); st.Hits != int64(len(names)) {
		t.Errorf("stats hits = %d, want %d", st.Hits, len(names))
	}
}

func TestVerdictCacheDirtyConeSplit(t *testing.T) {
	cache := NewVerdictCache(0)
	d, err := CompileVerilog(coneTestSrc("v1", false, 0, 0), "top")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"ok0", "ok1"}
	_, coldBytes := batchRecords(t, d, names, cache)

	// Edit lane0's in-cone constant: ok0 must re-verify, ok1 must
	// replay its cold record verbatim.
	dEdit, err := CompileVerilog(coneTestSrc("v1", false, 5, 0), "top")
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := batchRecords(t, dEdit, names, cache)
	if warm[0].FromCache {
		t.Errorf("ok0 replayed from cache across an in-cone edit")
	}
	if !warm[1].FromCache {
		t.Errorf("ok1 re-verified despite an untouched cone")
	}
	wantOk1 := RecordFromResult(warm[1])
	var buf bytes.Buffer
	if err := EncodeJSONRecords(&buf, []JSONRecord{wantOk1}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(coldBytes, bytes.TrimSpace(trimBrackets(buf.Bytes()))) {
		t.Errorf("ok1 warm record not byte-identical to its cold record\nwarm: %s\ncold batch: %s", buf.Bytes(), coldBytes)
	}
}

// trimBrackets strips the surrounding JSON array frame from a
// single-record encoding so it can be matched inside a larger batch.
func trimBrackets(b []byte) []byte {
	b = bytes.TrimSpace(b)
	b = bytes.TrimPrefix(b, []byte("["))
	b = bytes.TrimSuffix(b, []byte("]"))
	return bytes.TrimSpace(b)
}

func TestVerdictCacheUnknownNotStored(t *testing.T) {
	d, err := CompileVerilog(coneTestSrc("v1", false, 0, 0), "top")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := d.NewSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	props, err := property.FromNames(d.Netlist(), []string{"ok0", "ok1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A cancelled context yields unknown verdicts: deadline-shaped
	// results must never be replayed to a later request with budget.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cache := NewVerdictCache(0)
	results := sess.CheckAll(ctx, props, BatchOptions{Cache: cache})
	for i, r := range results {
		if r.Verdict != VerdictUnknown {
			t.Fatalf("result %d verdict = %v under cancelled ctx, want unknown", i, r.Verdict)
		}
	}
	if cache.Len() != 0 || cache.Stats().Stores != 0 {
		t.Errorf("unknown verdicts were stored: len=%d stats=%+v", cache.Len(), cache.Stats())
	}
}

func TestVerdictCacheSnapshotRestoreRoundTrip(t *testing.T) {
	src := coneTestSrc("v1", true, 7, 9)
	d, err := CompileVerilog(src, "top")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"ok0", "ok1"}
	cache := NewVerdictCache(0)
	_, coldBytes := batchRecords(t, d, names, cache)

	blob, err := cache.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewVerdictCache(0)
	n, err := restored.Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(names) {
		t.Fatalf("restored %d entries, want %d", n, len(names))
	}

	// A restarted process compiles the design fresh and must replay the
	// pre-restart records byte-identically from the restored cache.
	d2, err := CompileVerilog(src, "top")
	if err != nil {
		t.Fatal(err)
	}
	warm, warmBytes := batchRecords(t, d2, names, restored)
	for i, r := range warm {
		if !r.FromCache {
			t.Errorf("post-restore result %d not from cache", i)
		}
	}
	if !bytes.Equal(coldBytes, warmBytes) {
		t.Errorf("post-restore encoding differs:\ncold: %s\nwarm: %s", coldBytes, warmBytes)
	}
}

// TestVerdictCacheOldVersionNeverServed: a verdict snapshot persisted
// under the previous cache-key version ("v4|", before the fallback
// branched over local-FSM values) holds records a fresh run no longer
// produces.
// Restored, none of them is served: every check runs fresh. The same
// record restored under the current meta is served, so the keys below
// are the ones the batch looks up.
func TestVerdictCacheOldVersionNeverServed(t *testing.T) {
	d, err := CompileVerilog(coneTestSrc("v1", false, 0, 0), "top")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := d.NewSession(Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"ok0", "ok1"}
	props, err := property.FromNames(d.Netlist(), names, nil)
	if err != nil {
		t.Fatal(err)
	}
	meta := sess.cacheMeta(EngineATPG)
	if !strings.HasPrefix(meta, "v5|") {
		t.Fatalf("cache meta %q does not carry version v5", meta)
	}
	restore := func(meta string) *VerdictCache {
		persisted := NewVerdictCache(0)
		for _, p := range props {
			// A record no fresh run produces: served, it shows.
			persisted.Put(verdictKey(d.PropertyConeHash(p), p, meta),
				JSONRecord{Property: p.Name, Engine: EngineATPG, Verdict: "falsified", Implications: 1})
		}
		blob, err := persisted.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored := NewVerdictCache(0)
		if n, err := restored.Restore(blob); err != nil || n != len(props) {
			t.Fatalf("restored %d entries (%v), want %d", n, err, len(props))
		}
		return restored
	}
	old := restore("v4|" + strings.TrimPrefix(meta, "v5|"))
	fresh, _ := batchRecords(t, d, names, old)
	for i, r := range fresh {
		if r.FromCache || r.Verdict == VerdictFalsified {
			t.Errorf("%s: served the v4 entry (from cache %v, verdict %v)", names[i], r.FromCache, r.Verdict)
		}
	}
	if st := old.Stats(); st.Hits != 0 {
		t.Errorf("v4 entries hit %d times, want 0", st.Hits)
	}
	current, _ := batchRecords(t, d, names, restore(meta))
	for i, r := range current {
		if !r.FromCache || r.Verdict != VerdictFalsified {
			t.Errorf("%s: the v5 entry was not served (from cache %v, verdict %v)", names[i], r.FromCache, r.Verdict)
		}
	}
}

func TestCacheableVerdict(t *testing.T) {
	cacheable := []Verdict{VerdictProved, VerdictProvedBounded, VerdictFalsified, VerdictWitnessFound, VerdictNoWitness}
	for _, v := range cacheable {
		if !cacheableVerdict(v) {
			t.Errorf("%v not cacheable, want cacheable", v)
		}
	}
	for _, v := range []Verdict{VerdictUnknown, VerdictError} {
		if cacheableVerdict(v) {
			t.Errorf("%v cacheable, want not", v)
		}
	}
}
