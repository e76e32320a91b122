package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// stateRequest is the batch every state test submits.
func stateRequest() CheckRequest {
	return CheckRequest{
		Design:     testSrc,
		Top:        "cnt3",
		Invariants: []string{"ok"},
		Witnesses:  []string{"hit5"},
		Depth:      8,
	}
}

// zeroElapsed normalizes the nondeterministic elapsed_ns field.
var elapsedRe = regexp.MustCompile(`"elapsed_ns": [0-9]+`)

func zeroElapsed(b []byte) string {
	return elapsedRe.ReplaceAllString(string(b), `"elapsed_ns": 0`)
}

// TestStateDirDoesNotChangeResponses: the durable-state path must
// leave response bytes identical to a stateless server — the
// acceptance criterion behind keeping the byte-identity smoke
// contracts running ungated. No search state outlives a request
// either: with the verdict cache off, the serve-smoke batch answered
// again after another design's batch matches its first answer.
func TestStateDirDoesNotChangeResponses(t *testing.T) {
	plain := httptest.NewServer(New(Options{}).Handler())
	defer plain.Close()
	stateful := httptest.NewServer(New(Options{StateDir: t.TempDir()}).Handler())
	defer stateful.Close()
	req := stateRequest()
	for i := 0; i < 2; i++ { // cold then warm
		_, a := postCheck(t, plain, req)
		_, b := postCheck(t, stateful, req)
		if zeroElapsed(a) != zeroElapsed(b) {
			t.Fatalf("round %d: stateful response diverged", i)
		}
	}

	uncached := httptest.NewServer(New(Options{StateDir: t.TempDir(), VerdictCacheEntries: -1}).Handler())
	defer uncached.Close()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "serve_smoke.v"))
	if err != nil {
		t.Fatal(err)
	}
	smoke := CheckRequest{Design: string(src), Top: "smoke",
		Invariants: []string{"tok_onehot", "quiet_ok"}, Witnesses: []string{"g5"}, Depth: 8, Jobs: 8}
	post := func(r CheckRequest) string {
		resp, body := postCheck(t, uncached, r)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", r.Top, resp.StatusCode, body)
		}
		return zeroElapsed(body)
	}
	first := post(smoke)
	post(laneRequest(laneSrc(0, 1, 2), 3))
	if again := post(smoke); again != first {
		t.Fatalf("serve-smoke answer changed after another design's request:\n%s\nvs\n%s", first, again)
	}
}

// logLines collects a server's log lines, formatted.
func logLines(lines *[]string) func(string, ...any) {
	return func(f string, a ...any) { *lines = append(*lines, fmt.Sprintf(f, a...)) }
}

func hasLine(lines []string, sub string) bool {
	for _, l := range lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// verdictSnap is the verdict snapshot's file in a state dir.
func verdictSnap(dir string) string { return filepath.Join(dir, "verdicts-cache.snap") }

// TestCorruptVerdictSnapshotStartsCold: a verdict snapshot torn by a
// crash mid-write is quarantined when the next server opens the state
// dir, and that server answers cold with the bytes the first one gave.
func TestCorruptVerdictSnapshotStartsCold(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Options{StateDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	_, body1 := postCheck(t, ts1, stateRequest())
	if err := s1.FlushState(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	name := verdictSnap(dir)
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var lines []string
	s2 := New(Options{StateDir: dir, Logf: logLines(&lines)})
	if err := s2.StateError(); err != nil {
		t.Fatal(err)
	}
	if !hasLine(lines, "quarantined") || hasLine(lines, "restored") {
		t.Fatalf("want a quarantine line and no restore line, got %q", lines)
	}
	if _, err := os.Stat(name + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, body2 := postCheck(t, ts2, stateRequest())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body2)
	}
	if got := resp.Header.Get("X-Verdict-Cache"); got != "hits=0 misses=2" {
		t.Fatalf("X-Verdict-Cache = %q after quarantine, want hits=0 misses=2", got)
	}
	if zeroElapsed(body1) != zeroElapsed(body2) {
		t.Fatalf("cold answer after quarantine differs:\n%s\nvs\n%s", body1, body2)
	}
}

func TestHealthzUptimeVersionAndStateBlock(t *testing.T) {
	s := New(Options{StateDir: t.TempDir(), Version: "test-build"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postCheck(t, ts, stateRequest())
	if err := s.FlushState(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Version string      `json:"version"`
		UptimeS float64     `json:"uptime_s"`
		State   healthState `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Version != "test-build" {
		t.Fatalf("version = %q", h.Version)
	}
	if h.UptimeS < 0 {
		t.Fatalf("uptime_s = %v", h.UptimeS)
	}
	if !h.State.Enabled {
		t.Fatal("state block not enabled")
	}
	if h.State.FlushAgeS < 0 {
		t.Fatalf("flush_age_s = %v after a flush", h.State.FlushAgeS)
	}
	if h.State.Snapshots < 1 || h.State.Bytes <= 0 {
		t.Fatalf("state inventory empty: %+v", h.State)
	}
}

// TestUnchangedVerdictsNotRewritten: a flush writes the verdict
// snapshot only when the cache mutated since the last write, and a
// restore is no mutation, so a restarted server that has answered
// nothing new leaves the file alone.
func TestUnchangedVerdictsNotRewritten(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s := New(Options{StateDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postCheck(t, ts, stateRequest())
	if err := s.FlushState(ctx); err != nil {
		t.Fatal(err)
	}
	name := verdictSnap(dir)
	info, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	// mtime granularity can be coarse, so compare against a marker.
	marker := info.ModTime().Add(-1)
	if err := os.Chtimes(name, marker, marker); err != nil {
		t.Fatal(err)
	}
	unchanged := func(when string) {
		t.Helper()
		info, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if !info.ModTime().Equal(marker) {
			t.Fatalf("unchanged verdict snapshot was rewritten %s", when)
		}
	}
	postCheck(t, ts, stateRequest()) // all hits: no mutation
	if err := s.FlushState(ctx); err != nil {
		t.Fatal(err)
	}
	unchanged("by a second flush")
	restarted := New(Options{StateDir: dir})
	if err := restarted.FlushState(ctx); err != nil {
		t.Fatal(err)
	}
	unchanged("by a restarted server's flush")
}
