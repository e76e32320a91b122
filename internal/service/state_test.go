package service

import (
	"context"
	"encoding/json"
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

func TestStateDirWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Process 1: serve one request, flush, "die".
	s1 := New(Options{StateDir: dir})
	if err := s1.StateError(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp, body1 := postCheck(t, ts1, stateRequest())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body1)
	}
	if got := resp.Header.Get("X-Design-Cache"); got != "miss" {
		t.Fatalf("cold first request: X-Design-Cache = %q", got)
	}
	if err := s1.FlushState(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Process 2: rewarm from the manifest; the first request must be a
	// design-cache hit with a byte-identical body.
	var lines []string
	s2 := New(Options{StateDir: dir, Logf: func(f string, a ...any) {
		lines = append(lines, f)
	}})
	if err := s2.StateError(); err != nil {
		t.Fatal(err)
	}
	if n := s2.Rewarm(ctx); n != 1 {
		t.Fatalf("Rewarm = %d, want 1", n)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp2, body2 := postCheck(t, ts2, stateRequest())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Design-Cache"); got != "hit" {
		t.Fatalf("warm restart first request: X-Design-Cache = %q", got)
	}
	if zeroElapsed(body1) != zeroElapsed(body2) {
		t.Fatal("warm-restart response differs from cold response")
	}
	found := false
	for _, l := range lines {
		if strings.Contains(l, "rewarmed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no rewarm log line in %q", lines)
	}
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

func TestCorruptManifestStartsCold(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s1 := New(Options{StateDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	postCheck(t, ts1, stateRequest())
	if err := s1.FlushState(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Truncate the manifest snapshot to simulate a crash mid-write.
	matches, err := filepath.Glob(filepath.Join(dir, "manifest-*.snap"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("manifest glob: %v %v", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(matches[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var lines []string
	s2 := New(Options{StateDir: dir, Logf: func(f string, a ...any) {
		lines = append(lines, f)
	}})
	if n := s2.Rewarm(ctx); n != 0 {
		t.Fatalf("Rewarm over corrupt manifest = %d, want 0", n)
	}
	quarantined := false
	for _, l := range lines {
		if strings.Contains(l, "quarantined") {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("no quarantine log line in %q", lines)
	}
	if _, err := os.Stat(matches[0] + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// The server still serves.
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if resp, body := postCheck(t, ts2, stateRequest()); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func TestHealthzUptimeVersionAndStateBlock(t *testing.T) {
	s := New(Options{StateDir: t.TempDir(), Version: "test-build"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
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

func TestManifestWrittenOnceWhenUnchanged(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s := New(Options{StateDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postCheck(t, ts, stateRequest())
	if err := s.FlushState(ctx); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, "manifest-designs.snap")
	info1, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	// Unchanged cache: the second flush must not rewrite the manifest.
	// (mtime granularity can be coarse, so compare by marker mtime.)
	marker := info1.ModTime().Add(-1)
	if err := os.Chtimes(name, marker, marker); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushState(ctx); err != nil {
		t.Fatal(err)
	}
	info2, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.ModTime().Equal(marker) {
		t.Fatal("unchanged manifest was rewritten")
	}
}
