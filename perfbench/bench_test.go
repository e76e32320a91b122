package main

// The harness self-test: every workload runs very briefly, its output
// parses, the metric names it prints match BENCHMARK.json exactly, and
// the oracles reject corrupted answers. Run from perfbench/:
//
//	go test -timeout 15m .

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestMain(m *testing.M) {
	// The benchmark runs from the root of the checkout.
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// runBench runs one workload in-process and parses its last line.
func runBench(t *testing.T, args ...string) map[string]resultMetric {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("%v: last line does not parse: %v", args, err)
	}
	if got := sortedKeys(keys); strings.Join(got, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("%v: result keys %v", args, got)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
	}
	return res.Metrics
}

// sameNames compares printed metrics with BENCHMARK.json in both
// directions, units included.
func sameNames(t *testing.T, label string, got map[string]resultMetric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: BENCHMARK.json metric %s not printed", label, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s printed in %s, BENCHMARK.json says %s", label, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: printed metric %s is not in BENCHMARK.json", label, name)
		}
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	b := loadBenchmark(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for _, n := range names {
		if !slices.Contains(workloads, n) {
			t.Fatalf("BENCHMARK.json workload %s is not in the harness (%v)", n, workloads)
		}
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, w := range workloads {
		got := runBench(t, "--workload", w, "--seed", "7", "--seconds", "1", "--trace", "0")
		sameNames(t, w, got, e2e)
		for name, m := range got {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w, name, m.Value)
			}
		}
	}
	layers := map[string]string{}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	sameNames(t, "serve-mix traced", runBench(t, "--workload", "serve-mix", "--seed", "7", "--seconds", "1", "--trace", "1"), layers)
}

func TestBatchOracleRejectsCorruption(t *testing.T) {
	c, err := buildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	var cp *corpusProp
	for _, p := range c.props {
		if p.key == "arbiter16/p5" {
			cp = p
		}
	}
	rec := newBatchRecorder()
	rec.judge(cp, core.Result{Verdict: core.VerdictFalsified}, true)
	if len(rec.wrong) != 1 {
		t.Fatalf("a falsified verdict for a proved property was not rejected: %v", rec.wrong)
	}
	rec = newBatchRecorder()
	good := core.Result{Verdict: core.VerdictProved}
	good.Stats.Implications = 10
	rec.judge(cp, good, true)
	bad := good
	bad.Stats.Implications = 11
	rec.judge(cp, bad, true)
	if len(rec.wrong) != 1 {
		t.Fatalf("a drifted implication count was not rejected: %v", rec.wrong)
	}
	if !verdictOK(core.VerdictProved, core.VerdictProvedBounded) || verdictOK(core.VerdictProvedBounded, core.VerdictProved) {
		t.Fatal("verdictOK must accept strengthening and reject weakening")
	}
}

func TestServeOracleRejectsCorruption(t *testing.T) {
	ctx := context.Background()
	tf, err := newTraffic(3)
	if err != nil {
		t.Fatal(err)
	}
	req, err := newServeReq("edit", editSource(tf.churn, 4, 9), "churn", lanes([]int{4, 0, 7}))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := expect(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := core.EncodeJSONRecords(&good, recs); err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Replace(good.Bytes(), []byte(`"verdict": "proved"`), []byte(`"verdict": "falsified"`), 1)
	if bytes.Equal(corrupt, good.Bytes()) {
		t.Fatal("test record has no proved verdict to corrupt")
	}
	repeat := tf.pool[0]
	f := &fleet{firsts: map[string][]byte{repeat.key: []byte("[]\n")}}
	samples := []sample{
		{req: req, body: good.Bytes()},
		{req: req, body: corrupt},
		{req: repeat, body: []byte("[ ]\n")},
	}
	failed, wrong, err := judgeSamples(ctx, f, samples)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 || len(wrong) != 2 {
		t.Fatalf("want the corrupted edit and repeat rejected and the good one kept; failed=%d wrong=%v", failed, wrong)
	}
}
