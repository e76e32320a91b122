// Command perfbench is the repository's benchmark: it drives the
// assertion checker from outside, through its public packages, on three
// workloads and prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (BENCHMARK.json says why each batch workload exists):
//
//   - atpg-batch: closed loop, one client, corpus passes back to back
//     through Session.CheckAll with the default ATPG engine.
//   - portfolio-batch: the same loop and corpus through
//     Session.Portfolio, one property at a time.
//   - serve-mix: open loop against an in-process cluster.Router over two
//     in-process service.Server replicas on loopback HTTP. It is not in
//     BENCHMARK.json: on the shared 2-vCPU reference box its latency
//     medians moved by 30% between runs (queueing amplifies the
//     machine's speed changes), beyond any bound the benchmark may set.
//     Every traced run still drives it briefly, so the service, router
//     and load-generator layers are measured on both batch workloads.
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics, and the spans of the
// run are written to .bench_build/spans-<workload>-<seed>.json. Every
// run checks every answer against an oracle and exits 1 on a wrong one.
// The line before the result records the seed, commit, CPU model,
// nproc, GOMAXPROCS and Go version.
//
// Every workload prints the same end-to-end names:
//
//   - setup_s: median of three set-ups (compile, a warm-up pass that
//     builds every lazy Design cache; for serve-mix, the fleet up and
//     the repeat pool warm).
//   - ops_per_s: batches, properties per second (corpus size over the
//     median pass wall); serve-mix, max_rps_slo, the ladder rate at
//     which p99 latency crosses 250 ms, interpolated between rungs.
//   - op_gmean_ms, op_tail_ms: batches, the geometric mean and the p90
//     across the corpus of each property's median Engine.Check wall;
//     serve-mix, the geometric mean and p98 of request latency from due
//     time at the fixed base rate (p98 is the highest quantile with ten
//     samples beyond it in a 12 s run).
//   - peak_rss_mb: VmHWM of the process.
//
// Failed operations (unknown or error verdicts, non-200 answers,
// transport errors) are counted in the result's "failed" field.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// Metric names and units. BENCHMARK.json lists the same names; the
// self-test keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_gmean_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"compile.parse_ms", "ms"},
	{"compile.elab_ms", "ms"},
	{"compile.design_ms", "ms"},
	{"compile.fsm_ms", "ms"},
	{"compile.fsm_alloc_mb", "MB"},
	{"compile.atpg_prep_ms", "ms"},
	{"compile.cnf_template_ms", "ms"},
	{"compile.bdd_model_ms", "ms"},
	{"design.conehash_us", "us"},
	{"bv.op_ns", "ns"},
	{"bv.wide_op_ns", "ns"},
	{"atpg.propagate_us", "us"},
	{"atpg.ns_per_impl", "ns"},
	{"atpg.allocs_per_check", "count"},
	{"atpg.implications", "count"},
	{"atpg.decisions", "count"},
	{"atpg.backtracks", "count"},
	{"atpg.backjumps", "count"},
	{"atpg.frontier_checks", "count"},
	{"atpg.arith_calls", "count"},
	{"atpg.bit_skips", "count"},
	{"atpg.max_trail", "count"},
	{"fig1.bounded_ms", "ms"},
	{"fig1.induction_ms", "ms"},
	{"fig1.induction_share", "ratio"},
	{"sim.replay_us", "us"},
	{"batch.busy_share", "ratio"},
	{"batch.makespan_s", "s"},
	{"portfolio.member_ms.atpg", "ms"},
	{"portfolio.member_ms.bmc", "ms"},
	{"portfolio.member_ms.bdd", "ms"},
	{"portfolio.wins.atpg", "count"},
	{"portfolio.wins.bmc", "count"},
	{"portfolio.wins.bdd", "count"},
	{"portfolio.wasted_share", "ratio"},
	{"portfolio.cancel_ms", "ms"},
	{"bmc.propagations", "count"},
	{"bmc.conflicts", "count"},
	{"bmc.mem_units", "count"},
	{"bdd.peak_nodes", "count"},
	{"bdd.iters", "count"},
	{"bdd.peak_image_nodes", "count"},
	{"service.handler_p50_ms.repeat", "ms"},
	{"service.handler_p50_ms.edit", "ms"},
	{"service.handler_p50_ms.cold", "ms"},
	{"service.queued_max", "count"},
	{"service.shed", "count"},
	{"service.design_cache_hit_ratio", "ratio"},
	{"service.verdict_cache_hit_ratio", "ratio"},
	{"router.overhead_p50_ms", "ms"},
	{"router.subreq_per_req", "count"},
	{"router.passthrough_share", "ratio"},
	{"router.retries", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

var workloads = []string{"atpg-batch", "portfolio-batch", "serve-mix"}

type metricDef struct{ name, unit string }

// metrics collects measured values by name.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	wrong             []string
	m                 metrics
}

// merge adds another part of a run into o.
func (o *outcome) merge(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.wrong = append(o.wrong, p.wrong...)
	for k, v := range p.m {
		o.m[k] = v
	}
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	out, err := runWorkload(context.Background(), *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res, err := buildResult(out, defs)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	env, _ := json.Marshal(environment(*workload, *seed))
	fmt.Fprintf(stdout, "%s\n", env)
	for _, w := range out.wrong {
		fmt.Fprintln(stderr, "perfbench: wrong answer:", w)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// buildResult checks that exactly the expected metrics were measured
// and renders the result line.
func buildResult(out outcome, defs []metricDef) (result, error) {
	res := result{Correct: len(out.wrong) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]resultMetric{}}
	if out.attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := out.m[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = resultMetric{Value: v, Unit: d.unit}
	}
	if len(res.Metrics) != len(out.m) {
		for _, k := range sortedKeys(out.m) {
			if _, ok := res.Metrics[k]; !ok {
				return res, fmt.Errorf("metric %s is not declared", k)
			}
		}
	}
	return res, nil
}

// runWorkload dispatches one run. Untraced runs measure the end-to-end
// metrics; traced runs measure every layer, so each workload's traced
// run also drives short versions of the layers its own loop skips.
func runWorkload(ctx context.Context, workload string, seed int64, dur time.Duration, traced bool) (outcome, error) {
	var out outcome
	var err error
	switch {
	case !slices.Contains(workloads, workload):
		return out, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	case !traced && workload == "serve-mix":
		out, err = serveEndToEnd(ctx, seed, dur)
	case !traced:
		out, err = batchEndToEnd(ctx, workload == "portfolio-batch", seed, dur)
	default:
		out, err = tracedRun(ctx, workload, seed, dur)
	}
	if err != nil {
		return out, err
	}
	if !traced {
		out.m.set("peak_rss_mb", peakRSSMB())
	}
	return out, nil
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// batchEndToEnd is the untraced batch run.
func batchEndToEnd(ctx context.Context, portfolio bool, seed int64, dur time.Duration) (outcome, error) {
	out := outcome{m: metrics{}}
	var setups []float64
	var b *batchBench
	for i := 0; i < setupRepeats; i++ {
		bb, warm, d, err := setupBatch(ctx, portfolio, seed)
		if err != nil {
			return out, err
		}
		b = bb
		setups = append(setups, d.Seconds())
		out.merge(warm.outcome())
		runtime.GC()
	}
	rec := newBatchRecorder()
	if err := b.measure(ctx, rec, nil, dur, minBatchSamples); err != nil {
		return out, err
	}
	out.merge(rec.outcome())
	out.m.set("setup_s", median(setups))
	out.m.set("ops_per_s", float64(len(b.c.props))/rec.medianPass().Seconds())
	gmean, p90 := rec.checkStats()
	out.m.set("op_gmean_ms", gmean)
	out.m.set("op_tail_ms", p90)
	return out, nil
}

// minBatchSamples is the least number of timed checks per run.
const minBatchSamples = 100

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// environment describes where a run happened; it is printed on the
// line before the result.
func environment(workload string, seed int64) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"commit":     gitCommit(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the checkout's .git directory, if there is
// one; a plain source tree reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
