package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/bmc"
	"repro/internal/core"
	"repro/internal/property"
)

// TestMain runs the command itself, instead of the tests, when a test
// re-executes the test binary with ASSERTCHECK_RUN_MAIN=1: that is how
// runCommand checks the exit status of a whole command line.
func TestMain(m *testing.M) {
	if os.Getenv("ASSERTCHECK_RUN_MAIN") == "1" {
		main()
		os.Exit(exitOK)
	}
	os.Exit(m.Run())
}

// runCommand runs assertcheck with args and returns its exit status.
func runCommand(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ASSERTCHECK_RUN_MAIN=1")
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		return exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return exitOK
}

// smokeDesign is the serve-smoke design, whose quiet_ok invariant holds.
const smokeDesign = "../../testdata/serve_smoke.v"

// checkBMC runs BMC on one invariant of src to depth 4, as
// `assertcheck -engine bmc -depth 4` does, and returns what
// printResult writes for it.
func checkBMC(t *testing.T, src, top, invariant string) (core.Result, string) {
	t.Helper()
	d, err := core.CompileVerilog(src, top)
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.NewSession(core.Options{MaxDepth: 4, UseInduction: true, DisableLocalFSM: true})
	if err != nil {
		t.Fatal(err)
	}
	props, err := property.FromNames(d.Netlist(), []string{invariant}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := c.BMCEngine(bmc.Options{}).Check(context.Background(), core.Problem{NL: d.Netlist(), Prop: props[0], MaxDepth: 4})
	var out bytes.Buffer
	printResult(&out, d.Netlist(), res)
	return res, out.String()
}

// TestPrintResultShowsValidatedTrace: a counterexample that replays on
// the simulator is printed cycle by cycle under its verdict.
func TestPrintResultShowsValidatedTrace(t *testing.T) {
	src := `module m(input clk, input a, output ok);
  reg q;
  initial q = 1'b0;
  always @(posedge clk) q <= a;
  assign ok = (q == 1'b0);
endmodule`
	res, out := checkBMC(t, src, "m", "ok")
	if res.Verdict != core.VerdictFalsified || !res.Validated {
		t.Fatalf("verdict %v, validated %v; want a validated falsification", res.Verdict, res.Validated)
	}
	if !strings.Contains(out, "cycle 0:") || strings.Contains(out, "failed replay") {
		t.Errorf("a validated counterexample must print its trace:\n%s", out)
	}
}

// TestPrintResultWithholdsUnvalidatedModel: a model that depends on an
// x source fails replay, so BMC answers unknown. Its cycles must not be
// printed as if they were a counterexample; one line says the model
// failed replay.
func TestPrintResultWithholdsUnvalidatedModel(t *testing.T) {
	src := `module xq(input clk, output ok);
  reg q;
  initial q = 1'b0;
  always @(posedge clk) q <= 1'bx;
  assign ok = (q == 1'b0);
endmodule`
	res, out := checkBMC(t, src, "xq", "ok")
	if res.Verdict != core.VerdictUnknown || res.Trace == nil {
		t.Fatalf("verdict %v with trace %v; want unknown carrying the unreplayed model", res.Verdict, res.Trace != nil)
	}
	if strings.Contains(out, "cycle 0:") {
		t.Errorf("an unvalidated model was printed as a trace:\n%s", out)
	}
	if n := strings.Count(out, "failed replay"); n != 1 {
		t.Errorf("want one line saying the model failed replay, got %d:\n%s", n, out)
	}
}

// TestNegativeDepthIsUsageError: a negative -depth is a usage mistake
// (exit status 2), as assertd answers 400 for it; -depth 0 selects the
// default.
func TestNegativeDepthIsUsageError(t *testing.T) {
	var out bytes.Buffer
	if code := checkUsage(&out, 1, "smoke", -2, 1, 0); code != exitUsage {
		t.Errorf("-depth -2: exit status %d, want %d", code, exitUsage)
	}
	if !strings.Contains(out.String(), "depth -2 is negative") {
		t.Errorf("-depth -2: the message does not name the depth:\n%s", out.String())
	}
	for _, depth := range []int{0, 16} {
		if code := checkUsage(io.Discard, 1, "smoke", depth, 1, 0); code != exitOK {
			t.Errorf("-depth %d: exit status %d, want %d", depth, code, exitOK)
		}
	}
	if code := checkUsage(io.Discard, 1, "", 16, 1, 0); code != exitUsage {
		t.Errorf("no -top: exit status %d, want %d", code, exitUsage)
	}
}

// TestNegativeJobsAndTimeoutAreUsageErrors: a negative -jobs or
// -timeout is a usage mistake (exit status 2), as assertd answers 400
// for each; 0 keeps its meaning for both.
func TestNegativeJobsAndTimeoutAreUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if code := checkUsage(&out, 1, "smoke", 16, -3, 0); code != exitUsage || !strings.Contains(out.String(), "jobs -3 is negative") {
		t.Errorf("-jobs -3: exit status %d, want %d, with a message naming the jobs:\n%s", code, exitUsage, out.String())
	}
	out.Reset()
	if code := checkUsage(&out, 1, "smoke", 16, 1, -time.Second); code != exitUsage || !strings.Contains(out.String(), "timeout -1s is negative") {
		t.Errorf("-timeout -1s: exit status %d, want %d, with a message naming the timeout:\n%s", code, exitUsage, out.String())
	}
	if code := checkUsage(io.Discard, 1, "smoke", 16, 0, 0); code != exitOK {
		t.Errorf("-jobs 0 -timeout 0: exit status %d, want %d", code, exitOK)
	}
	for _, args := range [][]string{
		{"-top", "smoke", "-invariant", "quiet_ok", "-timeout", "-1s", smokeDesign},
		{"-top", "smoke", "-invariant", "quiet_ok", "-jobs", "-3", "-json", smokeDesign},
	} {
		if code := runCommand(t, args...); code != exitUsage {
			t.Errorf("assertcheck %s: exit status %d, want %d", strings.Join(args, " "), code, exitUsage)
		}
	}
}

// TestUsageFormRuns: the command line the usage line prints, flags
// first and the design file last, runs a check. The design file first
// is a usage mistake, since flag parsing stops at it.
func TestUsageFormRuns(t *testing.T) {
	var usage bytes.Buffer
	checkUsage(&usage, 0, "", 16, 1, 0)
	_, form, ok := strings.Cut(strings.TrimSpace(usage.String()), "-tables | ")
	if !ok {
		t.Fatalf("usage line has no run form after -tables:\n%s", usage.String())
	}
	form = strings.Replace(form, "[-stats | -invariant sigs | -witness sigs]", "-invariant quiet_ok", 1)
	var args []string
	for _, f := range strings.Fields(form) {
		switch f {
		case "mod":
			f = "smoke"
		case "design.v":
			f = smokeDesign
		}
		args = append(args, f)
	}
	if code := runCommand(t, args...); code != exitOK {
		t.Errorf("assertcheck %s (the usage line's form): exit status %d, want %d", strings.Join(args, " "), code, exitOK)
	}
	fileFirst := []string{smokeDesign, "-top", "smoke", "-invariant", "quiet_ok"}
	if code := runCommand(t, fileFirst...); code != exitUsage {
		t.Errorf("assertcheck %s: exit status %d, want %d", strings.Join(fileFirst, " "), code, exitUsage)
	}
}

// TestPrintResultOmitsUndefinedRatios: a check that made allocations
// but no decisions (serve_smoke's quiet_ok is proved by implication
// alone) prints its allocated bytes and no allocs/decision ratio; the
// allocs/implication ratio is printed only over a non-zero count too.
func TestPrintResultOmitsUndefinedRatios(t *testing.T) {
	res := core.Result{Property: "quiet_ok", Verdict: core.VerdictProved, Engine: core.EngineATPG,
		AllocBytes: 9480, AllocObjects: 40}
	res.Stats.Implications = 20
	res.AllocsPerImpl = 2
	var out bytes.Buffer
	printResult(&out, nil, res)
	if got := out.String(); !strings.Contains(got, "0.01 MB allocated, 2.00 allocs/implication)") ||
		strings.Contains(got, "allocs/decision") {
		t.Errorf("with implications and no decisions, want the MB figure and allocs/implication only:\n%s", got)
	}
	res.Stats.Implications, res.AllocsPerImpl = 0, 0
	out.Reset()
	printResult(&out, nil, res)
	if got := out.String(); !strings.Contains(got, "0.01 MB allocated)") {
		t.Errorf("with no implications and no decisions, want the MB figure alone:\n%s", got)
	}
}
