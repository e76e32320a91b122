package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/bmc"
	"repro/internal/core"
	"repro/internal/property"
)

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
	if code := checkUsage(&out, 1, "smoke", -2); code != exitUsage {
		t.Errorf("-depth -2: exit status %d, want %d", code, exitUsage)
	}
	if !strings.Contains(out.String(), "depth -2 is negative") {
		t.Errorf("-depth -2: the message does not name the depth:\n%s", out.String())
	}
	for _, depth := range []int{0, 16} {
		if code := checkUsage(io.Discard, 1, "smoke", depth); code != exitOK {
			t.Errorf("-depth %d: exit status %d, want %d", depth, code, exitOK)
		}
	}
	if code := checkUsage(io.Discard, 1, "", 16); code != exitUsage {
		t.Errorf("no -top: exit status %d, want %d", code, exitUsage)
	}
}
