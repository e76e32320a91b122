package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself, instead of the tests, when a test
// re-executes the test binary with RTLSIM_RUN_MAIN=1: that is how
// runCommand checks the exit status of a whole command line.
func TestMain(m *testing.M) {
	if os.Getenv("RTLSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs rtlsim with args on the given stimulus and returns
// its exit status and standard output.
func runCommand(t *testing.T, stimulus string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RTLSIM_RUN_MAIN=1")
	cmd.Stdin = strings.NewReader(stimulus)
	var out bytes.Buffer
	cmd.Stdout = &out
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		return exit.ExitCode(), out.String()
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, out.String()
}

// smokeDesign is the serve-smoke design, a token ring whose token
// starts at 8'd1.
const smokeDesign = "../../testdata/serve_smoke.v"

// TestUsageFormRuns: the command line the usage line prints, flags
// first and the design file last, simulates the design. The design
// file first is a usage mistake, since flag parsing stops at it.
func TestUsageFormRuns(t *testing.T) {
	form, _, ok := strings.Cut(strings.TrimPrefix(usage, "usage: rtlsim "), " <")
	if !ok {
		t.Fatalf("usage line has no stimulus redirection: %s", usage)
	}
	var args []string
	for _, f := range strings.Fields(strings.NewReplacer("[", "", "]", "").Replace(form)) {
		switch f {
		case "mod":
			f = "smoke"
		case "a,b":
			f = "token,g5"
		case "N":
			f = "1"
		case "design.v":
			f = smokeDesign
		}
		args = append(args, f)
	}
	const stimulus = "req=8'hff hold=8'h00\n"
	code, out := runCommand(t, stimulus, args...)
	if code != 0 || !strings.Contains(out, "cycle 0: token=8'b00000001 g5=1'b0") {
		t.Errorf("rtlsim %s (the usage line's form): exit status %d, want 0, output:\n%s", strings.Join(args, " "), code, out)
	}
	fileFirst := []string{smokeDesign, "-top", "smoke", "-cycles", "1"}
	if code, _ := runCommand(t, stimulus, fileFirst...); code != 2 {
		t.Errorf("rtlsim %s: exit status %d, want 2", strings.Join(fileFirst, " "), code)
	}
}

// TestDefaultWatchListSorted: without -watch, every output is printed,
// in name order, so the columns are the same on every run.
func TestDefaultWatchListSorted(t *testing.T) {
	const want = "cycle 0: g5=1'b0 grant=8'b00000000 quiet_ok=1'b1 tok_onehot=1'b1 token=8'b00000001\n"
	if code, out := runCommand(t, "req=8'h00\n", "-top", "smoke", "-cycles", "1", smokeDesign); code != 0 || out != want {
		t.Errorf("rtlsim -top smoke -cycles 1: exit status %d, want 0, output:\n%swant:\n%s", code, out, want)
	}
}
