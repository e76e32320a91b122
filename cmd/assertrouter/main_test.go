package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the command itself, instead of the tests, when a test
// re-executes the test binary with ASSERTROUTER_RUN_MAIN=1: that is how
// runCommand checks the exit status of a whole command line.
func TestMain(m *testing.M) {
	if os.Getenv("ASSERTROUTER_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs assertrouter with args and returns its exit status
// and standard error. A router that starts is killed after 10 s.
func runCommand(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ASSERTROUTER_RUN_MAIN=1")
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		return exit.ExitCode(), errOut.String()
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, errOut.String()
}

// TestNegativeFlagsAreUsageErrors: a negative -scatter-min,
// -health-interval or -drain-timeout is a usage mistake (exit status 2)
// whose message names the flag; the router never starts. Zero keeps its
// meaning for each: with zeros the run gets as far as the listener,
// which an unusable address fails with exit status 1.
func TestNegativeFlagsAreUsageErrors(t *testing.T) {
	const replicas = "http://127.0.0.1:1"
	for _, arg := range []string{"-scatter-min=-1", "-health-interval=-1s", "-drain-timeout=-1s"} {
		name, value, _ := strings.Cut(arg[1:], "=")
		want := fmt.Sprintf("assertrouter: -%s %s is negative\n", name, value)
		if code, errOut := runCommand(t, "-addr", "127.0.0.1:0", "-replicas", replicas, arg); code != 2 || errOut != want {
			t.Errorf("assertrouter %s: exit status %d, want 2, standard error:\n%swant:\n%s", arg, code, errOut, want)
		}
	}
	code, errOut := runCommand(t, "-addr", "127.0.0.1:-1", "-replicas", replicas,
		"-scatter-min=0", "-health-interval=0", "-drain-timeout=0")
	if code != 1 || !strings.Contains(errOut, "invalid port") {
		t.Errorf("assertrouter with zero flags on an unusable address: exit status %d, want 1, standard error:\n%s", code, errOut)
	}
}
