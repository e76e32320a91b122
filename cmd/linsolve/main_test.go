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
// re-executes the test binary with LINSOLVE_RUN_MAIN=1: that is how
// runCommand checks the exit status of a whole command line.
func TestMain(m *testing.M) {
	if os.Getenv("LINSOLVE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs linsolve with args on the given system and returns
// its exit status, standard output and standard error.
func runCommand(t *testing.T, system string, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LINSOLVE_RUN_MAIN=1")
	cmd.Stdin = strings.NewReader(system)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		return exit.ExitCode(), out.String(), errOut.String()
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, out.String(), errOut.String()
}

// TestWidthOutOfRangeIsUsageError: the modulus 2^width needs a width
// from 1 to 64; any other is a usage mistake (exit status 2) whose
// one-line message names the width.
func TestWidthOutOfRangeIsUsageError(t *testing.T) {
	for _, width := range []string{"0", "65"} {
		want := "linsolve: -width " + width + " is outside 1..64\n"
		if code, out, errOut := runCommand(t, "1 0 = 0\n", "-width", width); code != 2 || out != "" || errOut != want {
			t.Errorf("linsolve -width %s: exit status %d, want 2, output:\n%s%swant on standard error:\n%s", width, code, out, errOut, want)
		}
	}
}

// TestSaturatedValuesPrintAsPowers: a solution count or generator
// order past 2^62, where Count and GenOrders saturate, prints as 2^k;
// 2^62 itself and smaller values print exactly.
func TestSaturatedValuesPrintAsPowers(t *testing.T) {
	for _, tc := range []struct{ width, system, want string }{
		{"64", "1 0 = 0\n", "solutions over Z/2^64: 2^64 total\nx0 = [0 0]\ngen 0 (order 2^64): [0 1]\n"},
		{"64", "2 0 = 0\n", "solutions over Z/2^64: 2^65 total\nx0 = [0 0]\n" +
			"gen 0 (order 2): [9223372036854775808 0]\ngen 1 (order 2^64): [0 1]\n"},
		{"62", "1 0 = 0\n", "solutions over Z/2^62: 4611686018427387904 total\nx0 = [0 0]\n" +
			"gen 0 (order 4611686018427387904): [0 1]\n"},
	} {
		if code, out, _ := runCommand(t, tc.system, "-width", tc.width); code != 0 || out != tc.want {
			t.Errorf("linsolve -width %s on %q: exit status %d, output:\n%swant:\n%s", tc.width, tc.system, code, out, tc.want)
		}
	}
}

// TestEnumerateListsFirstSolutionsOfBigSets: -enumerate N lists the
// first N solutions however many the set holds, here 2^21 and 2^64.
func TestEnumerateListsFirstSolutionsOfBigSets(t *testing.T) {
	for _, tc := range []struct{ width, n, want string }{
		{"21", "3", "solutions over Z/2^21: 2097152 total\nx0 = [0 0]\ngen 0 (order 2097152): [0 1]\n" +
			"  [0 0]\n  [0 1]\n  [0 2]\n"},
		{"64", "2", "solutions over Z/2^64: 2^64 total\nx0 = [0 0]\ngen 0 (order 2^64): [0 1]\n" +
			"  [0 0]\n  [0 1]\n"},
	} {
		if code, out, errOut := runCommand(t, "1 0 = 0\n", "-width", tc.width, "-enumerate", tc.n); code != 0 || out != tc.want {
			t.Errorf("linsolve -width %s -enumerate %s: exit status %d, output:\n%s%swant:\n%s", tc.width, tc.n, code, out, errOut, tc.want)
		}
	}
}
