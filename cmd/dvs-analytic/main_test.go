package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with DVS_ANALYTIC_MAIN set, so tests can drive the real flag parsing and
// exit path.
func TestMain(m *testing.M) {
	if os.Getenv("DVS_ANALYTIC_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs dvs-analytic with args and returns its combined output
// and exit code.
func runCommand(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DVS_ANALYTIC_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestRejectsBadInput checks that non-finite parameters and voltage ranges
// the model cannot search end in an error message and exit status 1, never
// a panic or a report.
func TestRejectsBadInput(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-deadline", "NaN"}, "non-finite parameter"},
		{[]string{"-ncache", "+Inf"}, "non-finite parameter"},
		{[]string{"-tinvariant", "-Inf"}, "non-finite parameter"},
		{[]string{"-vhi", "1e7"}, "exceeds"},
		{[]string{"-vlo", "2", "-vhi", "1"}, "empty voltage range"},
		{[]string{"-vlo", "NaN"}, "non-finite voltage range"},
	}
	for _, tc := range cases {
		out, code := runCommand(t, tc.args...)
		if code != 1 || !strings.Contains(out, tc.want) || strings.Contains(out, "goroutine") {
			t.Errorf("dvs-analytic %v: exit %d, output %q; want exit 1 and %q", tc.args, code, out, tc.want)
		}
	}
}

// TestDefaultReport checks that the default parameter set still renders.
func TestDefaultReport(t *testing.T) {
	out, code := runCommand(t)
	if code != 0 || !strings.Contains(out, "energy-saving ratio") {
		t.Errorf("exit %d, output %q", code, out)
	}
}
