package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestMain runs the command itself when the test binary is re-executed
// with DVS_PROF_MAIN set, so tests can drive the real flag parsing, output
// and exit path.
func TestMain(m *testing.M) {
	if os.Getenv("DVS_PROF_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs dvs-prof with args and returns its stdout, stderr and
// exit code.
func runCommand(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DVS_PROF_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return stdout.String(), stderr.String(), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), 0
}

// TestGoldenProfile pins the whole report for gsm/encode at 7 levels:
// parameters, fixed-mode runs, deadlines, graph size, the three hottest
// Ball-Larus paths and the per-block profile. Nothing in it depends on
// wall-clock time.
func TestGoldenProfile(t *testing.T) {
	stdout, stderr, code := runCommand(t, "-scale", "0.02", "-bench", "gsm/encode", "-levels", "7", "-blocks", "-hot-paths", "3")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	path := filepath.Join("testdata", "gsm-encode-l7.golden")
	if *update {
		if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if stdout != string(want) {
		t.Errorf("%s differs from the recorded output:\n--- got\n%s\n--- want\n%s", path, stdout, want)
	}
}

// TestRejectsBadScale checks that a -scale that is not a finite positive
// number ends in an error and exit status 1 before anything is profiled.
func TestRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"NaN", "Inf", "0", "-2"} {
		stdout, stderr, code := runCommand(t, "-scale", scale, "-bench", "gsm/encode")
		if code != 1 || !strings.Contains(stderr, "-scale") || strings.Contains(stderr, "goroutine") || stdout != "" {
			t.Errorf("dvs-prof -scale %s: exit %d, stdout %q, stderr %q; want exit 1 and no report", scale, code, stdout, stderr)
		}
	}
}
