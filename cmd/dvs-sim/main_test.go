package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"ctdvs/internal/exp"
	"ctdvs/internal/schedfile"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestMain runs the command itself when the test binary is re-executed
// with DVS_SIM_MAIN set, so tests can drive the real flag parsing, output
// and exit path.
func TestMain(m *testing.M) {
	if os.Getenv("DVS_SIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The fixtures under testdata are the files dvs-opt writes at scale 0.02
// with -workers 1 (dvs-opt's TestSavedFilesMatchSimFixtures keeps them
// current):
//
//	dvs-opt -bench mpeg/decode -deadline 3 -save mpeg-decode.sched.json
//	dvs-opt -task-graph mpi-mix -cores 3 -save-graph mpi-mix.graph.json
var (
	schedFixture = filepath.Join("testdata", "mpeg-decode.sched.json")
	graphFixture = filepath.Join("testdata", "mpi-mix.graph.json")
)

// smallRun is the configuration every invocation runs under: the fixtures'
// workload scale, a serial solver and the in-memory artifact store.
var smallRun = []string{"-scale", "0.02", "-workers", "1"}

// runCommand runs dvs-sim under smallRun plus args and returns its stdout,
// stderr and exit code.
func runCommand(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append(append([]string(nil), smallRun...), args...)...)
	cmd.Env = append(os.Environ(), "DVS_SIM_MAIN=1")
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

// checkGolden compares got with testdata/name, or rewrites it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the recorded output:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// TestGoldenSchedule pins the report of a saved schedule executed on an
// input other than the one it was optimized for.
func TestGoldenSchedule(t *testing.T) {
	stdout, stderr, code := runCommand(t, "-schedule", schedFixture, "-input", "1")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	checkGolden(t, "schedule.golden", stdout)
}

// TestGoldenGraph pins the report of a saved task-graph spec: the static
// timeline and the governed run.
func TestGoldenGraph(t *testing.T) {
	stdout, stderr, code := runCommand(t, "-graph", graphFixture)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	checkGolden(t, "graph.golden", stdout)
}

// TestDeadlineToleranceMatchesMeasure checks that -deadline-us judges a
// single-program run with the tolerance dvs-opt's "meets deadline" uses: a
// deadline a hair (5e-10 relative) below the measured time is met, and one
// clearly below it is missed with exit status 2.
func TestDeadlineToleranceMatchesMeasure(t *testing.T) {
	f, err := os.Open(schedFixture)
	if err != nil {
		t.Fatal(err)
	}
	program, sched, err := schedfile.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	cfg := exp.NewConfig(0.02)
	pr, err := cfg.Profile(program, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	run, err := cfg.RunSchedule(pr, sched)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		deadline float64
		code     int
	}{
		{run.TimeUS / (1 + 5e-10), 0},
		{run.TimeUS * 0.99, 2},
	} {
		dl := strconv.FormatFloat(tc.deadline, 'g', -1, 64)
		_, stderr, code := runCommand(t, "-schedule", schedFixture, "-input", "1", "-deadline-us", dl)
		if code != tc.code {
			t.Errorf("-deadline-us %s against measured %v µs: exit %d, want %d\n%s",
				dl, run.TimeUS, code, tc.code, stderr)
		}
	}
}
