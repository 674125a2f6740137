package main

import (
	"bytes"
	"errors"
	"flag"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden outputs and dvs-sim's fixtures from the current code")

// TestMain runs the command itself when the test binary is re-executed
// with DVS_OPT_MAIN set, so tests can drive the real flag parsing, output
// and exit path.
func TestMain(m *testing.M) {
	if os.Getenv("DVS_OPT_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs dvs-opt with args and returns its stdout, stderr and exit
// code.
func runCommand(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DVS_OPT_MAIN=1")
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

// smallRun is the configuration every golden invocation runs under: a small
// workload scale, a serial solver (so node and LP counts are deterministic)
// and the in-memory artifact store.
var smallRun = []string{"-scale", "0.02", "-workers", "1"}

var (
	milpWall = regexp.MustCompile(`(?m)^(MILP: .*, )\S+( \([a-z ]+\))$`)
	lpWall   = regexp.MustCompile(`(?m)^(LP: .*, )\S+( in simplex)$`)
)

// maskWallClock blanks the only fields of dvs-opt's report that depend on
// wall-clock time: the solve duration on the MILP line and the time spent
// in the simplex.
func maskWallClock(out string) string {
	out = milpWall.ReplaceAllString(out, "${1}<wall>${2}")
	return lpWall.ReplaceAllString(out, "${1}<wall>${2}")
}

// checkFile compares got with the file at path, or rewrites the file under
// -update.
func checkFile(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the recorded output:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// runGolden runs dvs-opt under smallRun plus args, requires exit 0, and
// returns the wall-clock-masked stdout.
func runGolden(t *testing.T, args ...string) string {
	t.Helper()
	args = append(append([]string(nil), smallRun...), args...)
	stdout, stderr, code := runCommand(t, args...)
	if code != 0 {
		t.Fatalf("dvs-opt %v: exit %d\n%s", args, code, stderr)
	}
	return maskWallClock(stdout)
}

// TestGoldenSingle pins the whole single-program report: solver statistics,
// prediction, measurement, baseline savings, mode-set placement and the
// per-edge schedule.
func TestGoldenSingle(t *testing.T) {
	out := runGolden(t, "-bench", "gsm/encode", "-deadline", "2", "-cap", "1e-6", "-schedule", "-placement")
	checkFile(t, filepath.Join("testdata", "single.golden"), []byte(out))
}

// TestGoldenTaskGraph pins the task-graph report for a corpus graph with a
// core-count override, and checks that the spec -save-graph writes solves
// and executes to the same report through -graph-file.
func TestGoldenTaskGraph(t *testing.T) {
	out := runGolden(t, "-task-graph", "mpi-mix", "-cores", "3")
	checkFile(t, filepath.Join("testdata", "graph.golden"), []byte(out))

	spec := filepath.Join(t.TempDir(), "graph.json")
	saved := runGolden(t, "-task-graph", "mpi-mix", "-cores", "3", "-save-graph", spec)
	if want := out + "graph spec written to " + spec + "\n"; saved != want {
		t.Errorf("-save-graph changed the report:\n--- got\n%s\n--- want\n%s", saved, want)
	}
	fromFile := runGolden(t, "-graph-file", spec)
	checkFile(t, filepath.Join("testdata", "graph_file.golden"), []byte(fromFile))
}

// TestSavedFilesMatchSimFixtures checks that the files dvs-sim's golden test
// executes are the ones dvs-opt writes today: a schedule saved with -save,
// and task-graph specs saved with -save-graph at the default level count
// and capacitance and at 7 levels and 1 µF. For each spec it also checks
// that dvs-sim's recorded report of it (testdata/*.golden there) shows the
// static energy and makespan dvs-opt reported: dvs-sim solves the problem
// dvs-opt saved, not one at its own defaults.
func TestSavedFilesMatchSimFixtures(t *testing.T) {
	dir := t.TempDir()
	sched := filepath.Join(dir, "sched.json")
	runGolden(t, "-bench", "mpeg/decode", "-deadline", "3", "-save", sched)
	checkFile(t, filepath.Join("..", "dvs-sim", "testdata", "mpeg-decode.sched.json"), readFile(t, sched))

	for _, g := range []struct {
		args            []string
		fixture, golden string
	}{
		{[]string{"-task-graph", "mpi-mix", "-cores", "3"}, "mpi-mix.graph.json", "graph.golden"},
		{[]string{"-task-graph", "mpi-mix", "-levels", "7", "-cap", "1e-6"}, "mpi-mix-l7.graph.json", "graph_l7.golden"},
	} {
		spec := filepath.Join(dir, g.fixture)
		out := runGolden(t, append(g.args, "-save-graph", spec)...)
		checkFile(t, filepath.Join("..", "dvs-sim", "testdata", g.fixture), readFile(t, spec))
		opt := optStatic.FindStringSubmatch(out)
		sim := simStatic.FindStringSubmatch(string(readFile(t, filepath.Join("..", "dvs-sim", "testdata", g.golden))))
		if opt == nil || sim == nil || opt[1] != sim[1] || opt[2] != sim[2] {
			t.Errorf("%v: dvs-opt's static run %q, dvs-sim's report of the saved spec %q", g.args, opt, sim)
		}
	}
}

// The static-run lines of dvs-opt's and dvs-sim's task-graph reports:
// energy (µJ) and makespan (µs).
var (
	optStatic = regexp.MustCompile(`(?m)^static: +energy (\S+) µJ, makespan (\S+) µs`)
	simStatic = regexp.MustCompile(`(?m)^  static: +(\S+) µJ, makespan (\S+) µs`)
)

// readFile returns the contents of path.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGraphFileFlagsMustAgree checks that a spec file fixes the level count
// and capacitance: repeating them is fine, and an explicit -levels or -cap
// that disagrees with the file exits 1 before any solve.
func TestGraphFileFlagsMustAgree(t *testing.T) {
	spec := filepath.Join("..", "dvs-sim", "testdata", "mpi-mix-l7.graph.json")
	runGolden(t, "-graph-file", spec, "-levels", "7", "-cap", "1e-6")
	for _, args := range [][]string{{"-levels", "13"}, {"-levels", "3"}, {"-cap", "1e-5"}} {
		full := append(append(append([]string(nil), smallRun...), "-graph-file", spec), args...)
		stdout, stderr, code := runCommand(t, full...)
		if code != 1 || !strings.Contains(stderr, "disagrees") || strings.Contains(stdout, "MILP") {
			t.Errorf("dvs-opt %v: exit %d, stderr %q; want exit 1 before any solve", args, code, stderr)
		}
	}
}

// TestRejectsNonFiniteInputs checks that a NaN or infinite regulator
// capacitance or deadline, and a workload scale that is not a finite
// positive number, end in an error and exit status 1 before any solve: no
// schedule is printed, no goroutine trace, and no solve, graphsolve or
// validate artifact is left in the store.
func TestRejectsNonFiniteInputs(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-task-graph", "fork-join-2w", "-cap", "NaN"}, "capacitance"},
		{[]string{"-bench", "adpcm/encode", "-deadline-us", "NaN"}, "deadline"},
		{[]string{"-bench", "adpcm/encode", "-deadline-us", "Inf"}, "deadline"},
		{[]string{"-bench", "adpcm/encode", "-cap", "NaN"}, "capacitance"},
		{[]string{"-bench", "adpcm/encode", "-cap", "Inf"}, "capacitance"},
		{[]string{"-bench", "adpcm/encode", "-scale", "NaN"}, "-scale"},
		{[]string{"-bench", "adpcm/encode", "-scale", "Inf"}, "-scale"},
		{[]string{"-bench", "adpcm/encode", "-scale", "0"}, "-scale"},
		{[]string{"-task-graph", "fork-join-2w", "-scale", "-1"}, "-scale"},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		args := append(append([]string{"-cache-dir", dir}, smallRun...), tc.args...)
		stdout, stderr, code := runCommand(t, args...)
		if code != 1 || !strings.Contains(stderr, tc.want) || strings.Contains(stderr, "goroutine") {
			t.Errorf("dvs-opt %v: exit %d, stderr %q; want exit 1 and %q", tc.args, code, stderr, tc.want)
		}
		if strings.Contains(stdout, "optimal") {
			t.Errorf("dvs-opt %v printed a schedule:\n%s", tc.args, stdout)
		}
		for _, kind := range []string{"solve", "graphsolve", "validate"} {
			if n := countFiles(t, filepath.Join(dir, kind)); n > 0 {
				t.Errorf("dvs-opt %v left %d %s artifacts behind", tc.args, n, kind)
			}
		}
	}
}

// countFiles counts the regular files under root (0 when root is absent).
func countFiles(t *testing.T, root string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			n++
		}
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	return n
}
