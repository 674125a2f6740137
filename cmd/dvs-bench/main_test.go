package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with DVS_BENCH_MAIN set, so tests can drive the real flag parsing, output
// and exit path.
func TestMain(m *testing.M) {
	if os.Getenv("DVS_BENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs dvs-bench at scale 0.02 with args and returns its stdout,
// stderr and exit code.
func runCommand(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-scale", "0.02"}, args...)...)
	cmd.Env = append(os.Environ(), "DVS_BENCH_MAIN=1")
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

// TestRejectsBadSelection checks that an unknown experiment name, a surface
// grid below two points and a scale that is not a finite positive number
// each end in an error naming the culprit and exit status 1 before any
// experiment runs: no table and no goroutine trace.
func TestRejectsBadSelection(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "nosuch"}, `"nosuch"`},
		{[]string{"-exp", "fig2,tabel4"}, `"tabel4"`},
		{[]string{"-exp", "all,fig99"}, `"fig99"`},
		{[]string{"-exp", "fig5", "-grid", "-3"}, "-grid -3"},
		{[]string{"-exp", "fig5", "-grid", "0"}, "-grid 0"},
		{[]string{"-exp", "fig5", "-grid", "1"}, "-grid 1"},
		{[]string{"-exp", "fig2", "-scale", "NaN"}, "-scale NaN"},
		{[]string{"-exp", "fig2", "-scale", "-1"}, "-scale -1"},
	}
	for _, tc := range cases {
		stdout, stderr, code := runCommand(t, tc.args...)
		if code != 1 || !strings.Contains(stderr, tc.want) || strings.Contains(stderr, "goroutine") || stdout != "" {
			t.Errorf("dvs-bench %v: exit %d, stdout %q, stderr %q; want exit 1, %s named and no output",
				tc.args, code, stdout, stderr, tc.want)
		}
	}
}

// TestListIsTheSelectionCatalogue checks that -list prints the catalogue
// and that every name it prints is a valid -exp selection on its own.
func TestListIsTheSelectionCatalogue(t *testing.T) {
	stdout, stderr, code := runCommand(t, "-list")
	if code != 0 {
		t.Fatalf("dvs-bench -list: exit %d\n%s", code, stderr)
	}
	const want = `paper:      table1 table3 table4 table5 table6 table7
            fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
            fig14 fig15 fig17 fig18 fig19
extensions: placement runtime ablation-transition ablation-block
            ablation-heuristic ablation-pathfilter ablation-leakage
opt-in:     scaling (excluded from 'all'; several minutes)
`
	if stdout != want {
		t.Errorf("-list printed\n%s\nwant\n%s", stdout, want)
	}
	for _, row := range catalogue {
		for _, name := range row.names {
			if sel, err := selection(name); err != nil || len(sel) != 1 || !sel[name] {
				t.Errorf("selection(%q) = %v, %v; want exactly %q", name, sel, err, name)
			}
		}
	}
}

// TestAllInsideAList checks that "all" selects every experiment but the
// opt-in one wherever it stands in the list, and that naming the opt-in
// experiment beside it adds that one too.
func TestAllInsideAList(t *testing.T) {
	all, err := selection("all")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, row := range catalogue {
		n += len(row.names)
	}
	if len(all) != n-1 || all[optIn] {
		t.Fatalf("all selects %d experiments (opt-in %v), want %d without %q", len(all), all[optIn], n-1, optIn)
	}
	for _, list := range []string{"all,table4", "table4, all", "fig2,all,fig3"} {
		sel, err := selection(list)
		if err != nil || len(sel) != len(all) {
			t.Errorf("selection(%q) = %d experiments, %v; want the %d of all", list, len(sel), err, len(all))
		}
	}
	if sel, err := selection("all," + optIn); err != nil || len(sel) != n {
		t.Errorf("selection(all,%s) = %d experiments, %v; want all %d", optIn, len(sel), err, n)
	}
}
