// Package examples holds the runnable example programs, one per directory.
// This test builds each program that takes -scale and checks that it
// refuses a scale the workloads cannot be built at, as the dvs-* tools do.
package examples

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadScale checks that every example with a -scale flag exits 1
// with the tools' message, and prints nothing else, when the scale is not a
// finite number above 0.
func TestRejectsBadScale(t *testing.T) {
	gobin, err := exec.LookPath("go") // go test puts its own go first on PATH
	if err != nil {
		t.Skip("no go command to build the examples with")
	}
	dir := t.TempDir()
	for _, name := range []string{"deadline-sweep", "mpeg-multiinput", "runtime-governor", "task-graph"} {
		bin := filepath.Join(dir, name)
		if out, err := exec.Command(gobin, "build", "-o", bin, "./"+name).CombinedOutput(); err != nil {
			t.Fatalf("go build ./%s: %v\n%s", name, err, out)
		}
		for _, scale := range []string{"NaN", "Inf", "0", "-1"} {
			cmd := exec.Command(bin, "-scale", scale)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != 1 || !strings.Contains(stderr.String(), ": want a finite number above 0") || stdout.Len() != 0 {
				t.Errorf("%s -scale %s: exit %d, stdout %q, stderr %q; want exit 1, the -scale message and no output",
					name, scale, code, stdout.String(), stderr.String())
			}
		}
	}
}
