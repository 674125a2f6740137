package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with DVS_LOAD_MAIN set, so tests can drive the real flag parsing and exit
// path.
func TestMain(m *testing.M) {
	if os.Getenv("DVS_LOAD_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadCounts checks that a request or client count below one ends
// in an error naming the flags and exit status 1 before any request is
// sent, never a panic or a silent exit.
func TestRejectsBadCounts(t *testing.T) {
	for _, args := range [][]string{{"-n", "-1"}, {"-n", "0"}, {"-c", "0"}, {"-c", "-4"}} {
		// An address nothing listens on: the command must stop before it
		// would dial.
		cmd := exec.Command(os.Args[0], append([]string{"-addr", "http://127.0.0.1:1"}, args...)...)
		cmd.Env = append(os.Environ(), "DVS_LOAD_MAIN=1")
		out, err := cmd.CombinedOutput()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != 1 || !strings.Contains(string(out), args[0]) || strings.Contains(string(out), "goroutine") {
			t.Errorf("dvs-load %v: exit %d, output %q; want exit 1 and a message naming %s", args, code, out, args[0])
		}
	}
}
