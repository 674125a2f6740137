package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with DVS_CACHE_MAIN set, so tests can drive the real flag parsing and
// exit path.
func TestMain(m *testing.M) {
	if os.Getenv("DVS_CACHE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"1048576", 1 << 20, true},
		{"256KiB", 256 << 10, true},
		{"1.5GiB", 3 << 29, true},
		{"2GB", 2e9, true},
		{"512M", 512 << 20, true},
		{" 7 B ", 7, true},
		{"4EiB", 0, false}, // no such suffix
		{"", 0, false},
		{"-1", 0, false},
		{"NaN", 0, false},
		{"nan", 0, false},
		{"inf", 0, false},
		{"+Inf", 0, false},
		{"-Inf", 0, false},
		{"1e30", 0, false},
		{"9223372036854775808", 0, false}, // 2^63
		{"8388608TiB", 0, false},          // 2^63 via the suffix
		{"8388607TiB", 8388607 << 40, true},
	} {
		got, err := parseSize(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestRejectsBadBudget runs the command: a budget that is not a finite
// size below 2^63 bytes ends in an error and exit status 1, and the store
// is never compacted.
func TestRejectsBadBudget(t *testing.T) {
	dir := t.TempDir()
	for _, budget := range []string{"NaN", "inf", "1e30"} {
		cmd := exec.Command(os.Args[0], "-cache-dir", dir, "-budget", budget)
		cmd.Env = append(os.Environ(), "DVS_CACHE_MAIN=1")
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("-budget %s: err = %v, output %q; want exit 1", budget, err, out)
		}
		if ee.ExitCode() != 1 || !strings.Contains(string(out), budget) || strings.Contains(string(out), "compacted") {
			t.Errorf("-budget %s: exit %d, output %q", budget, ee.ExitCode(), out)
		}
	}
}
