package pipeline

import (
	"os"
	"testing"
)

// corruptBin is a frame with a valid header and a garbage payload: it passes
// the store's format sniff and fails only in the stage decoder.
var corruptBin = append([]byte{'C', 'T', 'D', 'B', BinVersion, BinTagProfile}, 0xFF, 0xFF, 0xFF)

// TestLoadArtifactDeletesCorruptBinary is the regression test for the warm
// read path: a damaged binary artifact must be deleted before the recompute
// runs, so a key whose recompute fails or cannot be stored does not pay a
// doomed decode on every warm read — through both the mapped and the
// copying read paths. The recompute then writes a good artifact.
func TestLoadArtifactDeletesCorruptBinary(t *testing.T) {
	for _, mapped := range []bool{true, false} {
		name := "copying"
		if mapped {
			name = "mapped"
		}
		t.Run(name, func(t *testing.T) {
			store, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			store.SetMappedReads(mapped)
			if mapped && !store.MappedReads() {
				t.Skip("no mmap on this platform")
			}
			st := binIntStage(StageSolve)
			key := testKey("corrupt-bin", name)
			if err := store.Put(StageSolve, key, corruptBin, FormatBinary); err != nil {
				t.Fatal(err)
			}
			binPath := store.Path(StageSolve, key, FormatBinary)

			r := NewRunner(store)
			v, err := Run(r, st, key, func() (int, error) {
				if _, err := os.Stat(binPath); !os.IsNotExist(err) {
					t.Error("corrupt binary artifact still on disk when the recompute ran")
				}
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Fatalf("v=%d err=%v, want the recomputed value", v, err)
			}
			if s := r.Manifest().Stats()[StageSolve]; s.Misses != 1 || s.DiskHits != 0 {
				t.Errorf("stats = %+v, want one miss", s)
			}
			data, err := os.ReadFile(binPath)
			if err != nil {
				t.Fatalf("recompute did not rewrite the artifact: %v", err)
			}
			if got, err := st.DecodeBinary(data); err != nil || got != 7 {
				t.Errorf("rewritten artifact decodes to %d, %v", got, err)
			}
		})
	}
}

// TestLoadArtifactCorruptBinaryNoTwinRecomputes: the damaged binary is a
// miss; the recompute overwrites it with one a fresh runner disk-hits.
func TestLoadArtifactCorruptBinaryNoTwinRecomputes(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := binIntStage(StageSolve)
	key := testKey("corrupt-bin-solo")
	if err := store.Put(StageSolve, key, corruptBin, FormatBinary); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store)
	v, err := Run(r, st, key, func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	// The rewrite is good: a fresh runner over the same store disk-hits.
	r2 := NewRunner(store)
	v, err = Run(r2, st, key, func() (int, error) { return -1, nil })
	if err != nil || v != 9 {
		t.Fatalf("warm v=%d err=%v", v, err)
	}
	if !r2.Manifest().AllHits() {
		t.Errorf("rewritten artifact missed: %+v", r2.Manifest().Records())
	}
}

// TestRunnerMappedDiskWarm: the end-to-end mapped warm path — a fresh runner
// with mapped reads decodes the artifact written by a cold run, zero-copy,
// to the same value.
func TestRunnerMappedDiskWarm(t *testing.T) {
	dir := t.TempDir()
	st := binIntStage(StageSolve)
	key := testKey("mapped-warm")

	cold, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(NewRunner(cold), st, key, func() (int, error) { return 31, nil }); err != nil {
		t.Fatal(err)
	}

	warm, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.MappedReads() && mmapSupported {
		t.Fatal("mapped reads off by default")
	}
	r := NewRunner(warm)
	v, err := Run(r, st, key, func() (int, error) { return -1, nil })
	if err != nil || v != 31 {
		t.Fatalf("mapped warm v=%d err=%v", v, err)
	}
	if !r.Manifest().AllHits() {
		t.Errorf("mapped warm read missed: %+v", r.Manifest().Records())
	}
}
