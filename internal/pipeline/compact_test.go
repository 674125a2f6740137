package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// putSized writes an artifact of n filler bytes in format f.
func putSized(t *testing.T, s *Store, kind Kind, key Key, n int, f Format) {
	t.Helper()
	if err := s.Put(kind, key, bytes.Repeat([]byte{0xCB}, n), f); err != nil {
		t.Fatal(err)
	}
}

func TestDiskStats(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putSized(t, s, StageProfile, testKey("ds-1"), 100, FormatBinary)
	putSized(t, s, StageProfile, testKey("ds-1", "json"), 50, FormatJSON)
	putSized(t, s, StageSolve, testKey("ds-2"), 30, FormatBinary)
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.TotalArtifacts != 3 || ds.TotalBytes != 180 {
		t.Fatalf("totals = %d artifacts, %d bytes", ds.TotalArtifacts, ds.TotalBytes)
	}
	if ks := ds.Kinds[StageProfile]; ks.Artifacts != 2 || ks.Bytes != 150 {
		t.Fatalf("profile kind = %+v", ks)
	}
	if ks := ds.Kinds[StageSolve]; ks.Artifacts != 1 || ks.Bytes != 30 {
		t.Fatalf("solve kind = %+v", ks)
	}
}

// TestCompactUnderBudgetIsNoop: a store already within budget loses nothing.
func TestCompactUnderBudgetIsNoop(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	putSized(t, s, StageProfile, testKey("fit"), 100, FormatBinary)
	putSized(t, s, StageValidate, testKey("fit"), 60, FormatJSON)
	const total = 160
	st, err := s.Compact(total + 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.EvictedArtifacts != 0 || st.BytesAfter != total {
		t.Fatalf("stats = %+v", st)
	}
	// Budget 0 means "no budget": report/cleanup only, never evict.
	if st, err := s.Compact(0); err != nil || st.EvictedArtifacts != 0 {
		t.Fatalf("budget 0 evicted: %+v err=%v", st, err)
	}
}

// TestCompactLRUOrder: eviction is least-recently-used first, in file mtime
// order.
func TestCompactLRUOrder(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old, mid, fresh := testKey("lru-old"), testKey("lru-mid"), testKey("lru-new")
	for _, k := range []Key{old, mid, fresh} {
		if err := s.Put(StageProfile, k, make([]byte, 100), FormatBinary); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Now()
	for i, k := range []Key{old, mid, fresh} {
		mt := now.Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(s.Path(StageProfile, k, FormatBinary), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Compact(150)
	if err != nil {
		t.Fatal(err)
	}
	if st.EvictedArtifacts != 2 {
		t.Fatalf("stats = %+v, want 2 evictions", st)
	}
	if _, err := os.Stat(s.Path(StageProfile, fresh, FormatBinary)); err != nil {
		t.Error("most recent artifact evicted")
	}
	for _, k := range []Key{old, mid} {
		if _, err := os.Stat(s.Path(StageProfile, k, FormatBinary)); !os.IsNotExist(err) {
			t.Errorf("stale artifact %s survived", k)
		}
	}
}

// TestCompactLRUAcrossStores: a disk hit served through one store orders
// eviction for a second store over the same directory, with no Close in
// between — the access lives in the artifact's mtime, not in either store's
// memory. The served artifact is the older file, so mtimes as written would
// evict it first.
func TestCompactLRUAcrossStores(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := binIntStage(StageProfile)
	hot, cold := testKey("lru-hot"), testKey("lru-cold")
	data, err := st.EncodeBinary(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []Key{hot, cold} {
		if err := s.Put(StageProfile, k, data, FormatBinary); err != nil {
			t.Fatal(err)
		}
		mt := time.Now().Add(time.Duration(i-2) * 24 * time.Hour)
		if err := os.Chtimes(s.Path(StageProfile, k, FormatBinary), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	r := NewRunner(s)
	if _, err := Run(r, st, hot, func() (int, error) { return 0, errors.New("recompute of a stored artifact") }); err != nil {
		t.Fatal(err)
	}
	if s := r.Manifest().Stats()[StageProfile]; s.DiskHits != 1 {
		t.Fatalf("stats = %+v, want one disk hit", s)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Compact(int64(len(data)) + 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s2.Path(StageProfile, hot, FormatBinary)); err != nil {
		t.Error("artifact served as a disk hit was evicted")
	}
	if _, err := os.Stat(s2.Path(StageProfile, cold, FormatBinary)); !os.IsNotExist(err) {
		t.Error("never-served artifact survived over the served one")
	}
}

// TestCompactRemovesStaleTemps: orphaned temp files from crashed writers,
// in a shard or in the store root, are reclaimed once they are old enough
// that no live Put can own them, and fresh temps are left alone. The
// access-time sidecar older builds kept in the root goes too.
func TestCompactRemovesStaleTemps(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("temps")
	if err := s.Put(StageProfile, key, []byte("x"), FormatBinary); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Dir(s.Path(StageProfile, key, FormatBinary))
	stale := []string{filepath.Join(shard, ".tmp-stale"), filepath.Join(s.Dir(), ".tmp-root-stale")}
	fresh := []string{filepath.Join(shard, ".tmp-fresh"), filepath.Join(s.Dir(), ".tmp-root-fresh")}
	sidecar := filepath.Join(s.Dir(), retiredSidecar)
	for _, p := range append(append([]string{sidecar}, stale...), fresh...) {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-time.Hour)
	for _, p := range stale {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Compact(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if st.RemovedTemps != len(stale) {
		t.Fatalf("removed %d temps, want %d", st.RemovedTemps, len(stale))
	}
	for _, p := range append(stale, sidecar) {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived", filepath.Base(p))
		}
	}
	for _, p := range fresh {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("fresh temp %s removed — could have been a live Put's file", filepath.Base(p))
		}
	}
	if _, err := os.Stat(s.Path(StageProfile, key, FormatBinary)); err != nil {
		t.Error("artifact removed by a cleanup-only compaction")
	}
}

// TestCompactConcurrentWithReaders is the required race test: Compact runs
// under a churn of concurrent Gets, mapped reads and re-Puts. Readers must
// only ever see an intact artifact or a clean miss — never an error or torn
// bytes — and the store must stay usable throughout. Readers record their
// access the way the runner does on a disk hit, racing the unlinks.
func TestCompactConcurrentWithReaders(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 16
	keys := make([]Key, nKeys)
	payloads := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = testKey("race", fmt.Sprint(i))
		payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, 512)
		if err := s.Put(StageProfile, keys[i], payloads[i], FormatBinary); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % nKeys
				if g%2 == 0 {
					data, ok, err := s.Get(StageProfile, keys[k], FormatBinary)
					if err != nil {
						t.Errorf("Get during compact: %v", err)
						return
					}
					if ok && !bytes.Equal(data, payloads[k]) {
						t.Errorf("torn read for key %d", k)
						return
					}
					if ok {
						touch(s.Path(StageProfile, keys[k], FormatBinary))
					}
					if !ok { // evicted: recompute-and-store, like the runner would
						if err := s.Put(StageProfile, keys[k], payloads[k], FormatBinary); err != nil {
							t.Errorf("re-Put during compact: %v", err)
							return
						}
					}
				} else {
					m, ok, err := s.ReadMapped(StageProfile, keys[k], FormatBinary)
					if err != nil {
						t.Errorf("ReadMapped during compact: %v", err)
						return
					}
					if ok {
						if !bytes.Equal(m.Bytes(), payloads[k]) {
							t.Errorf("torn mapped read for key %d", k)
						}
						m.Release()
					}
				}
			}
		}(g)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		// A budget below the working set forces real evictions every pass.
		if _, err := s.Compact(nKeys * 512 / 2); err != nil {
			t.Errorf("compact: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()

	// The store is intact: every key readable after one final re-Put pass.
	for i, k := range keys {
		if err := s.Put(StageProfile, k, payloads[i], FormatBinary); err != nil {
			t.Fatal(err)
		}
		data, ok, err := s.Get(StageProfile, k, FormatBinary)
		if err != nil || !ok || !bytes.Equal(data, payloads[i]) {
			t.Fatalf("key %d unreadable after the storm: ok=%v err=%v", i, ok, err)
		}
	}
}
