package pipeline

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// neverFlush is a batch config whose automatic flush triggers are out of
// reach, so tests control flushing explicitly.
var neverFlush = BatchConfig{MaxPending: 1 << 20, MaxDelay: time.Hour}

// TestBatchReadYourWrites: a buffered Put is invisible on disk but visible to
// every read path of the same store, and Flush makes it durable.
func TestBatchReadYourWrites(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableWriteBatching(neverFlush)
	defer s.Close()
	key := testKey("ryw")
	if err := s.Put(StageProfile, key, []byte("pending"), FormatBinary); err != nil {
		t.Fatal(err)
	}
	path := s.Path(StageProfile, key, FormatBinary)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("buffered artifact reached disk before flush")
	}
	if data, ok, err := s.Get(StageProfile, key, FormatBinary); err != nil || !ok || string(data) != "pending" {
		t.Fatalf("Get of pending = %q ok=%v err=%v", data, ok, err)
	}
	if data, ok, err := s.getAppend(nil, StageProfile, key, FormatBinary); err != nil || !ok || string(data) != "pending" {
		t.Fatalf("getAppend of pending = %q ok=%v err=%v", data, ok, err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("flushed artifact missing: %v", err)
	}
	if data, ok, err := s.Get(StageProfile, key, FormatBinary); err != nil || !ok || string(data) != "pending" {
		t.Fatalf("post-flush Get = %q ok=%v err=%v", data, ok, err)
	}
}

// TestBatchFlushOnMaxPending: hitting MaxPending flushes synchronously, so
// the Put that filled the batch returns with everything durable.
func TestBatchFlushOnMaxPending(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableWriteBatching(BatchConfig{MaxPending: 2, MaxDelay: time.Hour})
	defer s.Close()
	k1, k2 := testKey("full-1"), testKey("full-2")
	if err := s.Put(StageProfile, k1, []byte("a"), FormatBinary); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.Path(StageProfile, k1, FormatBinary)); !os.IsNotExist(err) {
		t.Fatal("first Put flushed early")
	}
	if err := s.Put(StageProfile, k2, []byte("b"), FormatBinary); err != nil {
		t.Fatal(err)
	}
	for _, k := range []Key{k1, k2} {
		if _, err := os.Stat(s.Path(StageProfile, k, FormatBinary)); err != nil {
			t.Errorf("artifact %s not on disk after full-batch Put: %v", k, err)
		}
	}
}

// TestBatchDeadlineFlush: a lone buffered Put reaches disk within the
// MaxDelay visibility window without any further store calls.
func TestBatchDeadlineFlush(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableWriteBatching(BatchConfig{MaxPending: 1 << 20, MaxDelay: 5 * time.Millisecond})
	defer s.Close()
	key := testKey("deadline")
	if err := s.Put(StageProfile, key, []byte("timed"), FormatBinary); err != nil {
		t.Fatal(err)
	}
	path := s.Path(StageProfile, key, FormatBinary)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("deadline flush never landed the artifact")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchCloseFlushesAndWritesThrough: Close drains the batch, and the
// store stays usable afterwards with Puts writing through immediately.
func TestBatchCloseFlushesAndWritesThrough(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableWriteBatching(neverFlush)
	key := testKey("close")
	if err := s.Put(StageProfile, key, []byte("c"), FormatBinary); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.Path(StageProfile, key, FormatBinary)); err != nil {
		t.Fatalf("Close did not flush: %v", err)
	}
	after := testKey("after-close")
	if err := s.Put(StageProfile, after, []byte("d"), FormatBinary); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.Path(StageProfile, after, FormatBinary)); err != nil {
		t.Fatalf("post-Close Put did not write through: %v", err)
	}
}

// TestBatchLatestWriteWins: re-Putting a pending key replaces the buffered
// bytes, and one flush lands only the final version.
func TestBatchLatestWriteWins(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableWriteBatching(neverFlush)
	defer s.Close()
	key := testKey("rewrite")
	for i := 0; i < 3; i++ {
		if err := s.Put(StageProfile, key, []byte{byte('0' + i)}, FormatBinary); err != nil {
			t.Fatal(err)
		}
	}
	if data, ok, _ := s.Get(StageProfile, key, FormatBinary); !ok || string(data) != "2" {
		t.Fatalf("pending read = %q ok=%v, want final write", data, ok)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.Path(StageProfile, key, FormatBinary))
	if err != nil || string(data) != "2" {
		t.Fatalf("on disk = %q err=%v", data, err)
	}
}

// TestBatchConcurrent hammers buffered Puts, reads and Flushes from many
// goroutines; run under -race this is the batcher's locking proof. Every
// artifact must be durable and intact after Close.
func TestBatchConcurrent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableWriteBatching(BatchConfig{MaxPending: 8, MaxDelay: time.Millisecond})

	const n = 64
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = testKey("conc", fmt.Sprint(i))
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("artifact-%d", i))
			if err := s.Put(StageProfile, keys[i], payload, FormatBinary); err != nil {
				t.Error(err)
			}
			if data, ok, err := s.Get(StageProfile, keys[i], FormatBinary); err != nil || !ok || string(data) != string(payload) {
				t.Errorf("read-your-write %d failed: %q ok=%v err=%v", i, data, ok, err)
			}
			if i%7 == 0 {
				if err := s.Flush(); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		data, err := os.ReadFile(s.Path(StageProfile, k, FormatBinary))
		if err != nil || string(data) != fmt.Sprintf("artifact-%d", i) {
			t.Fatalf("artifact %d after Close = %q err=%v", i, data, err)
		}
	}
}

// TestCloseAfterReadOnlyRun: Close writes nothing a run did not put, so a
// run that only read closes cleanly even when its store can no longer be
// written — here, because the directory was renamed away.
func TestCloseAfterReadOnlyRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st := binIntStage(StageProfile)
	key := testKey("read-only")
	cold, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(NewRunner(cold), st, key, func() (int, error) { return 4, nil }); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableWriteBatching(BatchConfig{})
	r := NewRunner(s)
	v, err := Run(r, st, key, func() (int, error) { return -1, nil })
	if err != nil || v != 4 || !r.Manifest().AllHits() {
		t.Fatalf("warm read v=%d err=%v records=%+v", v, err, r.Manifest().Records())
	}
	if err := os.Rename(dir, dir+"-moved"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after a read-only run: %v", err)
	}
}
