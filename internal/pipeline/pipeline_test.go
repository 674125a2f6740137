package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// intStage is a trivial cached stage for runner tests.
func intStage(kind Kind) Stage[int] {
	return Stage[int]{
		Kind:   kind,
		Encode: func(v int) ([]byte, error) { return json.Marshal(v) },
		Decode: func(d []byte) (int, error) {
			var v int
			err := json.Unmarshal(d, &v)
			return v, err
		},
	}
}

func testKey(parts ...string) Key {
	b := NewKey(StageProfile)
	for i, p := range parts {
		b.Str(fmt.Sprintf("p%d", i), p)
	}
	return b.Sum()
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("a")
	if _, ok, err := s.Get(StageProfile, key, FormatJSON); err != nil || ok {
		t.Fatalf("empty store returned ok=%v err=%v", ok, err)
	}
	if err := s.Put(StageProfile, key, []byte("hello"), FormatJSON); err != nil {
		t.Fatal(err)
	}
	data, ok, err := s.Get(StageProfile, key, FormatJSON)
	if err != nil || !ok || string(data) != "hello" {
		t.Fatalf("get = %q ok=%v err=%v", data, ok, err)
	}
	// Formats are separate files: no binary artifact was written.
	if _, ok, err := s.Get(StageProfile, key, FormatBinary); err != nil || ok {
		t.Fatalf("binary get of a JSON artifact: ok=%v err=%v", ok, err)
	}
	// Sharded layout: kind/key[:2]/key.json.
	want := filepath.Join(s.Dir(), "profile", string(key[:2]), string(key)+".json")
	if s.Path(StageProfile, key, FormatJSON) != want {
		t.Errorf("path = %q, want %q", s.Path(StageProfile, key, FormatJSON), want)
	}
	if _, err := os.Stat(want); err != nil {
		t.Errorf("artifact file missing: %v", err)
	}
}

func TestStoreRejectsBadKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Key{"", "short", Key(strings.Repeat("../", 22) + "aa")} {
		if err := s.Put(StageProfile, bad, []byte("x"), FormatJSON); err == nil {
			t.Errorf("Put accepted key %q", bad)
		}
		if _, _, err := s.Get(StageProfile, bad, FormatJSON); err == nil {
			t.Errorf("Get accepted key %q", bad)
		}
	}
}

func TestRunnerMemoryDedup(t *testing.T) {
	r := NewRunner(nil)
	st := intStage(StageSolve)
	key := testKey("dedup")
	computes := 0
	get := func() int {
		v, err := Run(r, st, key, func() (int, error) { computes++; return 42, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if get() != 42 || get() != 42 {
		t.Fatal("wrong value")
	}
	if computes != 1 {
		t.Fatalf("computed %d times, want 1", computes)
	}
	recs := r.Manifest().Records()
	if len(recs) != 1 || recs[0].Misses != 1 || recs[0].MemHits != 1 {
		t.Fatalf("manifest = %+v", recs)
	}
}

func TestRunnerConcurrentSingleflight(t *testing.T) {
	r := NewRunner(nil)
	st := intStage(StageSolve)
	key := testKey("concurrent")
	var mu sync.Mutex
	computes := 0
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := Run(r, st, key, func() (int, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("got %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computed %d times, want 1", computes)
	}
}

func TestRunnerDiskWarm(t *testing.T) {
	dir := t.TempDir()
	st := intStage(StageProfile)
	key := testKey("warm")

	open := func() *Runner {
		store, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewRunner(store)
	}

	cold := open()
	computes := 0
	v, err := Run(cold, st, key, func() (int, error) { computes++; return 11, nil })
	if err != nil || v != 11 || computes != 1 {
		t.Fatalf("cold: v=%d computes=%d err=%v", v, computes, err)
	}
	if cold.Manifest().AllHits() {
		t.Error("cold run claims all hits")
	}

	// A fresh runner over the same directory must not recompute.
	warm := open()
	v, err = Run(warm, st, key, func() (int, error) { computes++; return -1, nil })
	if err != nil || v != 11 {
		t.Fatalf("warm: v=%d err=%v", v, err)
	}
	if computes != 1 {
		t.Fatalf("warm run recomputed (computes=%d)", computes)
	}
	if !warm.Manifest().AllHits() {
		t.Errorf("warm manifest reports misses: %+v", warm.Manifest().Records())
	}
	stats := warm.Manifest().Stats()
	if s := stats[StageProfile]; s.DiskHits != 1 || s.Misses != 0 {
		t.Errorf("warm stats = %+v", s)
	}
}

func TestRunnerCorruptArtifactRecomputes(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := intStage(StageProfile)
	key := testKey("corrupt")
	if err := store.Put(StageProfile, key, []byte("not json"), FormatJSON); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store)
	v, err := Run(r, st, key, func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	// The recompute must overwrite the corrupt artifact.
	data, ok, err := store.Get(StageProfile, key, FormatJSON)
	if err != nil || !ok || string(data) != "5" {
		t.Fatalf("artifact after recompute = %q ok=%v err=%v", data, ok, err)
	}
}

func TestRunnerErrorPropagates(t *testing.T) {
	r := NewRunner(nil)
	st := intStage(StageSolve)
	key := testKey("err")
	boom := errors.New("boom")
	if _, err := Run(r, st, key, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The error is memoized like a value: same key, same error, no recompute.
	if _, err := Run(r, st, key, func() (int, error) { return 1, nil }); !errors.Is(err, boom) {
		t.Fatalf("second call err = %v", err)
	}
}

func TestObserveRecorded(t *testing.T) {
	r := NewRunner(nil)
	key := testKey("obs")
	if err := r.Observe(StageFilter, key, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	recs := r.Manifest().Records()
	if len(recs) != 1 || recs[0].Stage != StageFilter || recs[0].Misses != 1 || recs[0].Cached {
		t.Fatalf("manifest = %+v", recs)
	}
}

func TestManifestJSON(t *testing.T) {
	r := NewRunner(nil)
	st := intStage(StageSolve)
	if _, err := Run(r, st, testKey("m"), func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := r.Manifest().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version int                  `json:"version"`
		Summary map[string]KindStats `json:"summary"`
		Records []StageRecord        `json:"records"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("manifest not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Version != 1 || len(doc.Records) != 1 || doc.Summary["solve"].Misses != 1 {
		t.Fatalf("doc = %+v", doc)
	}
}
