package pipeline

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// binIntStage is a stage with both codecs plus a mapped decoder, for store
// codec-routing tests. The binary layout is a single varint under the
// profile tag.
func binIntStage(kind Kind) Stage[int] {
	st := intStage(kind)
	decode := func(r *BinReader, err error) (int, error) {
		if err != nil {
			return 0, err
		}
		v := r.Int()
		if err := r.Done(); err != nil {
			return 0, err
		}
		return v, nil
	}
	st.EncodeBinary = func(v int) ([]byte, error) {
		w := NewBinWriter(BinTagProfile, 16)
		w.Varint(int64(v))
		return w.Bytes(), nil
	}
	st.DecodeBinary = func(data []byte) (int, error) {
		r, err := NewBinReader(data, BinTagProfile)
		return decode(r, err)
	}
	st.DecodeMapped = func(data []byte) (int, error) {
		r, err := NewBinReaderBorrow(data, BinTagProfile)
		return decode(r, err)
	}
	return st
}

// TestStoreWritesBinaryForCapableStages pins the format routing: a binary
// store writes .bin for stages with a binary codec, a fresh runner warm-reads
// it, and no .json twin is written.
func TestStoreWritesBinaryForCapableStages(t *testing.T) {
	dir := t.TempDir()
	st := binIntStage(StageProfile)
	key := testKey("bin-write")

	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(NewRunner(store), st, key, func() (int, error) { return 99, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(store.Path(StageProfile, key, FormatBinary)); err != nil {
		t.Fatalf("binary artifact missing: %v", err)
	}
	if _, err := os.Stat(store.Path(StageProfile, key, FormatJSON)); !os.IsNotExist(err) {
		t.Fatalf("unexpected JSON twin: %v", err)
	}

	// A fresh runner over the same directory warm-reads the binary artifact.
	store2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewRunner(store2)
	v, err := Run(warm, st, key, func() (int, error) { t.Fatal("recompute on warm read"); return 0, nil })
	if err != nil || v != 99 {
		t.Fatalf("warm read = %d, %v", v, err)
	}
	if !warm.Manifest().AllHits() {
		t.Error("warm manifest reports misses")
	}
}

// TestRunnerIgnoresJSONUnderBinaryStage pins one codec per stage: a valid
// JSON artifact under a binary stage's key (as an older build wrote them) is
// never read. The runner recomputes and writes the binary artifact.
func TestRunnerIgnoresJSONUnderBinaryStage(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := binIntStage(StageProfile)
	key := testKey("json-under-binary")
	jdata, err := st.Encode(17)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(StageProfile, key, jdata, FormatJSON); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store)
	computes := 0
	v, err := Run(r, st, key, func() (int, error) { computes++; return 23, nil })
	if err != nil || v != 23 || computes != 1 {
		t.Fatalf("v=%d computes=%d err=%v, want a recompute", v, computes, err)
	}
	if s := r.Manifest().Stats()[StageProfile]; s.Misses != 1 || s.DiskHits != 0 {
		t.Errorf("stats = %+v, want one miss", s)
	}
	data, ok, err := store.Get(StageProfile, key, FormatBinary)
	if err != nil || !ok {
		t.Fatalf("binary artifact after recompute: ok=%v err=%v", ok, err)
	}
	if got, err := st.DecodeBinary(data); err != nil || got != 23 {
		t.Fatalf("binary artifact decodes to %d, %v", got, err)
	}
}

// TestRunnerCorruptBinaryArtifact pins the damage policy: a truncated or
// corrupt binary artifact is a cache miss (recompute, overwrite), never an
// error.
func TestRunnerCorruptBinaryArtifact(t *testing.T) {
	st := binIntStage(StageProfile)

	t.Run("no fallback recomputes", func(t *testing.T) {
		store, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		key := testKey("corrupt-bin")
		valid, err := st.EncodeBinary(123)
		if err != nil {
			t.Fatal(err)
		}
		for i, bad := range [][]byte{
			valid[:4],                      // cut inside the magic
			valid[:len(valid)-1],           // cut inside the payload
			[]byte("CTDB\xff\xff garbage"), // wrong version
			{},                             // empty file
		} {
			if err := store.Put(StageProfile, key, bad, FormatBinary); err != nil {
				t.Fatal(err)
			}
			computes := 0
			v, err := Run(NewRunner(store), st, key, func() (int, error) { computes++; return 55, nil })
			if err != nil || v != 55 || computes != 1 {
				t.Fatalf("case %d: v=%d computes=%d err=%v", i, v, computes, err)
			}
			// The recompute overwrote the damaged artifact.
			data, ok, err := store.Get(StageProfile, key, FormatBinary)
			if err != nil || !ok {
				t.Fatalf("case %d: artifact after recompute ok=%v err=%v", i, ok, err)
			}
			if got, err := st.DecodeBinary(data); err != nil || got != 55 {
				t.Fatalf("case %d: rewritten artifact decodes to %d, %v", i, got, err)
			}
		}
	})
}

// TestStoreConcurrentPuts hammers one store from many goroutines — same
// shard, distinct keys, plus racing writers on one shared key — and then
// requires every artifact to read back complete. Run under -race (make ci)
// this also gates the shard-directory cache and buffer pool for data races.
func TestStoreConcurrentPuts(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	shared := testKey("shared")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := testKey("concurrent", fmt.Sprint(w))
			payload := []byte(fmt.Sprintf("artifact-%02d", w))
			for i := 0; i < 20; i++ {
				if err := store.Put(StageRecording, key, payload, FormatBinary); err != nil {
					t.Error(err)
					return
				}
				// Racing writers of identical bytes on one key: atomic
				// temp+rename means readers never observe a torn file.
				if err := store.Put(StageRecording, shared, []byte("shared-bytes"), FormatBinary); err != nil {
					t.Error(err)
					return
				}
				if data, ok, err := store.Get(StageRecording, shared, FormatBinary); err != nil || !ok || string(data) != "shared-bytes" {
					t.Errorf("torn shared read: %q ok=%v err=%v", data, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		key := testKey("concurrent", fmt.Sprint(w))
		data, ok, err := store.Get(StageRecording, key, FormatBinary)
		if err != nil || !ok || string(data) != fmt.Sprintf("artifact-%02d", w) {
			t.Fatalf("writer %d: %q ok=%v err=%v", w, data, ok, err)
		}
	}
}

// TestStoreShardDirCaching pins the MkdirAll caching contract: repeated Puts
// into one shard keep working (the second sees the remembered directory), and
// shards are physically distinct per key prefix.
func TestStoreShardDirCaching(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("shard-cache")
	for i := 0; i < 3; i++ {
		if err := store.Put(StageSolve, key, []byte(fmt.Sprint(i)), FormatJSON); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	data, ok, err := store.Get(StageSolve, key, FormatJSON)
	if err != nil || !ok || string(data) != "2" {
		t.Fatalf("after rewrites: %q ok=%v err=%v", data, ok, err)
	}
	// Distinct key prefixes land in distinct shard directories.
	other := testKey("a", "different", "artifact")
	if err := store.Put(StageSolve, other, []byte("x"), FormatJSON); err != nil {
		t.Fatal(err)
	}
	if string(key[:2]) != string(other[:2]) {
		d1 := store.Path(StageSolve, key, FormatJSON)
		d2 := store.Path(StageSolve, other, FormatJSON)
		if d1 == d2 {
			t.Error("distinct keys share one artifact path")
		}
	}
}

// TestReadAppendGrowsOnce pins readAppend's sizing: a buffer too small for
// the file is replaced once, with one byte of room for the read that sees
// EOF, so that read never grows it a second time. Both a fresh read and a
// file exactly the size of a pooled buffer must come back at size+1.
func TestReadAppendGrowsOnce(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		size    int
		buf     []byte
		wantCap int
	}{
		{100_000, nil, 100_001},
		{64 << 10, make([]byte, 0, 64<<10), 64<<10 + 1},
		{10, make([]byte, 0, 64<<10), 64 << 10}, // fits: reused as is
	} {
		path := filepath.Join(dir, fmt.Sprintf("f%d", tc.size))
		want := make([]byte, tc.size)
		for i := range want {
			want[i] = byte(i)
		}
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, err := readAppend(tc.buf, path)
		if err != nil || !ok {
			t.Fatalf("size %d: ok=%v err=%v", tc.size, ok, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d: read back different bytes", tc.size)
		}
		if cap(got) != tc.wantCap {
			t.Errorf("size %d into cap %d: result cap = %d, want %d", tc.size, cap(tc.buf), cap(got), tc.wantCap)
		}
	}
}
