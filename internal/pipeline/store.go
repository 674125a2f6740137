package pipeline

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Format identifies the on-disk encoding of one artifact file. A stage has
// exactly one: binary when it provides a binary codec, JSON otherwise (see
// Stage).
type Format uint8

const (
	// FormatJSON is the encoding (<key>.json) of stages without a binary
	// codec.
	FormatJSON Format = iota
	// FormatBinary is the length-prefixed binary encoding (<key>.bin) of
	// stages with a binary codec.
	FormatBinary
)

// String returns the codec name, "binary" or "json".
func (f Format) String() string {
	if f == FormatBinary {
		return "binary"
	}
	return "json"
}

// ext returns the artifact file extension for the format.
func (f Format) ext() string {
	if f == FormatBinary {
		return ".bin"
	}
	return ".json"
}

// Store is a content-addressed on-disk artifact store. Artifacts live under
//
//	<dir>/<kind>/<key[:2]>/<key>.bin        (stages with a binary codec)
//	<dir>/<kind>/<key[:2]>/<key>.json       (every other stage)
//
// sharded by the first key byte so directories stay small at production
// scale. Writes are atomic (temp file + rename), so concurrent processes
// sharing a cache directory never observe torn artifacts; a lost race simply
// rewrites identical bytes. Each artifact file is the only record of its own
// facts: its size is its footprint and its mtime its last write or disk hit,
// the LRU signal Compact evicts by.
//
// The store is allocation-lean on the warm path: shard directories are
// created once and remembered (every later Put is one write + one rename,
// no MkdirAll), and reads can go through pooled buffers (getAppend) so a
// steady-state artifact load allocates nothing beyond what the decoder
// keeps. A Store is safe for concurrent use.
type Store struct {
	dir string

	// dirs remembers shard directories already created by this process, so
	// Put calls os.MkdirAll once per (kind, key[:2]) instead of once per
	// write. Keys are relative "kind/shard" strings.
	dirs sync.Map

	// bufs pools read buffers for getAppend. Entries are *[]byte so Put/Get
	// of the pool itself does not allocate.
	bufs sync.Pool

	// mapped enables ReadMapped-backed zero-copy reads in the runner for
	// stages with a mapped decoder. On by default where mmap exists.
	mapped bool

	// batch, when enabled, takes Puts off the caller's path into per-shard
	// batches; nil means every Put writes through immediately.
	batch *writeBatcher

	// Eviction gauges, exported on /statsz: lifetime totals for this
	// process's Compact calls.
	compactions      atomic.Int64
	evictedArtifacts atomic.Int64
	evictedBytes     atomic.Int64
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("pipeline: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: open store: %w", err)
	}
	return &Store{dir: dir, mapped: mmapSupported}, nil
}

// OpenWithFormat is Open for FormatBinary and an error for any other
// format. Each stage's codec, not the store, decides what an artifact is
// written as, and FormatBinary is what the stages that have a choice use.
func OpenWithFormat(dir string, write Format) (*Store, error) {
	if write != FormatBinary {
		return nil, fmt.Errorf("pipeline: open store: write format %s: artifacts are written in their stage's format", write)
	}
	return Open(dir)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetMappedReads toggles the zero-copy mapped read mode the runner uses for
// stages with a mapped decoder. It defaults to on where mmap exists; turning
// it off forces every read through the copying pooled-buffer path.
func (s *Store) SetMappedReads(on bool) { s.mapped = on && mmapSupported }

// MappedReads reports whether mapped reads are enabled.
func (s *Store) MappedReads() bool { return s.mapped }

// touch records a use of the artifact at path by setting its mtime to now,
// the LRU order Compact evicts by. It is best effort: an access that cannot
// be recorded (a read-only cache, an artifact still pending in the write
// batch) costs only LRU precision.
func touch(path string) {
	now := time.Now()
	_ = os.Chtimes(path, now, now)
}

// Path returns the artifact path for (kind, key) in the given format without
// touching the disk.
func (s *Store) Path(kind Kind, key Key, f Format) string {
	return filepath.Join(s.dir, string(kind), string(key[:2]), string(key)+f.ext())
}

// Get returns the artifact bytes stored for (kind, key) in format f and
// whether they were present. The returned slice is freshly allocated and
// owned by the caller; the runner's hot path uses getAppend with pooled
// buffers instead.
func (s *Store) Get(kind Kind, key Key, f Format) ([]byte, bool, error) {
	if err := key.Validate(); err != nil {
		return nil, false, err
	}
	if data, ok := s.batch.getPending(kind, key, f); ok {
		return append([]byte(nil), data...), true, nil
	}
	data, err := os.ReadFile(s.Path(kind, key, f))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("pipeline: get %s/%s: %w", kind, key, err)
	}
	return data, true, nil
}

// acquireBuf returns a pooled read buffer (length 0, whatever capacity it
// grew to); pair with releaseBuf once the decoded value no longer references
// it. Decoders must copy what they keep — see Stage.
func (s *Store) acquireBuf() []byte {
	if p, ok := s.bufs.Get().(*[]byte); ok {
		return (*p)[:0]
	}
	return make([]byte, 0, 64<<10)
}

func (s *Store) releaseBuf(buf []byte) {
	buf = buf[:0]
	s.bufs.Put(&buf)
}

// getAppend reads the artifact stored for (kind, key) in format f into buf
// (growing it as needed) and returns the filled slice and whether it was
// present. One file-handle allocation aside, a warm read whose buffer has
// already grown allocates nothing.
func (s *Store) getAppend(buf []byte, kind Kind, key Key, f Format) ([]byte, bool, error) {
	if err := key.Validate(); err != nil {
		return buf, false, err
	}
	if data, ok := s.batch.getPending(kind, key, f); ok {
		return append(buf[:0], data...), true, nil
	}
	data, ok, err := readAppend(buf, s.Path(kind, key, f))
	if err != nil {
		return data, false, fmt.Errorf("pipeline: get %s/%s: %w", kind, key, err)
	}
	return data, ok, nil
}

// readAppend reads path into buf, reusing its capacity.
func readAppend(buf []byte, path string) ([]byte, bool, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return buf, false, nil
	}
	if err != nil {
		return buf, false, err
	}
	defer f.Close()
	// Size the buffer one byte past the file, as os.ReadFile does, so the
	// read that sees EOF finds room instead of growing it a second time.
	if st, err := f.Stat(); err == nil {
		if need := int(st.Size()) + 1; cap(buf) < need {
			buf = make([]byte, 0, need)
		}
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, true, nil
		}
		if err != nil {
			return buf, false, err
		}
	}
}

// shardDir returns the shard directory for (kind, key), creating it on the
// first Put this process issues for it. Lost creation races are benign —
// MkdirAll succeeds on an existing directory — so the sync.Map needs no
// singleflight.
func (s *Store) shardDir(kind Kind, key Key) (string, error) {
	rel := string(kind) + "/" + string(key[:2])
	dir := filepath.Join(s.dir, string(kind), string(key[:2]))
	if _, ok := s.dirs.Load(rel); ok {
		return dir, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	s.dirs.Store(rel, struct{}{})
	return dir, nil
}

// Put writes the artifact in the given format. With write batching enabled
// the bytes are retained and flushed with the next per-shard batch (bounded
// by the batcher's deadline; Get-type reads see pending artifacts
// immediately); otherwise the write happens now. Either way the on-disk
// write is atomic: temp file + rename, so concurrent processes sharing a
// cache directory never observe torn artifacts.
func (s *Store) Put(kind Kind, key Key, data []byte, f Format) error {
	if err := key.Validate(); err != nil {
		return err
	}
	if b := s.batch; b != nil {
		return b.put(kind, key, data, f)
	}
	return s.putNow(kind, key, data, f)
}

// putNow writes the artifact atomically in the given format. The shard
// directory is created on the process's first write to it and remembered, so
// steady-state Puts are one temp-file write plus one rename.
func (s *Store) putNow(kind Kind, key Key, data []byte, f Format) error {
	dir, err := s.shardDir(kind, key)
	if err != nil {
		return fmt.Errorf("pipeline: put %s/%s: %w", kind, key, err)
	}
	path := filepath.Join(dir, string(key)+f.ext())
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("pipeline: put %s/%s: %w", kind, key, err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return fmt.Errorf("pipeline: put %s/%s: %w", kind, key, werr)
		}
		return fmt.Errorf("pipeline: put %s/%s: %w", kind, key, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("pipeline: put %s/%s: %w", kind, key, err)
	}
	return nil
}
