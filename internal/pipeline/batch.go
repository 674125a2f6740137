package pipeline

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// BatchConfig tunes the per-shard write coalescer. Zero values take the
// defaults.
type BatchConfig struct {
	// MaxPending flushes the batch once this many artifacts are buffered.
	// Default 32.
	MaxPending int
	// MaxDelay bounds how long a buffered artifact waits before its batch
	// flushes, the visibility window other processes see. Default 5ms.
	MaxDelay time.Duration
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxPending <= 0 {
		c.MaxPending = 32
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 5 * time.Millisecond
	}
	return c
}

// EnableWriteBatching switches the store's Puts to the write batcher: a Put
// buffers the artifact in memory and returns, and the batch lands when it
// fills (MaxPending) or its deadline (MaxDelay) passes, normally on the
// timer goroutine, so artifact writes leave the caller's path. Every
// artifact still lands via its own temp file + rename (the crash-safety
// protocol is unchanged: an artifact is fully present or absent, never
// torn), and each batch ends with one fsync per touched shard directory.
// Reads through this store see pending artifacts immediately; other
// processes see them within MaxDelay. Call Flush or Close to force
// everything to disk (Close also happens via cli.App teardown).
func (s *Store) EnableWriteBatching(cfg BatchConfig) {
	if s.batch != nil {
		return
	}
	b := &writeBatcher{s: s, cfg: cfg.withDefaults(), pending: make(map[string]pendingPut)}
	b.landed.L = &b.mu
	s.batch = b
}

// Flush writes every pending batched artifact to disk now. A no-op without
// batching.
func (s *Store) Flush() error {
	if s.batch == nil {
		return nil
	}
	return s.batch.flush()
}

// Close flushes pending batched writes, waits for any background flush still
// writing, and stops the batcher's timer. It writes nothing the run did not
// put, so a run that only read closes cleanly even over a store it cannot
// write. The store remains usable afterwards (later Puts write through
// immediately).
func (s *Store) Close() error {
	b := s.batch
	if b == nil {
		return nil
	}
	s.batch = nil
	return b.close()
}

// pendingPut is one buffered artifact awaiting its batch flush.
type pendingPut struct {
	kind   Kind
	key    Key
	data   []byte
	format Format
}

// writeBatcher coalesces Puts. Buffered artifacts are visible to reads via
// getPending, so in-process read-your-writes holds regardless of flush
// timing; the flush itself swaps the pending set out under the lock and does
// its disk work outside it, so readers and new writers never block on I/O.
// A swapped-out batch stays readable in writing until its files are in
// place, so a read racing the flush finds it in memory or on disk; landed
// signals each batch leaving writing, which close waits for so that no
// background flush is still writing when Close returns.
type writeBatcher struct {
	s   *Store
	cfg BatchConfig

	mu      sync.Mutex
	pending map[string]pendingPut // keyed by "kind/key.ext"
	writing []*map[string]pendingPut
	landed  sync.Cond // L is &mu
	timer   *time.Timer
	err     error // sticky first background-flush error, surfaced on the next call
	closed  bool
}

func pendingKey(kind Kind, key Key, f Format) string {
	return string(kind) + "/" + string(key) + f.ext()
}

// getPending returns a buffered artifact's bytes. Safe on a nil batcher.
// The returned slice is the buffered one; callers copy.
func (b *writeBatcher) getPending(kind Kind, key Key, f Format) ([]byte, bool) {
	if b == nil {
		return nil, false
	}
	pk := pendingKey(kind, key, f)
	b.mu.Lock()
	defer b.mu.Unlock()
	if p, ok := b.pending[pk]; ok {
		return p.data, true
	}
	// Newest batch first: it holds the latest Put of the key.
	for i := len(b.writing) - 1; i >= 0; i-- {
		if p, ok := (*b.writing[i])[pk]; ok {
			return p.data, true
		}
	}
	return nil, false
}

// put buffers one artifact, flushing synchronously when the batch is full
// and arming the deadline timer otherwise. The data slice is retained until
// the flush; pipeline encoders hand over freshly built buffers, so no copy
// is taken.
func (b *writeBatcher) put(kind Kind, key Key, data []byte, f Format) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return b.s.putNow(kind, key, data, f)
	}
	if err := b.err; err != nil {
		b.err = nil
		b.mu.Unlock()
		return err
	}
	b.pending[pendingKey(kind, key, f)] = pendingPut{kind: kind, key: key, data: data, format: f}
	if len(b.pending) >= b.cfg.MaxPending {
		batch := b.take()
		b.mu.Unlock()
		return b.writeBatch(batch, false)
	}
	if b.timer == nil {
		b.timer = time.AfterFunc(b.cfg.MaxDelay, b.deadlineFlush)
	}
	b.mu.Unlock()
	return nil
}

// take swaps out the pending set, keeps it readable in writing until
// writeBatch has landed it, and disarms the timer; callers hold mu. It
// returns nil when nothing is pending.
func (b *writeBatcher) take() *map[string]pendingPut {
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	if len(b.pending) == 0 {
		return nil
	}
	batch := b.pending
	b.pending = make(map[string]pendingPut)
	b.writing = append(b.writing, &batch)
	return &batch
}

// deadlineFlush is the timer callback; its error is kept sticky and surfaced
// on the next Put/Flush/Close since nobody is waiting on the timer goroutine.
func (b *writeBatcher) deadlineFlush() {
	b.mu.Lock()
	batch := b.take()
	b.mu.Unlock()
	_ = b.writeBatch(batch, true) // kept sticky for the next call
}

func (b *writeBatcher) flush() error {
	b.mu.Lock()
	err := b.err
	b.err = nil
	batch := b.take()
	b.mu.Unlock()
	if werr := b.writeBatch(batch, false); err == nil {
		err = werr
	}
	return err
}

// close lands what is pending and waits for batches other goroutines are
// still writing, so every artifact is on disk when it returns.
func (b *writeBatcher) close() error {
	b.mu.Lock()
	b.closed = true
	batch := b.take()
	b.mu.Unlock()
	werr := b.writeBatch(batch, false)
	b.mu.Lock()
	for len(b.writing) > 0 {
		b.landed.Wait()
	}
	err := b.err
	b.err = nil
	b.mu.Unlock()
	if err == nil {
		err = werr
	}
	return err
}

// writeBatch lands one batch taken by take: every artifact via the store's
// usual temp file + rename, then one directory fsync per touched shard so the
// batch's directory entries are durable. Then the batch leaves writing; with
// sticky set, its
// error is kept for the next Put/Flush/Close. A nil batch is a no-op.
func (b *writeBatcher) writeBatch(batch *map[string]pendingPut, sticky bool) error {
	if batch == nil {
		return nil
	}
	var errs []error
	shards := make(map[string]struct{})
	for _, p := range *batch {
		if err := b.s.putNow(p.kind, p.key, p.data, p.format); err != nil {
			errs = append(errs, err)
			continue
		}
		shards[filepath.Join(b.s.dir, string(p.kind), string(p.key[:2]))] = struct{}{}
	}
	for dir := range shards {
		if err := syncDir(dir); err != nil {
			errs = append(errs, fmt.Errorf("pipeline: sync shard %s: %w", dir, err))
		}
	}
	err := errors.Join(errs...)
	b.mu.Lock()
	for i, w := range b.writing {
		if w == batch {
			b.writing = append(b.writing[:i], b.writing[i+1:]...)
			break
		}
	}
	if sticky && err != nil && b.err == nil {
		b.err = err
	}
	b.landed.Broadcast()
	b.mu.Unlock()
	return err
}

// syncDir fsyncs a directory so freshly renamed entries survive a crash.
// Filesystems that cannot fsync directories report nothing to act on, so
// sync errors on an otherwise healthy open are swallowed.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}
