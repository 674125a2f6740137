package pipeline

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// Stage describes one typed pipeline stage: its kind and the codec that
// round-trips its artifact through the store. Each stage has exactly one
// on-disk codec: the binary one (EncodeBinary/DecodeBinary, a pair) when
// EncodeBinary is set, the JSON one (Encode/Decode) otherwise. The runner
// reads and writes only that format, so a stage never pays for a second.
// Encoders must be deterministic — encode(decode(encode(x))) == encode(x) —
// so artifacts are stable across processes.
//
// Decode and DecodeBinary are handed buffers the runner may reuse for the
// next read: they must not retain or alias their input past the call.
// DecodeMapped is the one exception — see its comment.
type Stage[T any] struct {
	Kind   Kind
	Encode func(T) ([]byte, error)
	Decode func([]byte) (T, error)

	// EncodeBinary/DecodeBinary, when non-nil, are the stage's binary codec,
	// and then its only one: Encode/Decode go unused.
	EncodeBinary func(T) ([]byte, error)
	DecodeBinary func([]byte) (T, error)

	// DecodeMapped, when non-nil, is the binary stage's zero-copy decoder:
	// the runner hands it an mmap'd page-cache-backed view of the artifact
	// (never a pooled buffer) and the decoded value MAY alias it. The
	// mapping then lives exactly as long as the decoded value — which the
	// runner's slot cache retains for the process lifetime, so nothing is
	// ever unmapped underneath a borrowed slice. Must decode to values
	// byte-identical to DecodeBinary's (asserted by property tests).
	DecodeMapped func([]byte) (T, error)
}

// codec returns the stage's one on-disk codec: binary when it has a binary
// encoder, JSON otherwise.
func (st Stage[T]) codec() (Format, func(T) ([]byte, error), func([]byte) (T, error)) {
	if st.EncodeBinary != nil {
		return FormatBinary, st.EncodeBinary, st.DecodeBinary
	}
	return FormatJSON, st.Encode, st.Decode
}

// slot is the in-memory singleflight cell for one (kind, key): concurrent
// requests for the same artifact block on one computation while other keys
// proceed in parallel. The resolved artifact stays in the slot, so repeated
// in-process requests are memory hits.
//
// Each in-flight slot runs its computation under a private context that is
// cancelled only when every caller interested in the result has cancelled —
// one disconnected client never aborts work another client still waits on. A
// slot whose computation ends in a context error is removed from the runner,
// so the next request for the same key computes afresh instead of replaying a
// stale cancellation.
type slot struct {
	done chan struct{} // closed when val/err are final

	val any
	err error

	// waiters counts callers whose context is still alive; cancel aborts the
	// computation context once it drops to zero. Both are guarded by the
	// runner's mutex. finished marks the slot resolved (also under the
	// runner's mutex, set before done is closed).
	waiters  int
	cancel   context.CancelFunc
	finished bool
}

// Runner executes pipeline stages against an optional artifact store,
// deduplicating concurrent work and recording every request in the run
// manifest. A nil-store Runner is a pure in-memory cache (the default for
// library use); with a store, artifacts persist across processes. A Runner
// is safe for concurrent use.
type Runner struct {
	store *Store
	man   *Manifest

	mu    sync.Mutex
	slots map[string]*slot
}

// NewRunner returns a runner over the given store; store may be nil for a
// memory-only runner.
func NewRunner(store *Store) *Runner {
	return &Runner{
		store: store,
		man:   NewManifest(),
		slots: make(map[string]*slot),
	}
}

// Store returns the backing store (nil for memory-only runners).
func (r *Runner) Store() *Store { return r.store }

// Manifest returns the run manifest.
func (r *Runner) Manifest() *Manifest { return r.man }

// Run resolves the artifact for (stage, key): from this run's memory, then
// from the store, and only then by computing it (persisting the result when
// a store is attached). All callers of the same key share one resolution.
func Run[T any](r *Runner, st Stage[T], key Key, compute func() (T, error)) (T, error) {
	return RunCtx(context.Background(), r, st, key, func(context.Context) (T, error) {
		return compute()
	})
}

// isCtxErr reports whether err is a context cancellation or deadline error
// (possibly wrapped) — the class of failures that say nothing about the
// artifact itself and must not be cached.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunCtx is Run with caller cancellation: a caller whose context ends while
// waiting unblocks immediately with ctx.Err(), and the computation itself is
// aborted only once every caller for the key has gone away (its context is
// derived from the runner, not from any one request). Results that fail with
// a context error are not retained — the next request recomputes.
func RunCtx[T any](ctx context.Context, r *Runner, st Stage[T], key Key, compute func(context.Context) (T, error)) (T, error) {
	for {
		v, err := runOnce(ctx, r, st, key, compute)
		// A caller that attached to a computation just as its last
		// interested party cancelled inherits that cancellation; if this
		// caller itself is still live, the slot is gone by now (it is
		// deleted before waiters are released) and a retry computes afresh.
		if isCtxErr(err) && ctx.Err() == nil {
			continue
		}
		return v, err
	}
}

func runOnce[T any](ctx context.Context, r *Runner, st Stage[T], key Key, compute func(context.Context) (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	id := string(st.Kind) + "/" + string(key)

	r.mu.Lock()
	s, ok := r.slots[id]
	if ok && s.finished {
		r.mu.Unlock()
		r.man.addMemHit(st.Kind, key)
		if s.err != nil {
			return zero, s.err
		}
		return slotValue[T](s, st, key)
	}
	leader := false
	if !ok {
		cctx, cancel := context.WithCancel(context.Background())
		s = &slot{done: make(chan struct{}), cancel: cancel}
		r.slots[id] = s
		leader = true
		go func() {
			v, err := resolve(cctx, r, st, key, compute)
			r.mu.Lock()
			s.val, s.err, s.finished = v, err, true
			if isCtxErr(err) {
				// A cancelled computation says nothing about the artifact:
				// drop the slot so the next caller recomputes.
				delete(r.slots, id)
			}
			r.mu.Unlock()
			cancel()
			close(s.done)
		}()
	}
	s.waiters++
	r.mu.Unlock()

	select {
	case <-s.done:
		if !leader {
			// Served from the in-memory slot (possibly after blocking on a
			// concurrent resolution of the same key).
			r.man.addMemHit(st.Kind, key)
		}
		if s.err != nil {
			return zero, s.err
		}
		return slotValue[T](s, st, key)
	case <-ctx.Done():
		r.mu.Lock()
		s.waiters--
		if s.waiters == 0 && !s.finished {
			s.cancel()
		}
		r.mu.Unlock()
		return zero, ctx.Err()
	}
}

// slotValue extracts the typed artifact from a resolved slot.
func slotValue[T any](s *slot, st Stage[T], key Key) (T, error) {
	v, ok := s.val.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("pipeline: stage %s key %s resolved to %T", st.Kind, key, s.val)
	}
	return v, nil
}

func resolve[T any](ctx context.Context, r *Runner, st Stage[T], key Key, compute func(context.Context) (T, error)) (T, error) {
	var artifact string
	if r.store != nil {
		if v, path, ok := loadArtifact(r.store, st, key); ok {
			touch(path)
			r.man.addDiskHit(st.Kind, key, path)
			return v, nil
		}
		// No artifact, or a damaged one (now deleted): fall through to a
		// recompute, which rewrites it.
	}

	// Stage boundary: a request cancelled while queued behind the store
	// lookup never starts the expensive computation at all.
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, err
	}

	start := time.Now()
	v, err := compute(ctx)
	ms := float64(time.Since(start).Microseconds()) / 1e3
	if err != nil {
		var zero T
		r.man.addMiss(st.Kind, key, ms, "", r.store != nil)
		return zero, err
	}
	if r.store != nil {
		f, encode, _ := st.codec()
		if data, eerr := encode(v); eerr == nil {
			artifact = r.store.Path(st.Kind, key, f)
			if perr := r.store.Put(st.Kind, key, data, f); perr != nil {
				artifact = "" // computed fine, persisting failed; stay usable
			}
		}
	}
	r.man.addMiss(st.Kind, key, ms, artifact, r.store != nil)
	return v, nil
}

// loadArtifact reads and decodes the stored artifact for (stage, key) in the
// stage's one format. Binary stages with a mapped decoder read zero-copy
// through an mmap'd view when the store allows it; everything else goes
// through a pooled buffer. An artifact that fails to decode (truncated,
// corrupt, wrong version or tag) is deleted — it would otherwise be retried
// and fail on every warm read — and the caller treats the key as a miss and
// recomputes. A damaged cache entry can cost work, never correctness.
func loadArtifact[T any](s *Store, st Stage[T], key Key) (v T, path string, ok bool) {
	f, _, decode := st.codec()
	var found bool
	var err error
	if f == FormatBinary && st.DecodeMapped != nil && s.MappedReads() {
		v, found, err = loadMapped(s, st.Kind, key, st.DecodeMapped)
	} else {
		v, found, err = loadCopied(s, st.Kind, key, f, decode)
	}
	if !found {
		return v, "", false
	}
	path = s.Path(st.Kind, key, f)
	if err != nil {
		_ = os.Remove(path) // best effort: a failed delete costs only a repeat decode
		return v, "", false
	}
	return v, path, true
}

// loadMapped is loadArtifact's zero-copy path: the artifact is mmap'd and
// decoded in place, and on success the mapping is deliberately never
// released — the decoded value aliases it and lives in the runner's slot
// cache for the process lifetime, backed by the page cache rather than the
// heap. A read error counts as not found; err is the decode error.
func loadMapped[T any](s *Store, kind Kind, key Key, decode func([]byte) (T, error)) (v T, found bool, err error) {
	m, found, rerr := s.ReadMapped(kind, key, FormatBinary)
	if rerr != nil || !found {
		return v, false, nil
	}
	if v, err = decode(m.Bytes()); err != nil {
		m.Release()
	}
	return v, true, err
}

// loadCopied is loadArtifact's copying path: the artifact is read into a
// pooled buffer, which decode must not retain. A read error counts as not
// found; err is the decode error.
func loadCopied[T any](s *Store, kind Kind, key Key, f Format, decode func([]byte) (T, error)) (v T, found bool, err error) {
	data, found, rerr := s.getAppend(s.acquireBuf(), kind, key, f)
	defer s.releaseBuf(data) // keeps whatever capacity the read grew
	if rerr != nil || !found {
		return v, false, nil
	}
	v, err = decode(data)
	return v, true, err
}

// Observe times an uncached stage (filter, formulate) and records it in the
// manifest. These stages only run when the enclosing solve misses, so a warm
// run's manifest contains no entries for them.
func (r *Runner) Observe(kind Kind, key Key, fn func() error) error {
	start := time.Now()
	err := fn()
	r.man.addMiss(kind, key, float64(time.Since(start).Microseconds())/1e3, "", false)
	return err
}
