package pipeline

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestRunCtxPreCancelled asserts the stage-boundary contract: a request whose
// context is already dead never starts the computation.
func TestRunCtxPreCancelled(t *testing.T) {
	r := NewRunner(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := RunCtx(ctx, r, intStage(StageSolve), testKey("pre"), func(context.Context) (int, error) {
		ran = true
		return 1, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("compute ran despite a cancelled context")
	}
}

// TestRunCtxCancelAbortsCompute cancels the only caller of an in-flight
// computation and asserts three things: the caller unblocks with ctx.Err(),
// the computation's own context is cancelled (so a context-aware solve
// aborts), and the failed slot is not retained — the next request for the
// same key computes afresh and succeeds.
func TestRunCtxCancelAbortsCompute(t *testing.T) {
	r := NewRunner(nil)
	key := testKey("abort")
	st := intStage(StageSolve)

	started := make(chan struct{})
	aborted := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunCtx(ctx, r, st, key, func(cctx context.Context) (int, error) {
			close(started)
			<-cctx.Done() // a context-aware stage: block until aborted
			close(aborted)
			return 0, cctx.Err()
		})
		done <- err
	}()

	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller err = %v, want context.Canceled", err)
	}
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("computation context was never cancelled")
	}

	// The cancelled slot must not poison the key: a fresh caller recomputes.
	v, err := RunCtx(context.Background(), r, st, key, func(context.Context) (int, error) {
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("recompute after cancellation = %d, %v; want 42, nil", v, err)
	}
}

// TestRunCtxSurvivingWaiterKeepsComputeAlive starts two callers on one key,
// cancels the first (the leader), and asserts the computation keeps running
// for the second: singleflight cancellation is all-or-nothing, not
// first-caller-wins.
func TestRunCtxSurvivingWaiterKeepsComputeAlive(t *testing.T) {
	r := NewRunner(nil)
	key := testKey("survivor")
	st := intStage(StageSolve)

	started := make(chan struct{})
	release := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())

	leaderDone := make(chan error, 1)
	go func() {
		_, err := RunCtx(leaderCtx, r, st, key, func(cctx context.Context) (int, error) {
			close(started)
			select {
			case <-release:
				return 7, nil
			case <-cctx.Done():
				return 0, cctx.Err()
			}
		})
		leaderDone <- err
	}()
	<-started

	var wg sync.WaitGroup
	wg.Add(1)
	type res struct {
		v   int
		err error
	}
	waiterDone := make(chan res, 1)
	go func() {
		defer wg.Done()
		v, err := RunCtx(context.Background(), r, st, key, func(context.Context) (int, error) {
			t.Error("waiter started a second computation")
			return 0, nil
		})
		waiterDone <- res{v, err}
	}()

	// Give the waiter a moment to attach, then cancel the leader. The
	// computation context must stay alive because the waiter still wants
	// the result.
	for i := 0; ; i++ {
		r.mu.Lock()
		n := r.slots[string(st.Kind)+"/"+string(key)].waiters
		r.mu.Unlock()
		if n == 2 {
			break
		}
		if i > 1000 {
			t.Fatal("second caller never attached to the in-flight slot")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}

	close(release)
	wg.Wait()
	got := <-waiterDone
	if got.err != nil || got.v != 7 {
		t.Fatalf("waiter = %d, %v; want 7, nil", got.v, got.err)
	}
}

// TestRunCtxCancelledComputeNotPersisted attaches a store and asserts a
// computation aborted by cancellation writes no artifact.
func TestRunCtxCancelledComputeNotPersisted(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store)
	key := testKey("no-artifact")
	st := intStage(StageSolve)

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := RunCtx(ctx, r, st, key, func(cctx context.Context) (int, error) {
			close(started)
			<-cctx.Done()
			return 0, cctx.Err()
		})
		done <- err
	}()
	<-started
	cancel()
	<-done

	if _, ok, err := store.Get(st.Kind, key, FormatJSON); err != nil || ok {
		t.Fatalf("aborted computation left an artifact (ok=%v err=%v)", ok, err)
	}
}
