// This test lives in sim_test (not sim) because it closes the loop across
// packages: a recording written through the artifact store, read back as an
// mmap'd zero-copy mapping and decoded in borrow mode must replay every mode
// bit-identically to the in-memory recording. This is the end-to-end property
// the warm fleet-sweep path rides on.
package sim_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ctdvs/internal/ir"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/schedfile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
)

func mappedReplayFixture(t *testing.T) (*ir.Program, ir.Input, sim.Config, *sim.Recording) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	b := ir.NewBuilder("mapped-replay")
	s := b.SequentialStream(32 << 10)
	r := b.RandomStream(64 << 10)
	head := b.Block("head")
	body := b.Block("body")
	tail := b.Block("tail")
	head.Compute(9).Load(s)
	b.LoopBranch(head, head, body, 50)
	body.Load(r).DependentCompute(4).Store(s)
	b.ProbBranch(body, head, tail, 0.3)
	tail.Compute(2)
	tail.Exit()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	in := ir.Input{Name: "in", Seed: rng.Int63()}
	mc := sim.DefaultConfig()
	rec, _, err := sim.MustNew(mc).Record(p, in, volt.XScale3().Max())
	if err != nil {
		t.Fatal(err)
	}
	return p, in, mc, rec
}

// TestReplayOverMappedRecording: store → mmap → borrow-mode decode → replay,
// asserted bit-identical against the copying decode path's replay and safe
// under concurrent replays of one shared mapped recording.
func TestReplayOverMappedRecording(t *testing.T) {
	p, in, mc, rec := mappedReplayFixture(t)
	modes := volt.XScale3().Modes()
	want, err := rec.ReplayAll(modes)
	if err != nil {
		t.Fatal(err)
	}

	store, err := pipeline.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data, err := schedfile.EncodeRecordingBinary(rec)
	if err != nil {
		t.Fatal(err)
	}
	key := pipeline.NewKey(pipeline.StageRecording).Str("prog", p.Name).Sum()
	if err := store.Put(pipeline.StageRecording, key, data, pipeline.FormatBinary); err != nil {
		t.Fatal(err)
	}

	m, ok, err := store.ReadMapped(pipeline.StageRecording, key, pipeline.FormatBinary)
	if err != nil || !ok {
		t.Fatalf("read mapped: ok=%v err=%v", ok, err)
	}
	defer m.Release()
	mappedRec, err := schedfile.DecodeRecordingBinaryMapped(m.Bytes(), p, in, mc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, mappedRec) {
		t.Fatal("mapped decode differs from the original recording")
	}

	got, err := mappedRec.ReplayAll(modes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("replay over the mapped recording differs from the in-memory replay")
	}

	// Concurrent replays share the one mapped recording: replay is read-only
	// over the borrowed trace and bitstream words, so this must be race-free
	// and every goroutine must see identical results (run under -race in CI).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := mappedRec.ReplayAll(modes)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(want, r) {
				t.Error("concurrent mapped replay differs")
			}
		}()
	}
	wg.Wait()

	// Per-mode replays agree too.
	for i, md := range modes {
		res, err := mappedRec.Replay(md)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want[i], res) {
			t.Fatalf("mode %v: mapped single replay differs", md)
		}
	}
}
