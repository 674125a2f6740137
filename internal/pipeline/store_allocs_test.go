package pipeline_test

import (
	"testing"

	"ctdvs/internal/pipeline"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
)

// The allocation claims of the warm read path. Binary decode stays under a
// fixed budget per artifact; a mapped read allocates only decoder
// scaffolding (reader, recording, identity strings), never payload-sized
// buffers; replaying a recording across a whole mode set allocates only its
// escaping results, whether the recording was copied or still lives in a
// mapping; and the lean warm cell path (binary read, pooled dense replay)
// allocates at least 5× less than the legacy shape (JSON read, then sparse
// edge/path count maps derived for every replayed result).
const (
	binReadAllocsCeil    = 64
	mappedReadAllocsCeil = 32
	replayAllocsCeil     = 16
	leanPathAllocsFloor  = 5.0
)

// allocsPerOp is the mean allocation count of op over one pass of the
// matrix: testing.AllocsPerRun times whole passes, so its rounding down to
// a whole count is spread over every cell of the pass.
func allocsPerOp(mx *scenarioMatrix, op func(i int)) float64 {
	n := len(mx.cells)
	return testing.AllocsPerRun(2, func() {
		for i := 0; i < n; i++ {
			op(i)
		}
	}) / float64(n)
}

// skipUnlessMapped skips the test where the platform reads artifacts by
// copying instead of mapping them.
func skipUnlessMapped(t *testing.T, mx *scenarioMatrix) {
	t.Helper()
	_, _, m := mx.readMapped(t, 0)
	mapped := m.Mapped()
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
	if !mapped {
		t.Skip("no mmap on this platform: mapped reads copy")
	}
}

// TestWarmReadAllocs holds a warm recording read (store read plus decode,
// cycling every workload) to its allocation ceilings: copying binary reads
// and zero-copy mapped reads.
func TestWarmReadAllocs(t *testing.T) {
	mx := newScenarioMatrix(t, 2, 2)
	got := allocsPerOp(mx, func(i int) { mx.read(t, pipeline.FormatBinary, i) })
	t.Logf("binary warm read: %.2f allocs/op", got)
	if got > binReadAllocsCeil {
		t.Errorf("binary warm read: %.2f allocs/op, ceiling %d", got, binReadAllocsCeil)
	}
	skipUnlessMapped(t, mx)
	got = allocsPerOp(mx, func(i int) {
		_, _, m := mx.readMapped(t, i)
		if err := m.Release(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("mapped read: %.2f allocs/op", got)
	if got > mappedReadAllocsCeil {
		t.Errorf("mapped read: %.2f allocs/op, ceiling %d", got, mappedReadAllocsCeil)
	}
}

// replayAllocs binds rec to its program and returns the mean allocations of
// one 7-level ReplayAll after a warm-up (layout cache, scratch pool).
func replayAllocs(t *testing.T, mx *scenarioMatrix, rec *sim.Recording, cell int) float64 {
	t.Helper()
	if err := rec.Bind(mx.specs[mx.cells[cell].w].Program); err != nil {
		t.Fatal(err)
	}
	modes := sevenModes(t)
	const batch = 8
	return testing.AllocsPerRun(2, func() {
		for i := 0; i < batch; i++ {
			if _, err := rec.ReplayAll(modes); err != nil {
				t.Fatal(err)
			}
		}
	}) / batch
}

// sevenModes is the 7-level mode set every replay in these tests runs at.
func sevenModes(t *testing.T) []volt.Mode {
	t.Helper()
	ms, err := volt.Levels(7)
	if err != nil {
		t.Fatal(err)
	}
	return ms.Modes()
}

// TestReplayAllocs holds a 7-level replay of one gsm/encode recording to
// its allocation ceiling, for a copied recording and for a borrow-decoded
// one whose trace still lives in the mapping.
func TestReplayAllocs(t *testing.T) {
	mx := newScenarioMatrix(t, 1, 1)
	gsm := -1
	for i, c := range mx.cells {
		if mx.specs[c.w].Name == "gsm/encode" {
			gsm = i
		}
	}
	if gsm < 0 {
		t.Fatal("no gsm/encode cell in the matrix")
	}
	rec, _ := mx.read(t, pipeline.FormatBinary, gsm)
	got := replayAllocs(t, mx, rec, gsm)
	t.Logf("replay: %.2f allocs/op", got)
	if got > replayAllocsCeil {
		t.Errorf("replay: %.2f allocs/op, ceiling %d", got, replayAllocsCeil)
	}
	skipUnlessMapped(t, mx)
	mapped, _, m := mx.readMapped(t, gsm)
	defer m.Release()
	got = replayAllocs(t, mx, mapped, gsm)
	t.Logf("mapped replay: %.2f allocs/op", got)
	if got > replayAllocsCeil {
		t.Errorf("mapped replay: %.2f allocs/op, ceiling %d", got, replayAllocsCeil)
	}
}

// TestLeanWarmPathAllocs compares the full warm cell path, read through a
// 7-level replay, in its lean and legacy shapes.
func TestLeanWarmPathAllocs(t *testing.T) {
	mx := newScenarioMatrix(t, 1, 1)
	modes := sevenModes(t)
	replay := func(format pipeline.Format, i int) []*sim.Result {
		rec, spec := mx.read(t, format, i)
		if err := rec.Bind(spec.Program); err != nil {
			t.Fatal(err)
		}
		results, err := rec.ReplayAll(modes)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	lean := allocsPerOp(mx, func(i int) { replay(pipeline.FormatBinary, i) })
	legacy := allocsPerOp(mx, func(i int) {
		spec := mx.specs[mx.cells[i%len(mx.cells)].w]
		for _, res := range replay(pipeline.FormatJSON, i) {
			if _, _, err := res.CountMaps(spec.Program); err != nil {
				t.Fatal(err)
			}
		}
	})
	ratio := legacy / lean
	t.Logf("legacy/lean warm path: %.1f/%.1f allocs/op = %.2f", legacy, lean, ratio)
	if ratio < leanPathAllocsFloor {
		t.Errorf("legacy/lean warm path allocations %.1f/%.1f = %.2f, want ≥ %v", legacy, lean, ratio, leanPathAllocsFloor)
	}
}
