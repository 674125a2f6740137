package pipeline_test

import (
	"reflect"
	"testing"
	"time"

	"ctdvs/internal/pipeline"
	"ctdvs/internal/schedfile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// storeBenchScale is the workload scale of the scenario matrix, perfbench's
// scale.
const storeBenchScale = 0.1

// scenarioMatrix is a generated workload × deadline × capacitance matrix of
// recording artifacts over every paper workload, written to a binary store
// and to a JSON store. Every cell of a workload stores that workload's one
// recording under its own content address, which is exactly the sharing a
// real sweep's recording stage exhibits.
type scenarioMatrix struct {
	specs  []*workloads.Spec
	simCfg sim.Config
	// cells are deadline-major, so consecutive cells cycle the workloads.
	cells     []matrixCell
	bin, json *pipeline.Store
}

type matrixCell struct {
	key pipeline.Key
	w   int // index into specs
}

// newScenarioMatrix records every workload once at a mid mode, checks that
// the JSON, binary and borrow-mode binary decodes agree, and fills both
// stores with nDeadlines × nCaps cells per workload.
func newScenarioMatrix(tb testing.TB, nDeadlines, nCaps int) *scenarioMatrix {
	tb.Helper()
	mx := &scenarioMatrix{specs: workloads.All(storeBenchScale), simCfg: sim.DefaultConfig()}
	m := sim.MustNew(mx.simCfg)
	mode := volt.XScale3().Mode(2)
	jdata := make([][]byte, len(mx.specs))
	bdata := make([][]byte, len(mx.specs))
	for w, spec := range mx.specs {
		rec, _, err := m.Record(spec.Program, spec.Inputs[0], mode)
		if err != nil {
			tb.Fatal(err)
		}
		if jdata[w], err = schedfile.EncodeRecording(rec); err != nil {
			tb.Fatal(err)
		}
		if bdata[w], err = schedfile.EncodeRecordingBinary(rec); err != nil {
			tb.Fatal(err)
		}
		fromJSON, err := schedfile.DecodeRecording(jdata[w], spec.Program, spec.Inputs[0], mx.simCfg)
		if err != nil {
			tb.Fatal(err)
		}
		fromBin, err := schedfile.DecodeRecordingBinary(bdata[w], spec.Program, spec.Inputs[0], mx.simCfg)
		if err != nil {
			tb.Fatal(err)
		}
		fromMapped, err := schedfile.DecodeRecordingBinaryMapped(bdata[w], spec.Program, spec.Inputs[0], mx.simCfg)
		if err != nil {
			tb.Fatal(err)
		}
		if !reflect.DeepEqual(fromJSON, fromBin) || !reflect.DeepEqual(fromBin, fromMapped) {
			tb.Fatalf("%s: JSON, binary and borrow-mode recording decodes disagree", spec.Name)
		}
	}

	var err error
	if mx.bin, err = pipeline.Open(tb.TempDir()); err != nil {
		tb.Fatal(err)
	}
	if mx.json, err = pipeline.Open(tb.TempDir()); err != nil {
		tb.Fatal(err)
	}
	for d := 0; d < nDeadlines; d++ {
		for c := 0; c < nCaps; c++ {
			for w, spec := range mx.specs {
				key := pipeline.NewKey(pipeline.StageRecording).
					Str("bench", spec.Name).
					Str("input", spec.Inputs[0].Name).
					Float("deadline_us", 1000*float64(d+1)).
					Float("capacitance_f", 1e-5*float64(c+1)).
					Sum()
				if err := mx.bin.Put(pipeline.StageRecording, key, bdata[w], pipeline.FormatBinary); err != nil {
					tb.Fatal(err)
				}
				if err := mx.json.Put(pipeline.StageRecording, key, jdata[w], pipeline.FormatJSON); err != nil {
					tb.Fatal(err)
				}
				mx.cells = append(mx.cells, matrixCell{key: key, w: w})
			}
		}
	}
	return mx
}

// read is one warm op: a store read of cell i (modulo the matrix) plus the
// decode for its format.
func (mx *scenarioMatrix) read(tb testing.TB, format pipeline.Format, i int) (*sim.Recording, *workloads.Spec) {
	c := mx.cells[i%len(mx.cells)]
	spec := mx.specs[c.w]
	store := mx.bin
	if format == pipeline.FormatJSON {
		store = mx.json
	}
	data, ok, err := store.Get(pipeline.StageRecording, c.key, format)
	if err != nil || !ok {
		tb.Fatalf("cell %d: ok=%v err=%v", i, ok, err)
	}
	var rec *sim.Recording
	if format == pipeline.FormatBinary {
		rec, err = schedfile.DecodeRecordingBinary(data, spec.Program, spec.Inputs[0], mx.simCfg)
	} else {
		rec, err = schedfile.DecodeRecording(data, spec.Program, spec.Inputs[0], mx.simCfg)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return rec, spec
}

// readMapped is the zero-copy variant of one warm op: map cell i's binary
// artifact, decode it in borrow mode (aliasing the mapping) and hand both
// back; the recording is valid until the mapping is released.
func (mx *scenarioMatrix) readMapped(tb testing.TB, i int) (*sim.Recording, *workloads.Spec, *pipeline.Mapping) {
	c := mx.cells[i%len(mx.cells)]
	spec := mx.specs[c.w]
	m, ok, err := mx.bin.ReadMapped(pipeline.StageRecording, c.key, pipeline.FormatBinary)
	if err != nil || !ok {
		tb.Fatalf("cell %d: mapped read ok=%v err=%v", i, ok, err)
	}
	rec, err := schedfile.DecodeRecordingBinaryMapped(m.Bytes(), spec.Program, spec.Inputs[0], mx.simCfg)
	if err != nil {
		tb.Fatal(err)
	}
	return rec, spec, m
}

// The wall-clock floors of the scenario matrix: binary warm reads beat JSON
// reads, and mapped reads beat copying binary reads (no read(2) of the
// payload, no decode-time copies of the word runs, and most trace pages are
// never faulted until a replay touches them), each by at least 1.3×.
const (
	storeBenchSpeedupFloor     = 1.3
	storeBenchMmapSpeedupFloor = 1.3
)

// BenchmarkStoreScenarioMatrix measures warm artifact reads on a
// fleet-scale shape: every paper workload × 8 deadlines × 6 capacitances,
// 288 cells. The timed loop is the read+decode of matrix cells from the
// binary store; JSON reads, copying binary reads and zero-copy mapped
// reads of the identical cells are measured inline, and the benchmark
// fails when binary reads are not 1.3× faster than JSON reads or, where the
// platform has mmap, mapped reads not 1.3× faster than copying ones.
func BenchmarkStoreScenarioMatrix(b *testing.B) {
	mx := newScenarioMatrix(b, 8, 6)
	n := len(mx.cells)
	// meanNs warms a path over the whole matrix, then returns its mean
	// wall nanoseconds per cell over two passes.
	meanNs := func(fn func(i int)) float64 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		start := time.Now()
		for i := 0; i < 2*n; i++ {
			fn(i)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(2*n)
	}
	jsonNs := meanNs(func(i int) { mx.read(b, pipeline.FormatJSON, i) })
	copyNs := meanNs(func(i int) { mx.read(b, pipeline.FormatBinary, i) })
	mapped := true
	mmapNs := meanNs(func(i int) {
		_, _, m := mx.readMapped(b, i)
		mapped = mapped && m.Mapped()
		if err := m.Release(); err != nil {
			b.Fatal(err)
		}
	})

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mx.read(b, pipeline.FormatBinary, i)
	}
	b.StopTimer()
	binNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)

	speedup := jsonNs / binNs
	mmapSpeedup := copyNs / mmapNs
	b.ReportMetric(speedup, "speedup-binary-vs-json")
	b.ReportMetric(mmapSpeedup, "speedup-mmap-vs-copy")
	if speedup < storeBenchSpeedupFloor {
		b.Fatalf("binary warm read %.0f ns vs JSON %.0f ns: speedup %.3f < %v", binNs, jsonNs, speedup, storeBenchSpeedupFloor)
	}
	if mapped && mmapSpeedup < storeBenchMmapSpeedupFloor {
		b.Fatalf("mapped read %.0f ns vs copying read %.0f ns: speedup %.3f < %v", mmapNs, copyNs, mmapSpeedup, storeBenchMmapSpeedupFloor)
	}
}
