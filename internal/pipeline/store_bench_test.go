package pipeline_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ctdvs/internal/pipeline"
	"ctdvs/internal/schedfile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// storeBenchScale is the workload scale of the scenario matrix, the reduced
// scale the root experiment benchmarks run at.
const storeBenchScale = 0.1

// storeBenchRecord is the schema of BENCH_store.json. The allocs_per_op /
// allocs_ceiling and speedup / speedup_floor field pairs are benchcheck's
// conventions (see internal/tools/benchcheck): the measured value is gated
// against the committed claim on every CI run.
type storeBenchRecord struct {
	Experiment   string  `json:"experiment"`
	Scale        float64 `json:"scale"`
	Workloads    int     `json:"workloads"`
	Deadlines    int     `json:"deadlines"`
	Capacitances int     `json:"capacitances"`
	Cells        int     `json:"cells"`
	// Warm matrix reads: Store.Get plus recording decode, one cell per op,
	// cycling the whole workload × deadline × capacitance matrix.
	BinNsOp       float64 `json:"binary_warm_read_ns_per_op"`
	BinBytesOp    float64 `json:"binary_warm_read_bytes_per_op"`
	BinAllocsOp   float64 `json:"binary_warm_read_allocs_per_op"`
	BinAllocsCeil float64 `json:"binary_warm_read_allocs_ceiling"`
	JSONNsOp      float64 `json:"json_warm_read_ns_per_op"`
	JSONBytesOp   float64 `json:"json_warm_read_bytes_per_op"`
	JSONAllocsOp  float64 `json:"json_warm_read_allocs_per_op"`
	Speedup       float64 `json:"speedup_binary_vs_json"`
	SpeedupFloor  float64 `json:"speedup_binary_vs_json_floor"`
	// Zero-copy mapped reads over the identical cells: Store.ReadMapped hands
	// the decoder a page-cache-backed mapping, borrow-mode decode aliases the
	// trace and bitstream words in place instead of copying them, Release
	// unmaps. Gated against the copying binary path above.
	MmapNsOp         float64 `json:"mmap_read_ns_per_op"`
	MmapBytesOp      float64 `json:"mmap_read_bytes_per_op"`
	MmapAllocsOp     float64 `json:"mmap_read_allocs_per_op"`
	MmapAllocsCeil   float64 `json:"mmap_read_allocs_ceiling"`
	MmapSpeedup      float64 `json:"speedup_mmap_vs_copy"`
	MmapSpeedupFloor float64 `json:"speedup_mmap_vs_copy_floor"`
	// Full warm cell path, read through replay: the legacy shape (JSON read,
	// then sparse count maps derived per replayed result, the seed's hot
	// path) against the lean shape (binary read, pooled dense replay).
	LegacyPathNsOp     float64 `json:"legacy_path_ns_per_op"`
	LegacyPathAllocsOp float64 `json:"legacy_path_allocs_per_op"`
	LeanPathNsOp       float64 `json:"lean_path_ns_per_op"`
	LeanPathAllocsOp   float64 `json:"lean_path_allocs_per_op"`
	AllocsRatio        float64 `json:"allocs_speedup_legacy_vs_lean"`
	AllocsRatioFloor   float64 `json:"allocs_speedup_legacy_vs_lean_floor"`
	// Replay of one bound gsm/encode recording across the 7-level mode set
	// (the pooled-scratch path every warm sweep takes after a store read).
	ReplayNsOp       float64 `json:"replay_ns_per_op"`
	ReplayAllocsOp   float64 `json:"replay_allocs_per_op"`
	ReplayAllocsCeil float64 `json:"replay_allocs_ceiling"`
	// The same 7-mode replay over a borrow-decoded recording whose trace still
	// lives in the mapping: zero-copy reads must not trade their savings for
	// replay-time allocations, so the mapped replay shares the copying
	// ceiling.
	MappedReplayNsOp       float64 `json:"mapped_replay_ns_per_op"`
	MappedReplayAllocsOp   float64 `json:"mapped_replay_allocs_per_op"`
	MappedReplayAllocsCeil float64 `json:"mapped_replay_allocs_ceiling"`
	// Put cost, plain vs coalesced (final Flush included). The batcher pays
	// per-batch shard fsyncs the plain path skips entirely, so these are cost
	// observations for the record, deliberately not a gated speedup.
	PlainPutNsOp   float64 `json:"put_ns_per_op"`
	BatchedPutNsOp float64 `json:"batched_put_ns_per_op"`
	BitIdentical   bool    `json:"bit_identical"`
}

// The committed perf claims of BENCH_store.json (benchcheck enforces them):
// binary warm reads beat JSON by ≥1.3x wall time, the lean read+replay path
// allocates ≥5x less than the legacy (JSON + sparse count maps) shape,
// binary decode stays under a fixed allocation budget per artifact, and
// replaying a recording across a whole mode set allocates only its escaping
// results.
const (
	storeBenchSpeedupFloor     = 1.3
	storeBenchAllocsRatioFloor = 5.0
	storeBenchBinAllocsCeil    = 64
	storeBenchReplayAllocsCeil = 16
	// Mapped reads beat copying binary reads by ≥1.3x: no read(2) of the
	// payload, no decode-time copies of the word runs, and most trace pages
	// are never even faulted until a replay touches them.
	storeBenchMmapSpeedupFloor = 1.3
	// A mapped read allocates only decoder scaffolding (reader, recording,
	// identity strings) — never payload-sized buffers.
	storeBenchMmapAllocsCeil = 32
)

// BenchmarkStoreScenarioMatrix measures the artifact store on a fleet-scale
// shape: a generated scenario matrix of workload × deadline × capacitance
// cells (every paper workload, hundreds of cells) is written to two stores —
// one binary, one JSON — and the timed loop is the warm read+decode
// of matrix cells from the binary store. The JSON store is measured inline on
// the identical cells, decodes are checked value-identical across formats,
// replay allocations are measured on a decoded recording, and the record
// lands in BENCH_store.json.
func BenchmarkStoreScenarioMatrix(b *testing.B) {
	const (
		nDeadlines = 8
		nCaps      = 6
	)
	specs := workloads.All(storeBenchScale)
	simCfg := sim.DefaultConfig()
	m := sim.MustNew(simCfg)
	mode := volt.XScale3().Mode(2)
	replayModes, err := volt.Levels(7)
	if err != nil {
		b.Fatal(err)
	}

	// One recording per workload; every (deadline, capacitance) cell of that
	// workload stores the same payload under its own content address, which
	// is exactly the sharing a real sweep's recording stage exhibits.
	type workloadArt struct{ jdata, bdata []byte }
	arts := make([]workloadArt, len(specs))
	for w, spec := range specs {
		rec, _, err := m.Record(spec.Program, spec.Inputs[0], mode)
		if err != nil {
			b.Fatal(err)
		}
		jdata, err := schedfile.EncodeRecording(rec)
		if err != nil {
			b.Fatal(err)
		}
		bdata, err := schedfile.EncodeRecordingBinary(rec)
		if err != nil {
			b.Fatal(err)
		}
		fromJSON, err := schedfile.DecodeRecording(jdata, spec.Program, spec.Inputs[0], simCfg)
		if err != nil {
			b.Fatal(err)
		}
		fromBin, err := schedfile.DecodeRecordingBinary(bdata, spec.Program, spec.Inputs[0], simCfg)
		if err != nil {
			b.Fatal(err)
		}
		if !reflect.DeepEqual(fromJSON, fromBin) {
			b.Fatalf("%s: binary and JSON recording decodes disagree", spec.Name)
		}
		fromMapped, err := schedfile.DecodeRecordingBinaryMapped(bdata, spec.Program, spec.Inputs[0], simCfg)
		if err != nil {
			b.Fatal(err)
		}
		if !reflect.DeepEqual(fromBin, fromMapped) {
			b.Fatalf("%s: borrow-mode and copying binary decodes disagree", spec.Name)
		}
		arts[w] = workloadArt{jdata: jdata, bdata: bdata}
	}

	binDir, err := os.MkdirTemp("", "ctdvs-store-bench-bin")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(binDir)
	jsonDir, err := os.MkdirTemp("", "ctdvs-store-bench-json")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(jsonDir)
	binStore, err := pipeline.Open(binDir)
	if err != nil {
		b.Fatal(err)
	}
	jsonStore, err := pipeline.Open(jsonDir)
	if err != nil {
		b.Fatal(err)
	}

	// The matrix: deadline-major so consecutive cells cycle workloads.
	type cell struct {
		key pipeline.Key
		w   int
	}
	cells := make([]cell, 0, nDeadlines*nCaps*len(specs))
	for d := 0; d < nDeadlines; d++ {
		for c := 0; c < nCaps; c++ {
			dl := 1000 * float64(d+1)
			capF := 1e-5 * float64(c+1)
			for w, spec := range specs {
				key := pipeline.NewKey(pipeline.StageRecording).
					Str("bench", spec.Name).
					Str("input", spec.Inputs[0].Name).
					Float("deadline_us", dl).
					Float("capacitance_f", capF).
					Sum()
				if err := binStore.Put(pipeline.StageRecording, key, arts[w].bdata, pipeline.FormatBinary); err != nil {
					b.Fatal(err)
				}
				if err := jsonStore.Put(pipeline.StageRecording, key, arts[w].jdata, pipeline.FormatJSON); err != nil {
					b.Fatal(err)
				}
				cells = append(cells, cell{key: key, w: w})
			}
		}
	}

	// readCell is one warm op: store read plus format-routed decode.
	readCell := func(tb *testing.B, store *pipeline.Store, format pipeline.Format, i int) *sim.Recording {
		c := cells[i%len(cells)]
		spec := specs[c.w]
		data, ok, err := store.Get(pipeline.StageRecording, c.key, format)
		if err != nil || !ok {
			tb.Fatalf("cell %d: ok=%v err=%v", i, ok, err)
		}
		var rec *sim.Recording
		if format == pipeline.FormatBinary {
			rec, err = schedfile.DecodeRecordingBinary(data, spec.Program, spec.Inputs[0], simCfg)
		} else {
			rec, err = schedfile.DecodeRecording(data, spec.Program, spec.Inputs[0], simCfg)
		}
		if err != nil {
			tb.Fatal(err)
		}
		return rec
	}

	// readCellMapped is the zero-copy variant of one warm op: mmap the
	// artifact, decode it in borrow mode (aliasing the mapping), unmap. The
	// decoded recording dies with the mapping, exactly the shape of a warm
	// read that turns out to be a cache hit nobody replays.
	readCellMapped := func(tb *testing.B, i int) {
		c := cells[i%len(cells)]
		spec := specs[c.w]
		m, ok, err := binStore.ReadMapped(pipeline.StageRecording, c.key, pipeline.FormatBinary)
		if err != nil || !ok {
			tb.Fatalf("cell %d: mapped read ok=%v err=%v", i, ok, err)
		}
		if _, err := schedfile.DecodeRecordingBinaryMapped(m.Bytes(), spec.Program, spec.Inputs[0], simCfg); err != nil {
			tb.Fatal(err)
		}
		if err := m.Release(); err != nil {
			tb.Fatal(err)
		}
	}

	// measure times a fixed-iteration loop and reads allocation deltas from
	// runtime.MemStats (testing.Benchmark cannot run inside a benchmark — it
	// would deadlock on the global benchmark lock). Each caller warms the
	// path first so the numbers are steady-state.
	type opStats struct{ nsOp, bytesOp, allocsOp float64 }
	measure := func(iters int, fn func(i int)) opStats {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		n := float64(iters)
		return opStats{
			nsOp:     float64(elapsed.Nanoseconds()) / n,
			bytesOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
			allocsOp: float64(m1.Mallocs-m0.Mallocs) / n,
		}
	}

	// Inline measurements: the JSON baseline over the identical cells, the
	// binary path's allocation profile, and the post-read replay path (one
	// gsm/encode recording, bound once, replayed across all 7 modes per op).
	matrixIters := 2 * len(cells)
	for i := 0; i < len(cells); i++ {
		readCell(b, jsonStore, pipeline.FormatJSON, i) // warm-up
	}
	jsonRes := measure(matrixIters, func(i int) { readCell(b, jsonStore, pipeline.FormatJSON, i) })
	for i := 0; i < len(cells); i++ {
		readCell(b, binStore, pipeline.FormatBinary, i)
	}
	binRes := measure(matrixIters, func(i int) { readCell(b, binStore, pipeline.FormatBinary, i) })
	for i := 0; i < len(cells); i++ {
		readCellMapped(b, i)
	}
	mmapRes := measure(matrixIters, func(i int) { readCellMapped(b, i) })

	var gsmIdx int
	for w, spec := range specs {
		if spec.Name == "gsm/encode" {
			gsmIdx = w
		}
	}
	replayRec := readCell(b, binStore, pipeline.FormatBinary, gsmIdx)
	if err := replayRec.Bind(specs[gsmIdx].Program); err != nil {
		b.Fatal(err)
	}
	modes := replayModes.Modes()
	replay := func(int) {
		if _, err := replayRec.ReplayAll(modes); err != nil {
			b.Fatal(err)
		}
	}
	replay(0) // warm-up (layout cache, scratch pool)
	replayRes := measure(200, replay)

	// The same replay over a live mapping: borrow-mode decode, then 7-mode
	// replays whose trace reads fault straight into the page cache. Results
	// must be bit-identical to the copying recording's replays.
	gsmCell := cells[gsmIdx]
	gsmSpec := specs[gsmCell.w]
	mapping, ok, err := binStore.ReadMapped(pipeline.StageRecording, gsmCell.key, pipeline.FormatBinary)
	if err != nil || !ok {
		b.Fatalf("mapped replay read: ok=%v err=%v", ok, err)
	}
	defer mapping.Release()
	mappedRec, err := schedfile.DecodeRecordingBinaryMapped(mapping.Bytes(), gsmSpec.Program, gsmSpec.Inputs[0], simCfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := mappedRec.Bind(gsmSpec.Program); err != nil {
		b.Fatal(err)
	}
	wantReplay, err := replayRec.ReplayAll(modes)
	if err != nil {
		b.Fatal(err)
	}
	gotReplay, err := mappedRec.ReplayAll(modes) // doubles as warm-up
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(wantReplay, gotReplay) {
		b.Fatal("replay over the mapped recording differs from the copying path")
	}
	mappedReplayRes := measure(200, func(int) {
		if _, err := mappedRec.ReplayAll(modes); err != nil {
			b.Fatal(err)
		}
	})

	// Put cost, plain vs coalesced: fresh stores, unique keys, the workload-0
	// binary payload. The batched pass ends with a Flush so every shard fsync
	// its batches pay is inside the measurement.
	const nPuts = 256
	putPayload := arts[0].bdata
	putKey := func(tag string, i int) pipeline.Key {
		return pipeline.NewKey(pipeline.StageRecording).Str("put", fmt.Sprintf("%s-%d", tag, i)).Sum()
	}
	mkPutStore := func(batched bool) (*pipeline.Store, func()) {
		dir, err := os.MkdirTemp("", "ctdvs-store-bench-put")
		if err != nil {
			b.Fatal(err)
		}
		st, err := pipeline.Open(dir)
		if err != nil {
			os.RemoveAll(dir)
			b.Fatal(err)
		}
		if batched {
			st.EnableWriteBatching(pipeline.BatchConfig{})
		}
		return st, func() { os.RemoveAll(dir) }
	}
	plainStore, cleanPlain := mkPutStore(false)
	defer cleanPlain()
	plainPutRes := measure(nPuts, func(i int) {
		if err := plainStore.Put(pipeline.StageRecording, putKey("plain", i), putPayload, pipeline.FormatBinary); err != nil {
			b.Fatal(err)
		}
	})
	batchStore, cleanBatch := mkPutStore(true)
	defer cleanBatch()
	batchPutRes := measure(nPuts, func(i int) {
		if err := batchStore.Put(pipeline.StageRecording, putKey("batch", i), putPayload, pipeline.FormatBinary); err != nil {
			b.Fatal(err)
		}
		if i == nPuts-1 {
			if err := batchStore.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Full warm cell path, read through replay. The legacy shape is what the
	// warm path cost before dense counts and the binary codec: a JSON store
	// read, then sparse edge/path count maps derived for every replayed
	// result (Result.CountMaps, now the maps' only source). The lean shape
	// is the current hot path: binary read, pooled dense replay.
	leanOp := func(i int) {
		rec := readCell(b, binStore, pipeline.FormatBinary, i)
		spec := specs[cells[i%len(cells)].w]
		if err := rec.Bind(spec.Program); err != nil {
			b.Fatal(err)
		}
		if _, err := rec.ReplayAll(modes); err != nil {
			b.Fatal(err)
		}
	}
	legacyOp := func(i int) {
		rec := readCell(b, jsonStore, pipeline.FormatJSON, i)
		spec := specs[cells[i%len(cells)].w]
		if err := rec.Bind(spec.Program); err != nil {
			b.Fatal(err)
		}
		results, err := rec.ReplayAll(modes)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if _, _, err := res.CountMaps(spec.Program); err != nil {
				b.Fatal(err)
			}
		}
	}
	leanOp(0)
	leanRes := measure(len(cells), leanOp)
	legacyOp(0)
	legacyRes := measure(len(cells), legacyOp)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readCell(b, binStore, pipeline.FormatBinary, i)
	}
	b.StopTimer()
	binNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)

	rec := storeBenchRecord{
		Experiment:         "scenario-matrix",
		Scale:              storeBenchScale,
		Workloads:          len(specs),
		Deadlines:          nDeadlines,
		Capacitances:       nCaps,
		Cells:              len(cells),
		BinNsOp:            binNs,
		BinBytesOp:         binRes.bytesOp,
		BinAllocsOp:        binRes.allocsOp,
		BinAllocsCeil:      storeBenchBinAllocsCeil,
		JSONNsOp:           jsonRes.nsOp,
		JSONBytesOp:        jsonRes.bytesOp,
		JSONAllocsOp:       jsonRes.allocsOp,
		Speedup:            jsonRes.nsOp / binNs,
		SpeedupFloor:       storeBenchSpeedupFloor,
		MmapNsOp:           mmapRes.nsOp,
		MmapBytesOp:        mmapRes.bytesOp,
		MmapAllocsOp:       mmapRes.allocsOp,
		MmapAllocsCeil:     storeBenchMmapAllocsCeil,
		MmapSpeedup:        binRes.nsOp / mmapRes.nsOp,
		MmapSpeedupFloor:   storeBenchMmapSpeedupFloor,
		LegacyPathNsOp:     legacyRes.nsOp,
		LegacyPathAllocsOp: legacyRes.allocsOp,
		LeanPathNsOp:       leanRes.nsOp,
		LeanPathAllocsOp:   leanRes.allocsOp,
		AllocsRatio:        legacyRes.allocsOp / leanRes.allocsOp,
		AllocsRatioFloor:   storeBenchAllocsRatioFloor,
		ReplayNsOp:         replayRes.nsOp,
		ReplayAllocsOp:     replayRes.allocsOp,
		ReplayAllocsCeil:   storeBenchReplayAllocsCeil,

		MappedReplayNsOp:       mappedReplayRes.nsOp,
		MappedReplayAllocsOp:   mappedReplayRes.allocsOp,
		MappedReplayAllocsCeil: storeBenchReplayAllocsCeil,
		PlainPutNsOp:           plainPutRes.nsOp,
		BatchedPutNsOp:         batchPutRes.nsOp,
		BitIdentical:           true,
	}
	b.ReportMetric(rec.Speedup, "speedup-binary-vs-json")
	b.ReportMetric(rec.MmapSpeedup, "speedup-mmap-vs-copy")
	b.ReportMetric(rec.AllocsRatio, "allocs-speedup-legacy-vs-lean")
	b.ReportMetric(rec.ReplayAllocsOp, "replay-allocs/op")
	b.ReportMetric(rec.MappedReplayAllocsOp, "mapped-replay-allocs/op")
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_store.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
