package sim

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// simBenchRecord is the schema of BENCH_sim.json.
type simBenchRecord struct {
	Benchmark         string  `json:"benchmark"`
	Scale             float64 `json:"scale"`
	ReferenceRunNs    float64 `json:"reference_run_ns_per_op"`
	CompiledRunNs     float64 `json:"compiled_run_ns_per_op"`
	RunSpeedup        float64 `json:"speedup_compiled_vs_reference_run"`
	ReferenceRecordNs float64 `json:"reference_record_ns_per_op"`
	CompiledRecordNs  float64 `json:"compiled_record_ns_per_op"`
	RecordSpeedup     float64 `json:"speedup_compiled_vs_reference_record"`
	BitIdentical      bool    `json:"bit_identical"`
}

// BenchmarkSimCompiledKernel measures what compiling blocks to static cost
// tables buys on a full-scale workload: Machine.Run and Machine.Record on
// mpeg/decode at scale 1.0, compiled kernel vs the reference interpreter
// (refMachine). Results and recordings are checked bit-identical before any
// timing is trusted; the timed loop is the compiled Run, the other three
// phases are measured inline, and the record lands in the module root's
// BENCH_sim.json.
func BenchmarkSimCompiledKernel(b *testing.B) {
	spec := workloads.MpegDecode(1.0)
	in := spec.Inputs[0]
	mode := volt.XScale3().Mode(2)
	comp := MustNew(DefaultConfig())
	ref := refMachine(DefaultConfig())

	// Bit-identity gates the timing; these runs double as warm-up.
	wantRes, err := ref.Run(spec.Program, in, mode)
	if err != nil {
		b.Fatal(err)
	}
	gotRes, err := comp.Run(spec.Program, in, mode)
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(wantRes, gotRes) {
		b.Fatal("compiled Run result differs from the reference interpreter")
	}
	wantRec, wantRecRes, err := ref.Record(spec.Program, in, mode)
	if err != nil {
		b.Fatal(err)
	}
	gotRec, gotRecRes, err := comp.Record(spec.Program, in, mode)
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(wantRecRes, gotRecRes) || !reflect.DeepEqual(wantRec, gotRec) {
		b.Fatal("compiled Record differs from the reference interpreter")
	}

	// meanNs returns the mean wall nanoseconds of n invocations of fn.
	meanNs := func(n int, fn func()) float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	const inlineIters = 3
	refRunNs := meanNs(inlineIters, func() {
		if _, err := ref.Run(spec.Program, in, mode); err != nil {
			b.Fatal(err)
		}
	})
	refRecNs := meanNs(inlineIters, func() {
		if _, _, err := ref.Record(spec.Program, in, mode); err != nil {
			b.Fatal(err)
		}
	})
	compRecNs := meanNs(inlineIters, func() {
		if _, _, err := comp.Record(spec.Program, in, mode); err != nil {
			b.Fatal(err)
		}
	})

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.Run(spec.Program, in, mode); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	compRunNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)

	rec := simBenchRecord{
		Benchmark:         spec.Name,
		Scale:             1.0,
		ReferenceRunNs:    refRunNs,
		CompiledRunNs:     compRunNs,
		RunSpeedup:        refRunNs / compRunNs,
		ReferenceRecordNs: refRecNs,
		CompiledRecordNs:  compRecNs,
		RecordSpeedup:     refRecNs / compRecNs,
		BitIdentical:      true,
	}
	b.ReportMetric(rec.RunSpeedup, "run-speedup-vs-reference")
	b.ReportMetric(rec.RecordSpeedup, "record-speedup-vs-reference")
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	// go test runs a package's benchmarks in the package directory, two
	// levels below the module root where the BENCH_*.json records live.
	if err := os.WriteFile("../../BENCH_sim.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
