package sim

import (
	"reflect"
	"testing"
	"time"

	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// BenchmarkSimCompiledKernel measures what compiling blocks to static cost
// tables buys on a full-scale workload: Machine.Run and Machine.Record on
// mpeg/decode at scale 1.0, compiled kernel vs the reference interpreter
// (refMachine). Results and recordings are checked bit-identical before any
// timing is trusted; the timed loop is the compiled Run, the other three
// phases are measured inline, and the benchmark fails when the compiled
// kernel is slower than the interpreter at either Run or Record.
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

	runSpeedup := refRunNs / compRunNs
	recSpeedup := refRecNs / compRecNs
	b.ReportMetric(runSpeedup, "run-speedup-vs-reference")
	b.ReportMetric(recSpeedup, "record-speedup-vs-reference")
	if runSpeedup < 1 || recSpeedup < 1 {
		b.Fatalf("compiled kernel slower than the reference interpreter: Run %.3f×, Record %.3f× (want ≥ 1)",
			runSpeedup, recSpeedup)
	}
}
