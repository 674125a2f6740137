package profile

import (
	"testing"
	"time"

	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// BenchmarkProfileCollect measures what record-once/replay-per-mode buys:
// the timed loop runs Collect (one instrumented simulation plus a batched
// replay for the other modes) of gsm/encode at scale 0.1 over the 7-level
// mode set, against an inline per-mode baseline (seven full simulations).
// The two profiles must be bit-identical under the canonical codec, and the
// benchmark fails when recording is not faster than simulating every mode.
func BenchmarkProfileCollect(b *testing.B) {
	spec := workloads.Gsm(0.1)
	ms, err := volt.Levels(7)
	if err != nil {
		b.Fatal(err)
	}
	m := sim.MustNew(sim.DefaultConfig())

	pmStart := time.Now()
	baseline, err := CollectPerMode(m, spec.Program, spec.Inputs[0], ms)
	if err != nil {
		b.Fatal(err)
	}
	pmNs := float64(time.Since(pmStart).Nanoseconds())

	b.ResetTimer()
	var pr *Profile
	for i := 0; i < b.N; i++ {
		if pr, err = Collect(m, spec.Program, spec.Inputs[0], ms); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	wantEnc, err := Encode(baseline)
	if err != nil {
		b.Fatal(err)
	}
	gotEnc, err := Encode(pr)
	if err != nil {
		b.Fatal(err)
	}
	if string(wantEnc) != string(gotEnc) {
		b.Fatal("replayed profile is not bit-identical to the per-mode profile")
	}
	recNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	speedup := pmNs / recNs
	b.ReportMetric(speedup, "speedup-vs-per-mode")
	if speedup < 1 {
		b.Fatalf("recorded collection %.0f ns is slower than per-mode %.0f ns (speedup %.3f < 1)", recNs, pmNs, speedup)
	}
}
