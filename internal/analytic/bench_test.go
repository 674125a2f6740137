package analytic_test

import (
	"testing"
	"time"

	"ctdvs/internal/analytic"
	"ctdvs/internal/volt"
)

func BenchmarkAnalyticDiscreteLP(b *testing.B) {
	ms, err := volt.Levels(13)
	if err != nil {
		b.Fatal(err)
	}
	p := analytic.Params{
		NOverlap:   4e6,
		NDependent: 5.8e6,
		NCache:     3e5,
		TInvariant: 8000,
		DeadlineUS: 16000,
	}
	b.ResetTimer()
	var energy float64
	for i := 0; i < b.N; i++ {
		sol, err := analytic.OptimizeDiscrete(p, ms)
		if err != nil {
			b.Fatal(err)
		}
		energy = sol.EnergyVC
	}
	b.ReportMetric(energy/1e6, "MV2cycles")
}

func BenchmarkAnalyticContinuous(b *testing.B) {
	p := analytic.Params{
		NOverlap:   4e6,
		NDependent: 5.8e6,
		NCache:     3e5,
		TInvariant: 8000,
		DeadlineUS: 16000,
	}
	vr := analytic.DefaultVRange()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analytic.OptimizeContinuous(p, vr); err != nil {
			b.Fatal(err)
		}
	}
}

var surfaceSink float64

// BenchmarkContinuousSurfaces times the continuous optimum at every point
// of Figures 5–7 at grid 6 (108 solves, the surface batch of a grid-6 paper
// sweep) over exp's figure range. It first checks every result against the
// dense reference bit for bit and times the reference on the same batch,
// and it fails unless OptimizeContinuous is faster.
func BenchmarkContinuousSurfaces(b *testing.B) {
	pts := fig567(6)
	vr := figVRange()
	dense := func(p analytic.Params, vr analytic.VRange) (*analytic.ContinuousSolution, error) {
		sol, _, err := denseContinuous(p, vr)
		return sol, err
	}
	for _, pt := range pts {
		got, want := solutionBits(analytic.OptimizeContinuous(pt.p, vr)), solutionBits(dense(pt.p, vr))
		if got != want {
			b.Fatalf("fig%d %d %d: got %s, dense reference %s", pt.fig, pt.i, pt.j, got, want)
		}
	}
	batch := func(opt func(analytic.Params, analytic.VRange) (*analytic.ContinuousSolution, error)) {
		for _, pt := range pts {
			if sol, err := opt(pt.p, vr); err == nil {
				surfaceSink += sol.EnergyVC
			}
		}
	}
	start := time.Now()
	batch(dense)
	denseNs := float64(time.Since(start).Nanoseconds())

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch(analytic.OptimizeContinuous)
	}
	b.StopTimer()
	speedup := denseNs / (float64(b.Elapsed().Nanoseconds()) / float64(b.N))
	b.ReportMetric(speedup, "speedup-vs-dense")
	if speedup < 1 {
		b.Fatalf("pruned scan slower than the dense reference: %.3f× (want ≥ 1)", speedup)
	}
}
