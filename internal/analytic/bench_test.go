package analytic_test

import (
	"testing"

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

// BenchmarkContinuousSurfaces evaluates the savings ratio at every point of
// Figures 5–7 at grid 6 (108 continuous solves, the surface batch of a
// grid-6 paper sweep) over exp's figure range.
func BenchmarkContinuousSurfaces(b *testing.B) {
	pts := fig567(6)
	vr := figVRange()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pt := range pts {
			s, err := analytic.SavingsContinuous(pt.p, vr)
			if err != nil {
				s = 0
			}
			surfaceSink += s
		}
	}
}
