package analytic_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ctdvs/internal/analytic"
	"ctdvs/internal/volt"
)

// denseContinuous is the continuous optimizer that OptimizeContinuous
// reproduces, kept verbatim as the reference: an energy evaluation at every
// one of the 2,049 grid points, then the same golden-section refinement
// without reuse. It spells out the overlapped region's time and the regime
// label, which the package keeps unexported, and also returns the number of
// feasible points it evaluated. OptimizeContinuous must return its bits and
// its errors for every input.
func denseContinuous(p analytic.Params, vr analytic.VRange) (*analytic.ContinuousSolution, int, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	if err := vr.Validate(); err != nil {
		return nil, 0, err
	}
	fLo, fHi := vr.FLo(), vr.FHi()
	if t := p.ExecTimeUS(fHi); t > p.DeadlineUS {
		return nil, 0, &analytic.ErrDeadlineInfeasible{NeedUS: t, HaveUS: p.DeadlineUS}
	}

	// energyAt returns (E, f2). It inverts f1 only once the deadline check
	// shows the point is feasible.
	r1 := p.R1()
	evals := 0
	energyAt := func(f1 float64) (float64, float64) {
		if f1 <= 0 {
			return math.Inf(1), 0
		}
		rem := p.DeadlineUS - math.Max(p.TInvariant+p.NCache/f1, p.NOverlap/f1)
		if p.NDependent == 0 {
			if rem < 0 {
				return math.Inf(1), 0
			}
			evals++
			v1 := vr.Scaling.Voltage(f1)
			return r1 * v1 * v1, f1
		}
		if rem <= 0 {
			return math.Inf(1), 0
		}
		f2 := p.NDependent / rem
		if f2 > fHi*(1+1e-12) {
			return math.Inf(1), 0
		}
		if f2 < fLo {
			f2 = fLo // extra slack: idle (gated) after finishing early
		}
		evals++
		v1 := vr.Scaling.Voltage(f1)
		e1 := r1 * v1 * v1
		v2 := vr.Scaling.Voltage(f2)
		return e1 + p.NDependent*v2*v2, f2
	}

	// Dense scan then golden-section refinement around the best point.
	const gridN = 2048
	bestF1, bestE := fHi, math.Inf(1)
	for i := 0; i <= gridN; i++ {
		f1 := fLo + (fHi-fLo)*float64(i)/gridN
		if e, _ := energyAt(f1); e < bestE {
			bestE, bestF1 = e, f1
		}
	}
	if math.IsInf(bestE, 1) {
		// Numerical corner: fall back to the fastest setting, which is
		// feasible by the check above.
		bestF1 = fHi
	}
	span := (fHi - fLo) / gridN
	lo := math.Max(fLo, bestF1-8*span)
	hi := math.Min(fHi, bestF1+8*span)
	const phi = 0.6180339887498949
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	ec, _ := energyAt(c)
	ed, _ := energyAt(d)
	for i := 0; i < 120; i++ {
		// The surviving interior point keeps its energy; only the new one
		// is evaluated.
		if ec < ed {
			b, d, ed = d, c, ec
			c = b - phi*(b-a)
			ec, _ = energyAt(c)
		} else {
			a, c, ec = c, d, ed
			d = a + phi*(b-a)
			ed, _ = energyAt(d)
		}
	}
	f1 := (a + b) / 2
	e, f2 := energyAt(f1)
	if e > bestE {
		f1 = bestF1
		e, f2 = energyAt(f1)
	}

	// The regime label, as the optimizer assigns it.
	kase := analytic.MemoryDominated
	if p.NCache >= p.NOverlap {
		kase = analytic.MemorySlack
	} else if f1 < p.FInvariant()*(1-1e-6) {
		kase = analytic.ComputeDominated
	}
	sol := &analytic.ContinuousSolution{
		EnergyVC: e,
		V1:       vr.Scaling.Voltage(f1),
		F1:       f1,
		V2:       vr.Scaling.Voltage(f2),
		F2:       f2,
		Case:     kase,
	}
	return sol, evals, nil
}

// solutionBits renders a continuous optimum, or its error, with every
// float as its IEEE-754 bits, so that equal strings mean equal bits.
func solutionBits(sol *analytic.ContinuousSolution, err error) string {
	if err != nil {
		return fmt.Sprintf("error %T %q", err, err)
	}
	return fmt.Sprintf("%s case %d", hexBits(sol.EnergyVC, sol.V1, sol.F1, sol.V2, sol.F2), sol.Case)
}

// outcome runs an optimizer and renders its result, its error or the fact
// that it panicked.
func outcome(opt func() (*analytic.ContinuousSolution, error)) (s string) {
	defer func() {
		if recover() != nil {
			s = "panic"
		}
	}()
	return solutionBits(opt())
}

// checkDense fails the test unless OptimizeContinuous returns the dense
// reference's bits and error at p over vr, or panics where it does.
func checkDense(t *testing.T, name string, p analytic.Params, vr analytic.VRange) {
	t.Helper()
	want := outcome(func() (*analytic.ContinuousSolution, error) {
		sol, _, err := denseContinuous(p, vr)
		return sol, err
	})
	got := outcome(func() (*analytic.ContinuousSolution, error) { return analytic.OptimizeContinuous(p, vr) })
	if got != want {
		t.Errorf("%s: %+v over [%v, %v] V, law %+v:\n got %s\nwant %s", name, p, vr.Lo, vr.Hi, vr.Scaling, got, want)
	}
}

// randomParams draws a parameter set for vr that lands, by turns, in every
// regime the scan must handle: no dependent computation (one draw in
// eight), cache-hit cycles at or above the overlapped ones (one in eight),
// no miss time (one in eight), no overlapped region, where every feasible
// grid point has the same energy (one in eight), and deadlines from below
// the fastest run, which is infeasible, to past the slowest one.
func randomParams(rng *rand.Rand, vr analytic.VRange) analytic.Params {
	p := analytic.Params{
		NOverlap:   rng.Float64() * 8e6,
		NDependent: rng.Float64() * 8e6,
		NCache:     rng.Float64() * 2e6,
		TInvariant: rng.Float64() * 8000,
	}
	switch rng.Intn(8) {
	case 0:
		p.NDependent = 0
	case 1:
		p.NCache = p.NOverlap * (1 + rng.Float64())
	case 2:
		p.TInvariant = 0
	case 3:
		p.NOverlap, p.NCache = 0, 0
	}
	fast, slow := p.ExecTimeUS(vr.FHi()), p.ExecTimeUS(vr.FLo())
	p.DeadlineUS = fast * (0.95 + rng.Float64()*(1.1*slow/fast-0.95))
	return p
}

// TestPrunedScanMatchesDense compares OptimizeContinuous with the dense
// reference, bit for bit and error for error, on 2,500 random parameter
// sets over each of exp's figure range and the repository-standard range,
// in parallel batches of 500.
func TestPrunedScanMatchesDense(t *testing.T) {
	if testing.Short() {
		t.Skip("5,000 dense reference solves")
	}
	for _, r := range []struct {
		name string
		vr   analytic.VRange
	}{
		{"figure", figVRange()},
		{"default", analytic.DefaultVRange()},
	} {
		for batch := int64(0); batch < 5; batch++ {
			t.Run(fmt.Sprintf("%s/%d", r.name, batch), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(batch))
				var noDependent, slack, ties, infeasible int
				for k := 0; k < 500; k++ {
					p := randomParams(rng, r.vr)
					checkDense(t, fmt.Sprintf("set %d", k), p, r.vr)
					if p.NDependent == 0 {
						noDependent++
					}
					if p.NCache >= p.NOverlap {
						slack++
					}
					if p.R1() == 0 {
						ties++
					}
					if p.ExecTimeUS(r.vr.FHi()) > p.DeadlineUS {
						infeasible++
					}
				}
				if noDependent == 0 || slack == 0 || ties == 0 || infeasible == 0 {
					t.Errorf("the batch misses a regime: %d sets without dependent cycles, %d with NCache ≥ NOverlap, %d without an overlapped region, %d with infeasible deadlines",
						noDependent, slack, ties, infeasible)
				}
			})
		}
	}
}

// TestContinuousEvalCount counts the feasible points, each of which
// inverts the law once or twice, that the Figure 5–7 surfaces evaluate at
// grid 6 (108 solves): 13,542, where the dense reference evaluates
// 179,261. The ceiling fails without the pruning (173,935) and without the
// golden-section ring (18,868).
func TestContinuousEvalCount(t *testing.T) {
	vr := figVRange()
	dense, pruned := 0, 0
	for _, pt := range fig567(6) {
		_, n, err := analytic.OptimizeContinuousEvals(pt.p, vr)
		var infeasible *analytic.ErrDeadlineInfeasible
		if err != nil && !errors.As(err, &infeasible) {
			t.Fatal(err)
		}
		pruned += n
		_, n, _ = denseContinuous(pt.p, vr)
		dense += n
	}
	t.Logf("feasible energy evaluations: dense %d, pruned %d", dense, pruned)
	if pruned > 15000 {
		t.Errorf("the Figure 5–7 batch evaluated %d feasible points; want at most 15,000", pruned)
	}
}

// FuzzContinuousOptimum compares OptimizeContinuous with the dense
// reference over arbitrary parameter sets and voltage ranges, under the
// paper's law at either calibration or under an arbitrary increasing law,
// which the scan must handle without its pruning. The seeds are the
// parameter sets of testdata/continuous.golden.
func FuzzContinuousOptimum(f *testing.F) {
	fvr, dvr := figVRange(), analytic.DefaultVRange()
	for _, pt := range fig567(6) {
		p := pt.p
		f.Add(p.NOverlap, p.NDependent, p.NCache, p.TInvariant, p.DeadlineUS, fvr.Lo, fvr.Hi, uint8(1), 0.0, 0.0)
	}
	rng := rand.New(rand.NewSource(13))
	for k := 0; k < 32; k++ {
		f.Add(rng.Float64()*8e6, rng.Float64()*8e6, rng.Float64()*2e6, rng.Float64()*8000,
			8000+rng.Float64()*24000, dvr.Lo, dvr.Hi, uint8(0), 0.0, 0.0)
	}
	f.Add(4e6, 0.0, 3e5, 100.0, 9000.0, dvr.Lo, dvr.Hi, uint8(2), 1.3, 0.45)
	f.Fuzz(func(t *testing.T, no, nd, nc, tinv, dl, lo, hi float64, law uint8, a, vt float64) {
		var sc volt.Scaling
		switch law % 3 {
		case 0:
			sc = dvr.Scaling
		case 1:
			sc = fvr.Scaling
		default:
			// Any increasing law with its inversion in range.
			if !(a >= 1 && a <= 8 && vt >= 0 && vt <= 10) {
				t.Skip()
			}
			sc = volt.Scaling{A: a, Vt: vt, K: 1}
			sc.K = 800 / sc.Freq(vt+1)
		}
		checkDense(t, "fuzz", analytic.Params{NOverlap: no, NDependent: nd, NCache: nc, TInvariant: tinv, DeadlineUS: dl},
			analytic.VRange{Lo: lo, Hi: hi, Scaling: sc})
	})
}
