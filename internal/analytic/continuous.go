package analytic

import (
	"math"
)

// ContinuousSolution is the optimum of the continuously-scalable-voltage
// model (paper Section 3.3).
type ContinuousSolution struct {
	// EnergyVC is the minimum energy in volts²·cycles.
	EnergyVC float64
	// V1/F1 drive the overlapped region; V2/F2 drive the dependent
	// computation. For single-voltage optima V1 == V2.
	V1, F1 float64
	V2, F2 float64
	// Case classifies the regime at the optimum.
	Case Case
}

// BaselineContinuous returns the best single (continuously chosen) voltage
// that meets the deadline — the lowest feasible frequency — and its energy.
// This is the normalization baseline for continuous savings ratios.
func BaselineContinuous(p Params, vr VRange) (v, f, energyVC float64, err error) {
	if e := p.Validate(); e != nil {
		return 0, 0, 0, e
	}
	if e := vr.Validate(); e != nil {
		return 0, 0, 0, e
	}
	fLo, fHi := vr.FLo(), vr.FHi()
	if t := p.ExecTimeUS(fHi); t > p.DeadlineUS {
		return 0, 0, 0, &ErrDeadlineInfeasible{NeedUS: t, HaveUS: p.DeadlineUS}
	}
	f = fLo
	if p.ExecTimeUS(fLo) > p.DeadlineUS {
		// Bisect the monotone-decreasing T(f) for T = deadline.
		lo, hi := fLo, fHi
		for i := 0; i < 200; i++ {
			mid := (lo + hi) / 2
			if p.ExecTimeUS(mid) > p.DeadlineUS {
				lo = mid
			} else {
				hi = mid
			}
		}
		f = hi
	}
	v = vr.Scaling.Voltage(f)
	return v, f, (p.R1() + p.NDependent) * v * v, nil
}

// OptimizeContinuous finds the minimum-energy voltage assignment when
// voltage scales continuously over vr. At most two voltages are needed: one
// for the overlapped region and one for the dependent computation (paper
// Section 3.3). The optimum is located by a dense scan over the overlapped
// region's frequency followed by golden-section refinement; the dependent
// frequency follows from the deadline constraint.
func OptimizeContinuous(p Params, vr VRange) (*ContinuousSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := vr.Validate(); err != nil {
		return nil, err
	}
	fLo, fHi := vr.FLo(), vr.FHi()
	if t := p.ExecTimeUS(fHi); t > p.DeadlineUS {
		return nil, &ErrDeadlineInfeasible{NeedUS: t, HaveUS: p.DeadlineUS}
	}

	// energyAt returns (E, f2). It inverts f1 only once the deadline check
	// shows the point is feasible.
	r1 := p.R1()
	energyAt := func(f1 float64) (float64, float64) {
		if f1 <= 0 {
			return math.Inf(1), 0
		}
		rem := p.DeadlineUS - regionOneTime(p, f1)
		if p.NDependent == 0 {
			if rem < 0 {
				return math.Inf(1), 0
			}
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

	sol := &ContinuousSolution{
		EnergyVC: e,
		V1:       vr.Scaling.Voltage(f1),
		F1:       f1,
		V2:       vr.Scaling.Voltage(f2),
		F2:       f2,
		Case:     classify(p, f1),
	}
	return sol, nil
}

// regionOne returns the overlapped region's energy and wall time at
// frequency f1.
func regionOne(p Params, vr VRange, f1 float64) (energyVC, timeUS float64) {
	if f1 <= 0 {
		return math.Inf(1), math.Inf(1)
	}
	v1 := vr.Scaling.Voltage(f1)
	return p.R1() * v1 * v1, regionOneTime(p, f1)
}

// regionOneTime returns the overlapped region's wall time at frequency
// f1 > 0.
func regionOneTime(p Params, f1 float64) float64 {
	return math.Max(p.TInvariant+p.NCache/f1, p.NOverlap/f1)
}

// classify labels the regime the optimum landed in. An optimum pinned on the
// f_invariant boundary counts as memory-dominated: that is the regime whose
// constraint is active there (paper Section 3.3.1).
func classify(p Params, f1 float64) Case {
	if p.NCache >= p.NOverlap {
		return MemorySlack
	}
	if f1 < p.FInvariant()*(1-1e-6) {
		return ComputeDominated
	}
	return MemoryDominated
}

// SavingsContinuous returns the paper's energy-saving ratio for the
// continuous case: 1 − E_opt/E_baseline, where the baseline is the best
// single voltage meeting the deadline. The ratio is non-negative (the
// baseline is a feasible point of the optimization) and zero when a single
// voltage is already optimal.
func SavingsContinuous(p Params, vr VRange) (float64, error) {
	_, _, base, err := BaselineContinuous(p, vr)
	if err != nil {
		return 0, err
	}
	sol, err := OptimizeContinuous(p, vr)
	if err != nil {
		return 0, err
	}
	if base <= 0 {
		return 0, nil
	}
	s := 1 - sol.EnergyVC/base
	if s < 0 {
		// The optimizer can only undershoot the baseline by numerical
		// tolerance; clamp to the model's guarantee.
		s = 0
	}
	return s, nil
}

// EnergyVsV1 evaluates the total energy as a function of the overlapped
// region's voltage v1, with v2 chosen optimally for the remaining deadline
// (paper Figures 2, 3, 4). Points where the deadline cannot be met are
// +Inf.
func EnergyVsV1(p Params, vr VRange, v1s []float64) []float64 {
	out := make([]float64, len(v1s))
	fLo, fHi := vr.FLo(), vr.FHi()
	for i, v1 := range v1s {
		f1 := vr.Scaling.Freq(v1)
		if !(f1 >= fLo && f1 <= fHi*(1+1e-9)) { // also a NaN v1
			out[i] = math.Inf(1)
			continue
		}
		e1, t1 := regionOne(p, vr, f1)
		rem := p.DeadlineUS - t1
		if p.NDependent == 0 {
			if rem < 0 {
				out[i] = math.Inf(1)
			} else {
				out[i] = e1
			}
			continue
		}
		if rem <= 0 {
			out[i] = math.Inf(1)
			continue
		}
		f2 := p.NDependent / rem
		if !(f2 <= fHi*(1+1e-9)) { // also a NaN parameter
			out[i] = math.Inf(1)
			continue
		}
		if f2 < fLo {
			f2 = fLo
		}
		v2 := vr.Scaling.Voltage(f2)
		out[i] = e1 + p.NDependent*v2*v2
	}
	return out
}
