package analytic

import (
	"fmt"
	"math"

	"ctdvs/internal/lp"
	"ctdvs/internal/volt"
)

// DiscreteSolution is the optimum of the discrete-voltage model (paper
// Section 3.4): an exact per-mode cycle allocation for the overlapped region
// and the dependent computation.
type DiscreteSolution struct {
	// EnergyVC is the minimum energy in volts²·cycles.
	EnergyVC float64
	// X[m] is the number of active overlapped-region cycles run at mode m;
	// XC[m] is the sub-allocation of cache-hit memory cycles within them;
	// Y[m] is the number of dependent-computation cycles at mode m.
	X, XC, Y []float64
	// T1US is the overlapped region's wall-clock duration.
	T1US float64
	// ModesUsed counts modes with a non-negligible cycle share; the paper
	// shows at most two are needed per single-frequency regime and four in
	// the memory-dominated regime.
	ModesUsed int
}

// OptimizeDiscrete computes the exact minimum-energy schedule when voltages
// come from the discrete set ms and computation may be partitioned across
// modes at arbitrarily fine grain (paper assumption 5). The paper solves
// this optimization by hand with neighbour-frequency constructions and a
// numeric sweep (Section 3.4); here it is solved exactly as a small linear
// program:
//
//	minimize   Σ_m v_m²·(x_m + y_m)
//	subject to Σ_m x_m        = max(NOverlap, NCache)   (overlap work)
//	           Σ_m xc_m       = NCache                  (cache stream)
//	           xc_m ≤ x_m                               (cache ⊆ active)
//	           Σ_m y_m        = NDependent              (dependent work)
//	           T1 ≥ Σ_m x_m/f_m                         (region-1 wall time)
//	           T1 ≥ tinv + Σ_m xc_m/f_m                 (memory stream)
//	           T1 + Σ_m y_m/f_m ≤ deadline
//
// Cycle variables are scaled to megacycles and times to seconds inside the
// LP for conditioning.
func OptimizeDiscrete(p Params, ms *volt.ModeSet) (*DiscreteSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if ms == nil || ms.Len() == 0 {
		return nil, fmt.Errorf("analytic: empty mode set")
	}
	fMax := ms.Max().F
	if t := p.ExecTimeUS(fMax); t > p.DeadlineUS {
		return nil, &ErrDeadlineInfeasible{NeedUS: t, HaveUS: p.DeadlineUS}
	}

	const mc = 1e6 // cycles per megacycle; times become seconds (Mc/MHz = s)
	n := ms.Len()
	r1 := p.R1() / mc
	nc := p.NCache / mc
	nd := p.NDependent / mc
	tinv := p.TInvariant / 1e6
	dl := p.DeadlineUS / 1e6

	prob := lp.NewProblem()
	x := make([]int, n)
	xc := make([]int, n)
	y := make([]int, n)
	inf := math.Inf(1)
	for m := 0; m < n; m++ {
		v := ms.Mode(m).V
		x[m] = prob.AddVariable(v*v, 0, inf)
		xc[m] = prob.AddVariable(0, 0, inf)
		y[m] = prob.AddVariable(v*v, 0, inf)
	}
	t1 := prob.AddVariable(0, 0, inf)

	sum := func(vars []int, coef func(m int) float64) []lp.Term {
		ts := make([]lp.Term, len(vars))
		for m, v := range vars {
			ts[m] = lp.Term{Var: v, Coef: coef(m)}
		}
		return ts
	}
	one := func(int) float64 { return 1 }
	invF := func(m int) float64 { return 1 / ms.Mode(m).F }

	prob.MustAddConstraint(sum(x, one), lp.EQ, r1)
	prob.MustAddConstraint(sum(xc, one), lp.EQ, nc)
	for m := 0; m < n; m++ {
		prob.MustAddConstraint([]lp.Term{{Var: xc[m], Coef: 1}, {Var: x[m], Coef: -1}}, lp.LE, 0)
	}
	prob.MustAddConstraint(sum(y, one), lp.EQ, nd)
	prob.MustAddConstraint(append(sum(x, func(m int) float64 { return -1 / ms.Mode(m).F }),
		lp.Term{Var: t1, Coef: 1}), lp.GE, 0)
	prob.MustAddConstraint(append(sum(xc, func(m int) float64 { return -1 / ms.Mode(m).F }),
		lp.Term{Var: t1, Coef: 1}), lp.GE, tinv)
	prob.MustAddConstraint(append(sum(y, invF), lp.Term{Var: t1, Coef: 1}), lp.LE, dl)

	sol, err := prob.Solve(nil)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("analytic: discrete LP %v (deadline %v µs)", sol.Status, p.DeadlineUS)
	}

	ds := &DiscreteSolution{
		EnergyVC: sol.Objective * mc,
		X:        make([]float64, n),
		XC:       make([]float64, n),
		Y:        make([]float64, n),
		T1US:     sol.X[t1] * 1e6,
	}
	for m := 0; m < n; m++ {
		ds.X[m] = sol.X[x[m]] * mc
		ds.XC[m] = sol.X[xc[m]] * mc
		ds.Y[m] = sol.X[y[m]] * mc
		if ds.X[m] > 1 || ds.Y[m] > 1 {
			ds.ModesUsed++
		}
	}
	return ds, nil
}

// BaselineDiscrete returns the slowest single mode meeting the deadline and
// its energy (the paper's "best single-frequency setting that meets the
// deadline"). ok is false when even the fastest mode misses it.
func BaselineDiscrete(p Params, ms *volt.ModeSet) (mode int, energyVC float64, ok bool) {
	idx := ms.SlowestMeeting(p.DeadlineUS, func(i int) float64 {
		return p.ExecTimeUS(ms.Mode(i).F)
	})
	if idx < 0 {
		return 0, 0, false
	}
	v := ms.Mode(idx).V
	return idx, (p.R1() + p.NDependent) * v * v, true
}

// SavingsDiscrete returns the paper's energy-saving ratio for the discrete
// case: 1 − E_opt/E_baseline. This is the quantity plotted in Figures 9–11
// and tabulated in Table 1.
func SavingsDiscrete(p Params, ms *volt.ModeSet) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	_, base, ok := BaselineDiscrete(p, ms)
	if !ok {
		return 0, &ErrDeadlineInfeasible{NeedUS: p.ExecTimeUS(ms.Max().F), HaveUS: p.DeadlineUS}
	}
	sol, err := OptimizeDiscrete(p, ms)
	if err != nil {
		return 0, err
	}
	if base <= 0 {
		return 0, nil
	}
	s := 1 - sol.EnergyVC/base
	if s < 0 {
		s = 0
	}
	return s, nil
}

// EminOfY evaluates the paper's hand construction for the memory-dominated
// discrete case (Section 3.4, Figure 8): y is the wall time allotted to the
// NCache cache-hit cycles; the cache stream runs at the two discrete
// neighbours of NCache/y, the dependent computation at the two neighbours of
// NDependent/(deadline − tinvariant − y), and the overlapped computation
// beyond NCache fills the miss window at the same neighbour pair. It
// returns +Inf where the construction is infeasible.
func EminOfY(p Params, ms *volt.ModeSet, y float64) float64 {
	if p.Validate() != nil || y <= 0 {
		return math.Inf(1)
	}
	rem := p.DeadlineUS - p.TInvariant - y
	if rem <= 0 || p.NCache <= 0 {
		return math.Inf(1)
	}

	// Cache stream: split NCache cycles across the neighbours of NCache/y.
	xa, xb, va, vb, ok := neighbourSplit(ms, p.NCache, y)
	if !ok {
		return math.Inf(1)
	}

	// Dependent computation across the neighbours of NDependent/rem.
	var e2 float64
	if p.NDependent > 0 {
		xc, xd, vc, vd, ok2 := neighbourSplit(ms, p.NDependent, rem)
		if !ok2 {
			return math.Inf(1)
		}
		e2 = xc*vc*vc + xd*vd*vd
	}

	// Overlap computation beyond the cache shadow must fit in tinvariant at
	// the same neighbour frequencies, lower first.
	extra := p.NOverlap - p.NCache
	var e3 float64
	if extra > 0 {
		za, zb, okz := fitWithin(ms, extra, p.TInvariant, p.NCache/y)
		if !okz {
			return math.Inf(1)
		}
		e3 = za*va*va + zb*vb*vb
	}

	return xa*va*va + xb*vb*vb + e2 + e3
}

// neighbourSplit splits `cycles` across the two discrete neighbours of the
// ideal frequency cycles/span so the pair takes exactly `span` µs:
// xa/fa + xb/fb = span, xa + xb = cycles.
func neighbourSplit(ms *volt.ModeSet, cycles, span float64) (xa, xb, va, vb float64, ok bool) {
	fstar := cycles / span
	lo, hi := ms.Neighbors(fstar)
	fa, fb := ms.Mode(lo).F, ms.Mode(hi).F
	va, vb = ms.Mode(lo).V, ms.Mode(hi).V
	if fstar > ms.Max().F*(1+1e-9) {
		return 0, 0, 0, 0, false
	}
	if lo == hi {
		// fstar at or below the slowest mode, or exactly on a mode: run all
		// cycles there (if below the slowest, the slack is idle time).
		if fa < fstar*(1-1e-9) {
			return 0, 0, 0, 0, false
		}
		return cycles, 0, va, vb, true
	}
	// Solve xa/fa + xb/fb = span with xa + xb = cycles.
	xa = fa * (fb*span - cycles) / (fb - fa)
	xb = cycles - xa
	if xa < -1e-9 || xb < -1e-9 {
		return 0, 0, 0, 0, false
	}
	return math.Max(xa, 0), math.Max(xb, 0), va, vb, true
}

// fitWithin packs `cycles` into `window` µs using the two neighbours of
// fstar, preferring the lower frequency (paper: "run as many execution
// cycles as possible … at the lower frequency fa and the remaining at fb").
func fitWithin(ms *volt.ModeSet, cycles, window, fstar float64) (za, zb float64, ok bool) {
	lo, hi := ms.Neighbors(fstar)
	fa, fb := ms.Mode(lo).F, ms.Mode(hi).F
	if cycles <= window*fa {
		return cycles, 0, true
	}
	if cycles > window*fb*(1+1e-9) {
		return 0, 0, false
	}
	if lo == hi {
		return cycles, 0, true
	}
	// za/fa + zb/fb = window, za + zb = cycles.
	za = fa * (fb*window - cycles) / (fb - fa)
	zb = cycles - za
	if za < -1e-9 || zb < -1e-9 {
		return 0, 0, false
	}
	return math.Max(za, 0), math.Max(zb, 0), true
}
