package analytic

import (
	"math"

	"ctdvs/internal/volt"
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
// Section 3.3); the dependent frequency follows from the deadline
// constraint. The overlapped region's frequency f1 minimizes the energy over
// a grid of 2,049 evenly spaced frequencies, the lowest such grid point when
// several tie, and golden-section search then refines it within eight grid
// spans either side.
//
// The grid minimum is exactly that of a scan of every point, but most
// points are never evaluated. Between two evaluated grid points a < b no
// point costs less than the overlapped region's energy at a plus the
// dependent computation's energy at b, because the first rises with f1 and
// the second falls; a span whose bound clears the best energy found so far
// by a relative 1e-9 is skipped. The proof needs Voltage to be an accurate,
// increasing inverse of the law, which holds for the paper's law shape
// (volt.Alpha, volt.VThreshold, K > 0); under any other law every grid
// point is evaluated. See DESIGN.md, "Continuous optimum".
func OptimizeContinuous(p Params, vr VRange) (*ContinuousSolution, error) {
	sol, _, err := optimizeContinuous(p, vr)
	return sol, err
}

// gridN is the number of spans of the scan's frequency grid.
const gridN = 2048

// optimizeContinuous is OptimizeContinuous that also returns the number of
// feasible points it evaluated, each of which inverts the law once or twice.
func optimizeContinuous(p Params, vr VRange) (*ContinuousSolution, int, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	if err := vr.Validate(); err != nil {
		return nil, 0, err
	}
	fLo, fHi := vr.FLo(), vr.FHi()
	if t := p.ExecTimeUS(fHi); t > p.DeadlineUS {
		return nil, 0, &ErrDeadlineInfeasible{NeedUS: t, HaveUS: p.DeadlineUS}
	}
	sc := vr.Scaling
	cv := curve{
		p: p, s: sc, r1: p.R1(), fLo: fLo, fHi: fHi,
		prune: sc.A == volt.Alpha && sc.Vt == volt.VThreshold && sc.K > 0,
	}
	for i := range cv.ring {
		cv.ring[i].f1 = math.NaN() // matches no query
	}
	bestF1, bestE, bestF2 := cv.scan()

	// Golden-section refinement around the best grid point.
	span := (fHi - fLo) / gridN
	lo := math.Max(fLo, bestF1-8*span)
	hi := math.Min(fHi, bestF1+8*span)
	const phi = 0.6180339887498949
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	ec, _ := cv.recall(c)
	ed, _ := cv.recall(d)
	for i := 0; i < 120; i++ {
		// The surviving interior point keeps its energy; only the new one
		// is evaluated.
		if ec < ed {
			b, d, ed = d, c, ec
			c = b - phi*(b-a)
			ec, _ = cv.recall(c)
		} else {
			a, c, ec = c, d, ed
			d = a + phi*(b-a)
			ed, _ = cv.recall(d)
		}
	}
	f1 := (a + b) / 2
	e, f2 := cv.recall(f1)
	if e > bestE {
		f1, e, f2 = bestF1, bestE, bestF2
	}

	sol := &ContinuousSolution{
		EnergyVC: e,
		V1:       vr.Scaling.Voltage(f1),
		F1:       f1,
		V2:       vr.Scaling.Voltage(f2),
		F2:       f2,
		Case:     classify(p, f1),
	}
	return sol, cv.evals, nil
}

// curve is the energy of one continuous problem as a function of the
// overlapped region's frequency f1, with the state of the search over it.
type curve struct {
	p        Params
	s        volt.Scaling
	r1       float64
	fLo, fHi float64
	// prune allows the scan to skip spans; see OptimizeContinuous.
	prune bool
	// evals counts the feasible points evaluated.
	evals int
	// ring holds the last four golden-section points with their energy and
	// dependent frequency; the search revisits them once its bracket
	// reaches float resolution.
	ring [4]struct{ f1, e, f2 float64 }
	next int
	// The scan's incumbent: the lowest grid index of the lowest energy so
	// far, or -1.
	best          int
	bestE, bestF2 float64
}

// at returns the energy E at f1, the overlapped region's share e1 of it,
// and the dependent frequency f2. An infeasible f1 has E = +Inf and
// e1 = f2 = 0. The law is inverted only once the deadline check shows the
// point is feasible.
func (c *curve) at(f1 float64) (e, e1, f2 float64) {
	if f1 <= 0 {
		return math.Inf(1), 0, 0
	}
	p := c.p
	rem := p.DeadlineUS - regionOneTime(p, f1)
	if p.NDependent == 0 {
		if rem < 0 {
			return math.Inf(1), 0, 0
		}
		c.evals++
		v1 := c.s.Voltage(f1)
		e1 = c.r1 * v1 * v1
		return e1, e1, f1
	}
	if rem <= 0 {
		return math.Inf(1), 0, 0
	}
	f2 = p.NDependent / rem
	if f2 > c.fHi*(1+1e-12) {
		return math.Inf(1), 0, 0
	}
	if f2 < c.fLo {
		f2 = c.fLo // extra slack: idle (gated) after finishing early
	}
	c.evals++
	v1 := c.s.Voltage(f1)
	e1 = c.r1 * v1 * v1
	v2 := c.s.Voltage(f2)
	return e1 + p.NDependent*v2*v2, e1, f2
}

// recall is at for the golden-section search: a point among the last four
// it asked for returns the stored result, which is exact because at is a
// pure function of f1.
func (c *curve) recall(f1 float64) (e, f2 float64) {
	for _, m := range c.ring {
		if m.f1 == f1 {
			return m.e, m.f2
		}
	}
	e, _, f2 = c.at(f1)
	m := &c.ring[c.next]
	m.f1, m.e, m.f2 = f1, e, f2
	c.next = (c.next + 1) % len(c.ring)
	return e, f2
}

// gridF1 is the overlapped region's frequency at grid index i.
func (c *curve) gridF1(i int) float64 {
	return c.fLo + (c.fHi-c.fLo)*float64(i)/gridN
}

// visit evaluates grid point i and makes it the incumbent if it is cheaper,
// or as cheap at a lower index. It returns the point's energy split into
// the overlapped region's share e1 and the dependent computation's share
// e2 = E − e1, both 0 when the point is infeasible.
func (c *curve) visit(i int) (e1, e2 float64) {
	e, e1, f2 := c.at(c.gridF1(i))
	if e < c.bestE || e == c.bestE && i < c.best {
		c.best, c.bestE, c.bestF2 = i, e, f2
	}
	if math.IsInf(e, 1) {
		return 0, 0
	}
	return e1, e - e1
}

// scan returns the grid point of least energy, the lowest-indexed of any
// tie, with its energy and dependent frequency; f1 is fHi and the energy
// +Inf when no grid point is feasible. It evaluates the grid's two ends,
// then bisects only the spans whose energy bound does not clear the best
// energy found.
func (c *curve) scan() (f1, e, f2 float64) {
	c.best, c.bestE = -1, math.Inf(1)
	e1, _ := c.visit(0)
	_, e2 := c.visit(gridN)
	c.refine(0, gridN, e1, e2)
	if c.best < 0 {
		return c.fHi, math.Inf(1), 0
	}
	return c.gridF1(c.best), c.bestE, c.bestF2
}

// refine evaluates the grid points strictly between a and b that could
// still beat the incumbent, given e1a, the overlapped region's energy at a,
// and e2b, the dependent computation's energy at b. The relative margin
// 1e-9 dwarfs the inversion's error, and the strict comparison keeps every
// span that could hold a tie.
func (c *curve) refine(a, b int, e1a, e2b float64) {
	if b-a < 2 || c.prune && (e1a+e2b)*(1-1e-9) > c.bestE {
		return
	}
	m := a + (b-a)/2
	e1m, e2m := c.visit(m)
	c.refine(a, m, e1a, e2m)
	c.refine(m, b, e1m, e2b)
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
