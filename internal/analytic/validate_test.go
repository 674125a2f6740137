package analytic

import (
	"errors"
	"math"
	"testing"

	"ctdvs/internal/volt"
)

// noPanic runs fn and fails the test, instead of crashing it, if fn panics.
func noPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s panicked: %v", name, r)
		}
	}()
	fn()
}

// TestNonFiniteParamsRejected sets each parameter in turn to NaN, +Inf and
// −Inf: every solver must reject the set as invalid, not report a saving
// or an infeasible deadline.
func TestNonFiniteParamsRejected(t *testing.T) {
	t.Parallel()
	ms, err := volt.Levels(7)
	if err != nil {
		t.Fatal(err)
	}
	vr := DefaultVRange()
	fields := []struct {
		name string
		set  func(*Params, float64)
	}{
		{"NOverlap", func(p *Params, x float64) { p.NOverlap = x }},
		{"NDependent", func(p *Params, x float64) { p.NDependent = x }},
		{"NCache", func(p *Params, x float64) { p.NCache = x }},
		{"TInvariant", func(p *Params, x float64) { p.TInvariant = x }},
		{"DeadlineUS", func(p *Params, x float64) { p.DeadlineUS = x }},
	}
	for _, fld := range fields {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := memDominated()
			fld.set(&p, x)
			invalid := func(solver string, err error) {
				var inf *ErrDeadlineInfeasible
				if err == nil || errors.As(err, &inf) {
					t.Errorf("%s = %v: %s returned %v, want a parameter error", fld.name, x, solver, err)
				}
			}
			noPanic(t, fld.name, func() {
				s, err := SavingsContinuous(p, vr)
				if err == nil {
					t.Errorf("%s = %v: SavingsContinuous = %v", fld.name, x, s)
				}
				invalid("SavingsContinuous", err)
				_, err = OptimizeContinuous(p, vr)
				invalid("OptimizeContinuous", err)
				_, _, _, err = BaselineContinuous(p, vr)
				invalid("BaselineContinuous", err)
				_, err = SavingsDiscrete(p, ms)
				invalid("SavingsDiscrete", err)
				_, err = OptimizeDiscrete(p, ms)
				invalid("OptimizeDiscrete", err)
				EnergyVsV1(p, vr, []float64{0.7, 1.2, math.NaN()})
			})
		}
	}
}

// TestBadVRangeRejected feeds the continuous solvers ranges they cannot
// search: each must return an error and none may panic. A range topped at
// volt.MaxVoltage must still solve.
func TestBadVRangeRejected(t *testing.T) {
	t.Parallel()
	sc := volt.DefaultScaling()
	p := memDominated()
	bad := []VRange{
		{Lo: math.NaN(), Hi: 1.65},
		{Lo: 0.7, Hi: math.NaN()},
		{Lo: math.Inf(-1), Hi: 1.65},
		{Lo: 0.7, Hi: math.Inf(1)},
		{Lo: 2, Hi: 1},
		{Lo: 1, Hi: 1},
		{Lo: 0.7, Hi: 1e7},
		{Lo: 0.7, Hi: math.Nextafter(volt.MaxVoltage, math.Inf(1))},
	}
	for _, vr := range bad {
		vr.Scaling = sc
		noPanic(t, "bad range", func() {
			if err := vr.Validate(); err == nil {
				t.Errorf("[%v, %v]: Validate accepted", vr.Lo, vr.Hi)
			}
			if _, _, _, err := BaselineContinuous(p, vr); err == nil {
				t.Errorf("[%v, %v]: BaselineContinuous accepted", vr.Lo, vr.Hi)
			}
			if _, err := OptimizeContinuous(p, vr); err == nil {
				t.Errorf("[%v, %v]: OptimizeContinuous accepted", vr.Lo, vr.Hi)
			}
			if _, err := SavingsContinuous(p, vr); err == nil {
				t.Errorf("[%v, %v]: SavingsContinuous accepted", vr.Lo, vr.Hi)
			}
			if _, err := OptimizeContinuousExact(TwoPhaseJobs(p), vr); err == nil {
				t.Errorf("[%v, %v]: OptimizeContinuousExact accepted", vr.Lo, vr.Hi)
			}
		})
	}
	top := VRange{Lo: 0.7, Hi: volt.MaxVoltage, Scaling: sc}
	noPanic(t, "range topped at MaxVoltage", func() {
		if _, err := SavingsContinuous(p, top); err != nil {
			t.Errorf("[0.7, %v]: %v", top.Hi, err)
		}
		if _, err := OptimizeContinuousExact(TwoPhaseJobs(p), top); err != nil {
			t.Errorf("[0.7, %v]: exact: %v", top.Hi, err)
		}
	})
}
