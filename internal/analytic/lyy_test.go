package analytic

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ctdvs/internal/volt"
)

// relClose reports a ≈ b within relative tolerance tol.
func relClose(a, b, tol float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return true
	}
	return math.Abs(a-b) <= tol*scale
}

func TestLYYValidation(t *testing.T) {
	vr := DefaultVRange()
	cases := []struct {
		name string
		jobs []Job
	}{
		{"empty", nil},
		{"negative cycles", []Job{{ReleaseUS: 0, DeadlineUS: 10, Cycles: -1}}},
		{"nan cycles", []Job{{ReleaseUS: 0, DeadlineUS: 10, Cycles: math.NaN()}}},
		{"empty window", []Job{{ReleaseUS: 10, DeadlineUS: 10, Cycles: 1}}},
		{"inverted window", []Job{{ReleaseUS: 10, DeadlineUS: 5, Cycles: 1}}},
		{"negative release", []Job{{ReleaseUS: -1, DeadlineUS: 5, Cycles: 1}}},
		{"infinite cycles", []Job{{ReleaseUS: 0, DeadlineUS: 10, Cycles: math.Inf(1)}}},
		{"nan release", []Job{{ReleaseUS: math.NaN(), DeadlineUS: 10, Cycles: 1}}},
		{"nan deadline", []Job{{ReleaseUS: 0, DeadlineUS: math.NaN(), Cycles: 1}}},
		{"unbounded window", []Job{{ReleaseUS: 0, DeadlineUS: math.Inf(1), Cycles: 1}, {ReleaseUS: 0, DeadlineUS: 10, Cycles: 1}}},
	}
	for _, tc := range cases {
		if _, err := OptimizeContinuousExact(tc.jobs, vr); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
		if _, err := AggregateClosedForm(tc.jobs, vr); err == nil {
			t.Errorf("%s: AggregateClosedForm: want error", tc.name)
		}
	}
}

func TestLYYInfeasibleDeadline(t *testing.T) {
	vr := DefaultVRange()
	// Demand more cycles than the fastest frequency can retire in the window.
	jobs := []Job{{ReleaseUS: 0, DeadlineUS: 10, Cycles: vr.FHi() * 20}}
	_, err := OptimizeContinuousExact(jobs, vr)
	var inf *ErrDeadlineInfeasible
	if !errors.As(err, &inf) {
		t.Fatalf("err = %v, want ErrDeadlineInfeasible", err)
	}
	if inf.NeedUS <= inf.HaveUS {
		t.Errorf("NeedUS %v should exceed HaveUS %v", inf.NeedUS, inf.HaveUS)
	}
}

// TestLYYSingleJobMatchesClosedForm checks the degenerate instance against
// the §3 closed form: one job with the whole window is the pure
// computation-dominated case.
func TestLYYSingleJobMatchesClosedForm(t *testing.T) {
	vr := DefaultVRange()
	for _, cycles := range []float64{1e4, 3e6, 8e6} {
		jobs := []Job{{ReleaseUS: 0, DeadlineUS: 10000, Cycles: cycles}}
		exact, err := OptimizeContinuousExact(jobs, vr)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := OptimizeContinuous(Params{NDependent: cycles, DeadlineUS: 10000}, vr)
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(exact.EnergyVC, ref.EnergyVC, 1e-9) {
			t.Errorf("cycles %g: exact %v != closed form %v", cycles, exact.EnergyVC, ref.EnergyVC)
		}
		if len(exact.Intervals) != 1 || len(exact.Intervals[0].Jobs) != 1 {
			t.Errorf("cycles %g: intervals %+v, want one interval with one job", cycles, exact.Intervals)
		}
	}
}

// randParams draws a §3 parameter set wide enough to hit all three regimes
// and both feasible and infeasible deadlines.
func randParams(rng *rand.Rand) Params {
	return Params{
		NOverlap:   rng.Float64() * 6e6,
		NDependent: rng.Float64() * 8e6,
		NCache:     rng.Float64() * 2e6,
		TInvariant: rng.Float64() * 12000,
		DeadlineUS: 2000 + rng.Float64()*28000,
	}
}

// TestLYYMatchesClosedFormWithoutInvariance: with TInvariant = 0 the
// two-phase encoding is exact — both jobs share the full window, one
// critical interval covers everything, and the closed form collapses to the
// same single-frequency optimum.
func TestLYYMatchesClosedFormWithoutInvariance(t *testing.T) {
	vr := DefaultVRange()
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 300; i++ {
		p := randParams(rng)
		p.TInvariant = 0
		ref, refErr := OptimizeContinuous(p, vr)
		exact, exactErr := OptimizeContinuousExact(TwoPhaseJobs(p), vr)
		if (refErr == nil) != (exactErr == nil) {
			t.Fatalf("p=%+v: feasibility disagrees: closed form %v, exact %v", p, refErr, exactErr)
		}
		if refErr != nil {
			continue
		}
		if !relClose(exact.EnergyVC, ref.EnergyVC, 1e-6) {
			t.Errorf("p=%+v: exact %v != closed form %v", p, exact.EnergyVC, ref.EnergyVC)
		}
	}
}

// TestLYYRigorChain is the ladder invariant across randomized instances:
//
//	aggregate closed form ≤ exact continuous ≤ §3 continuous ≤ §3 discrete
//
// (the two-phase encoding relaxes the §3 timing, the continuous range
// relaxes the mode set). Feasibility propagates the other way: an
// infeasible relaxation makes everything above it infeasible.
//
// The discrete rung is asserted for mode sets generated on the alpha-power
// curve (volt.Uniform — which Levels uses for 7 and 13). The paper's
// 3-level XScale-like table is excluded on principle: it rounds 179 MHz up
// to 200 MHz at 0.70 V, placing its bottom mode above the physical curve,
// so at lax deadlines a table schedule can undercut the continuous-law
// optimum.
func TestLYYRigorChain(t *testing.T) {
	vr := DefaultVRange()
	rng := rand.New(rand.NewSource(43))
	const slack = 1e-6
	uniform3, err := volt.Uniform(3, vr.Lo, vr.Hi, vr.Scaling)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := 0; i < 300; i++ {
		p := randParams(rng)
		jobs := TwoPhaseJobs(p)
		exact, exactErr := OptimizeContinuousExact(jobs, vr)
		cont, contErr := OptimizeContinuous(p, vr)

		if exactErr != nil {
			// The relaxation is infeasible, so the §3 model must be too.
			if contErr == nil {
				t.Fatalf("p=%+v: exact infeasible (%v) but closed form solvable", p, exactErr)
			}
			continue
		}
		agg, err := AggregateClosedForm(jobs, vr)
		if err != nil {
			t.Fatalf("p=%+v: aggregate: %v", p, err)
		}
		if agg.EnergyVC > exact.EnergyVC*(1+slack) {
			t.Errorf("p=%+v: aggregate %v > exact %v", p, agg.EnergyVC, exact.EnergyVC)
		}
		if contErr == nil && exact.EnergyVC > cont.EnergyVC*(1+slack) {
			t.Errorf("p=%+v: exact %v > closed form %v", p, exact.EnergyVC, cont.EnergyVC)
		}
		sets := map[string]*volt.ModeSet{"uniform3": uniform3}
		for _, levels := range []int{7, 13} {
			ms, err := volt.Levels(levels)
			if err != nil {
				t.Fatal(err)
			}
			sets[fmt.Sprintf("levels%d", levels)] = ms
		}
		for name, ms := range sets {
			if _, _, ok := BaselineDiscrete(p, ms); !ok {
				continue // infeasible even at the fastest mode
			}
			dsol, err := OptimizeDiscrete(p, ms)
			if err != nil {
				t.Fatalf("p=%+v %s: %v", p, name, err)
			}
			if exact.EnergyVC > dsol.EnergyVC*(1+slack) {
				t.Errorf("p=%+v %s: exact %v > discrete %v", p, name, exact.EnergyVC, dsol.EnergyVC)
			}
			// Every feasible single-mode schedule sits above the exact
			// continuous optimum too.
			for m := 0; m < ms.Len(); m++ {
				mode := ms.Mode(m)
				if p.ExecTimeUS(mode.F) > p.DeadlineUS {
					continue
				}
				e := (p.R1() + p.NDependent) * mode.V * mode.V
				if exact.EnergyVC > e*(1+slack) {
					t.Errorf("p=%+v %s mode %v: exact %v > single-mode %v", p, name, mode, exact.EnergyVC, e)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no feasible discrete instance checked — widen randParams")
	}
}

// randJobs draws a multi-region instance with overlapping windows.
func randJobs(rng *rand.Rand) []Job {
	n := 1 + rng.Intn(8)
	jobs := make([]Job, n)
	for i := range jobs {
		r := rng.Float64() * 20000
		w := 500 + rng.Float64()*15000
		jobs[i] = Job{ReleaseUS: r, DeadlineUS: r + w, Cycles: rng.Float64() * 4e6}
	}
	return jobs
}

// TestLYYMultiRegionProperties checks the structural invariants of the exact
// solution on randomized multi-job instances: clamped frequencies, energy
// accounting, non-increasing interval intensities, upper and lower bounds,
// and deadline monotonicity.
func TestLYYMultiRegionProperties(t *testing.T) {
	vr := DefaultVRange()
	rng := rand.New(rand.NewSource(47))
	feasible := 0
	for i := 0; i < 400; i++ {
		jobs := randJobs(rng)
		sol, err := OptimizeContinuousExact(jobs, vr)
		if err != nil {
			var inf *ErrDeadlineInfeasible
			if !errors.As(err, &inf) {
				t.Fatalf("jobs=%+v: %v", jobs, err)
			}
			continue
		}
		feasible++

		var total, fastest float64
		for j, job := range jobs {
			f, v := sol.FreqMHz[j], sol.VoltV[j]
			if f < vr.FLo()*(1-1e-9) || f > vr.FHi()*(1+1e-9) {
				t.Fatalf("job %d frequency %v outside [%v, %v]", j, f, vr.FLo(), vr.FHi())
			}
			if !relClose(v, vr.Scaling.Voltage(f), 1e-9) {
				t.Fatalf("job %d voltage %v does not match frequency %v", j, v, f)
			}
			total += job.Cycles * v * v
			fastest += job.Cycles * vr.Hi * vr.Hi
		}
		if !relClose(total, sol.EnergyVC, 1e-9) {
			t.Fatalf("energy %v != per-job sum %v", sol.EnergyVC, total)
		}
		// Running everything at the top of the range is always feasible
		// for a feasible instance, so it upper-bounds the optimum.
		if sol.EnergyVC > fastest*(1+1e-9) {
			t.Fatalf("optimum %v above all-fastest energy %v", sol.EnergyVC, fastest)
		}
		agg, err := AggregateClosedForm(jobs, vr)
		if err != nil {
			t.Fatal(err)
		}
		if agg.EnergyVC > sol.EnergyVC*(1+1e-6) {
			t.Fatalf("aggregate bound %v above exact %v", agg.EnergyVC, sol.EnergyVC)
		}
		for k := 1; k < len(sol.Intervals); k++ {
			if sol.Intervals[k].FreqMHz > sol.Intervals[k-1].FreqMHz*(1+1e-9) {
				t.Fatalf("interval intensities not non-increasing: %+v", sol.Intervals)
			}
		}

		// Doubling every window can only add slack.
		wide := make([]Job, len(jobs))
		for j, job := range jobs {
			wide[j] = Job{ReleaseUS: job.ReleaseUS, DeadlineUS: job.ReleaseUS + 2*(job.DeadlineUS-job.ReleaseUS), Cycles: job.Cycles}
		}
		wsol, err := OptimizeContinuousExact(wide, vr)
		if err != nil {
			t.Fatalf("widened instance infeasible: %v", err)
		}
		if wsol.EnergyVC > sol.EnergyVC*(1+1e-9) {
			t.Fatalf("widened windows raised energy: %v > %v", wsol.EnergyVC, sol.EnergyVC)
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible instance drawn — widen randJobs")
	}
}

// TestLYYDeterministic: identical inputs produce bit-identical solutions.
func TestLYYDeterministic(t *testing.T) {
	vr := DefaultVRange()
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 50; i++ {
		jobs := randJobs(rng)
		a, errA := OptimizeContinuousExact(jobs, vr)
		b, errB := OptimizeContinuousExact(jobs, vr)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("feasibility flapped: %v vs %v", errA, errB)
		}
		if errA != nil {
			continue
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("solutions differ between runs:\n%+v\n%+v", a, b)
		}
	}
}
