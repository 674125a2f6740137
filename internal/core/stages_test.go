package core

import (
	"math"
	"reflect"
	"testing"
)

// TestStagedAPIMatchesOptimize pins the refactor invariant: composing the
// staged API by hand produces exactly what Optimize returns.
func TestStagedAPIMatchesOptimize(t *testing.T) {
	_, pr := collectTwoPhase(t)
	dl := midDeadline(pr)
	cats := []Category{{Profile: pr, Weight: 1, DeadlineUS: dl}}

	whole, err := Optimize(cats, nil)
	if err != nil {
		t.Fatal(err)
	}

	prep, err := Prepare(cats, nil)
	if err != nil {
		t.Fatal(err)
	}
	grouping := prep.Filter()
	staged, err := prep.Formulate(grouping).Solve()
	if err != nil {
		t.Fatal(err)
	}

	if staged.PredictedEnergyUJ != whole.PredictedEnergyUJ {
		t.Errorf("energy: staged %g, whole %g", staged.PredictedEnergyUJ, whole.PredictedEnergyUJ)
	}
	if !reflect.DeepEqual(staged.PredictedTimeUS, whole.PredictedTimeUS) {
		t.Errorf("times: staged %v, whole %v", staged.PredictedTimeUS, whole.PredictedTimeUS)
	}
	if staged.IndependentEdges != whole.IndependentEdges || staged.TotalEdges != whole.TotalEdges {
		t.Errorf("edges: staged %d/%d, whole %d/%d",
			staged.IndependentEdges, staged.TotalEdges, whole.IndependentEdges, whole.TotalEdges)
	}
	if !reflect.DeepEqual(staged.Schedule.Assignment, whole.Schedule.Assignment) {
		t.Error("schedules differ between staged and whole-call API")
	}
	if grouping.IndependentEdges != whole.IndependentEdges {
		t.Errorf("grouping reports %d independent edges, result %d",
			grouping.IndependentEdges, whole.IndependentEdges)
	}
}

// TestPrepareCanonicalizes checks the canonicalization contract cache keys
// rely on: defaults are filled in and weights are normalized, without
// mutating the caller's slice.
func TestPrepareCanonicalizes(t *testing.T) {
	_, pr := collectTwoPhase(t)
	dl := midDeadline(pr)
	cats := []Category{
		{Profile: pr, Weight: 3, DeadlineUS: dl},
		{Profile: pr, Weight: 1, DeadlineUS: dl * 2},
	}
	prep, err := Prepare(cats, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Opts.FilterTail != 0.02 {
		t.Errorf("FilterTail = %g, want 0.02", prep.Opts.FilterTail)
	}
	if err := prep.Opts.Regulator.Validate(); err != nil {
		t.Errorf("regulator not defaulted: %v", err)
	}
	if prep.Cats[0].Weight != 0.75 || prep.Cats[1].Weight != 0.25 {
		t.Errorf("weights = %g, %g; want 0.75, 0.25", prep.Cats[0].Weight, prep.Cats[1].Weight)
	}
	if cats[0].Weight != 3 {
		t.Error("Prepare mutated the caller's categories")
	}

	if _, err := Prepare(nil, nil); err == nil {
		t.Error("Prepare accepted empty categories")
	}
	if _, err := Prepare([]Category{{Profile: pr, Weight: -1, DeadlineUS: dl}}, nil); err == nil {
		t.Error("Prepare accepted negative weight")
	}
}

// TestPrepareRejectsNonFinite checks that a zero, negative, NaN or infinite
// weight or deadline fails preparation instead of reaching the MILP.
func TestPrepareRejectsNonFinite(t *testing.T) {
	_, pr := collectTwoPhase(t)
	dl := midDeadline(pr)
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Prepare([]Category{{Profile: pr, Weight: v, DeadlineUS: dl}}, nil); err == nil {
			t.Errorf("Prepare accepted weight %v", v)
		}
		if _, err := Prepare([]Category{{Profile: pr, Weight: 1, DeadlineUS: v}}, nil); err == nil {
			t.Errorf("Prepare accepted deadline %v", v)
		}
	}
}
