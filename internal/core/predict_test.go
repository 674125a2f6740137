package core

import (
	"errors"
	"math"
	"testing"

	"ctdvs/internal/milp"
	"ctdvs/internal/profile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// TestPredictedTimeDeterministic checks that PredictedTimeUS has the same
// bits however often an incumbent is priced. Each solve-sweep cell (the
// suite at scale 0.1 and 7 levels, c = 10 µF, deadlines D1–D5; unfiltered,
// and filtered as dvs-opt runs by default) is solved once and its
// incumbent extracted again and again: the transition-time sum runs over a
// map of group pairs, so it must run in a fixed order for its last bits to
// hold still.
func TestPredictedTimeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the 30 solve-sweep cells")
	}
	t.Parallel()
	m := sim.MustNew(sim.DefaultConfig())
	ms, err := volt.Levels(7)
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, spec := range workloads.All(0.1) {
		pr, err := profile.Collect(m, spec.Program, spec.Inputs[0], ms)
		if err != nil {
			t.Fatal(err)
		}
		n := pr.Modes.Len()
		for cell := 0; cell < 10; cell++ {
			k, tail := cell%5+1, -1.0
			if cell >= 5 {
				tail = 0 // the default edge filter
			}
			dl := spec.Deadline(k, pr.TotalTimeUS[n-1], pr.TotalTimeUS[0])
			prep, err := Prepare([]Category{{Profile: pr, Weight: 1, DeadlineUS: dl}},
				&Options{FilterTail: tail, MILP: &milp.Options{Workers: 1}})
			if err != nil {
				t.Fatal(err)
			}
			fm := prep.Formulate(prep.Filter())
			res, err := fm.Solve()
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			cells++
			want := math.Float64bits(res.PredictedTimeUS[0])
			for i := 0; i < 20; i++ {
				again, err := fm.f.extract(res.Solver, prep.Cats, prep.Opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := math.Float64bits(again.PredictedTimeUS[0]); got != want {
					t.Fatalf("%s D%d filter tail %v: predicted time %016x, then %016x", spec.Name, k, tail, want, got)
				}
			}
		}
	}
	if cells < 50 {
		t.Fatalf("only %d of 60 cells feasible", cells)
	}
}
