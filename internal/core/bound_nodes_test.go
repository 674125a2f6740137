package core_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"ctdvs/internal/core"
	"ctdvs/internal/exp"
	"ctdvs/internal/lp"
	"ctdvs/internal/milp"
	"ctdvs/internal/profile"
)

// declineBound is an analytic-bound callback that declines every box: passed
// as milp.Options.AnalyticBound it keeps core from installing its own bound,
// and the search runs exactly as with no bound.
func declineBound(map[int]lp.Bound) (float64, bool) { return 0, false }

// solveBoundOnOff solves one unfiltered serial cell twice, with core's
// analytic bound and with the bound switched off, and checks that the bound
// moved no bit of the answer.
func solveBoundOnOff(t *testing.T, name string, pr *profile.Profile, dl float64, o *core.Options) (on, off *core.Result) {
	t.Helper()
	solve := func(withBound bool) *core.Result {
		oo := *o
		mo := *o.MILP
		if !withBound {
			mo.AnalyticBound = declineBound
		}
		oo.MILP = &mo
		res, err := core.OptimizeSingle(pr, dl, &oo)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	on, off = solve(true), solve(false)
	if math.Float64bits(on.Solver.Objective) != math.Float64bits(off.Solver.Objective) ||
		math.Float64bits(on.PredictedEnergyUJ) != math.Float64bits(off.PredictedEnergyUJ) {
		t.Errorf("%s: the bound moved the answer: objective %v on, %v off; energy %v on, %v off", name,
			on.Solver.Objective, off.Solver.Objective, on.PredictedEnergyUJ, off.PredictedEnergyUJ)
	}
	if off.Solver.AnalyticPrunes != 0 {
		t.Errorf("%s: %d analytic prunes with the bound off", name, off.Solver.AnalyticPrunes)
	}
	return on, off
}

// TestAnalyticBoundShrinksMpegTree holds the Li–Yao–Yuan-style analytic
// bound to its node floors on the unfiltered 3-level mpeg/decode MILP
// (scale 0.1, one worker): at the mid-range deadline and at a tight one
// (15% of the slack span above the fastest schedule), switching the bound
// on must cut the committed branch-and-bound nodes by a factor of at least
// 1.05 and leave the objective's bits alone.
func TestAnalyticBoundShrinksMpegTree(t *testing.T) {
	const floor = 1.05
	pr, mid := milpBenchProfile(t)
	n := pr.Modes.Len()
	fast, slow := pr.TotalTimeUS[n-1], pr.TotalTimeUS[0]
	o := &core.Options{FilterTail: -1, MILP: &milp.Options{TimeLimit: 2 * time.Minute, Workers: 1}}
	for _, c := range []struct {
		name string
		dl   float64
	}{{"mid", mid}, {"tight", fast + 0.15*(slow-fast)}} {
		on, off := solveBoundOnOff(t, "mpeg/decode "+c.name, pr, c.dl, o)
		ratio := float64(off.Solver.Nodes) / float64(on.Solver.Nodes)
		t.Logf("%s deadline: %d nodes off, %d on (%.3f×), %d prunes",
			c.name, off.Solver.Nodes, on.Solver.Nodes, ratio, on.Solver.AnalyticPrunes)
		if ratio < floor {
			t.Errorf("%s deadline: bound off/on nodes %d/%d = %.3f, want ≥ %v",
				c.name, off.Solver.Nodes, on.Solver.Nodes, ratio, floor)
		}
	}
}

// TestAnalyticBoundShrinksSolveSweep holds the bound to the whole solve
// sweep (every suite benchmark at deadlines D1–D5, 7 levels, unfiltered,
// c = 10 µF, one worker): no cell may commit more nodes with the bound on
// than off, every cell keeps its objective bits, and the sweep's total node
// count must shrink by a factor of at least 1.2.
func TestAnalyticBoundShrinksSolveSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("the solve sweep solves 60 MILPs")
	}
	const floor = 1.2
	cfg := exp.NewConfig(benchScale)
	o := goldenOptions(10e-6, 1)
	o.FilterTail = -1
	var nodesOn, nodesOff, prunes int
	for _, bench := range exp.Suite() {
		spec, err := cfg.Spec(bench)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := cfg.Profile(bench, 0, 7)
		if err != nil {
			t.Fatal(err)
		}
		n := pr.Modes.Len()
		for k := 1; k <= 5; k++ {
			dl := spec.Deadline(k, pr.TotalTimeUS[n-1], pr.TotalTimeUS[0])
			name := fmt.Sprintf("%s D%d", bench, k)
			on, off := solveBoundOnOff(t, name, pr, dl, o)
			if on.Solver.Nodes > off.Solver.Nodes {
				t.Errorf("%s: %d nodes with the bound on, %d off", name, on.Solver.Nodes, off.Solver.Nodes)
			}
			nodesOn += on.Solver.Nodes
			nodesOff += off.Solver.Nodes
			prunes += on.Solver.AnalyticPrunes
		}
	}
	ratio := float64(nodesOff) / float64(nodesOn)
	t.Logf("solve sweep: %d nodes off, %d on (%.3f×), %d prunes", nodesOff, nodesOn, ratio, prunes)
	if ratio < floor {
		t.Errorf("solve sweep: bound off/on nodes %d/%d = %.3f, want ≥ %v", nodesOff, nodesOn, ratio, floor)
	}
}
