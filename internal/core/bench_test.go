package core_test

import (
	"testing"
	"time"

	"ctdvs/internal/core"
	"ctdvs/internal/exp"
	"ctdvs/internal/lp"
	"ctdvs/internal/milp"
	"ctdvs/internal/profile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// The solver benchmarks: the simplex on an assignment-shaped LP,
// branch-and-bound on the paper workloads (serial, warm starts against a
// cold inline baseline) and the task-graph solve.

// benchScale is the workload scale of the solver benchmarks and of the
// solver golden: perfbench's 0.1, where the solve sweep's trees are a few
// thousand nodes deep.
const benchScale = 0.1

func BenchmarkLPSolve(b *testing.B) {
	// An assignment-shaped LP of the DVS formulation's structure.
	build := func() *lp.Problem {
		p := lp.NewProblem()
		var budget []lp.Term
		for g := 0; g < 150; g++ {
			row := make([]lp.Term, 3)
			for m := 0; m < 3; m++ {
				v := p.AddVariable(float64((g*7+m*13)%17)+1, 0, 1)
				row[m] = lp.Term{Var: v, Coef: 1}
				budget = append(budget, lp.Term{Var: v, Coef: float64(m + 1)})
			}
			p.MustAddConstraint(row, lp.EQ, 1)
		}
		p.MustAddConstraint(budget, lp.LE, 320)
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := build().Solve(nil)
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("solve failed: %v %v", err, sol)
		}
	}
}

func BenchmarkMILPOptimize(b *testing.B) {
	m := sim.MustNew(sim.DefaultConfig())
	spec := workloads.Epic(benchScale)
	pr, err := profile.Collect(m, spec.Program, spec.Inputs[0], volt.XScale3())
	if err != nil {
		b.Fatal(err)
	}
	n := pr.Modes.Len()
	dl := (pr.TotalTimeUS[n-1] + pr.TotalTimeUS[0]) / 2
	b.ResetTimer()
	var nodes float64
	for i := 0; i < b.N; i++ {
		res, err := core.OptimizeSingle(pr, dl, nil)
		if err != nil {
			b.Fatal(err)
		}
		nodes = float64(res.Solver.Nodes)
	}
	b.ReportMetric(nodes, "bb-nodes")
}

// milpBenchProfile collects the mpeg/decode profile and mid-range deadline
// shared by the MILP solver benchmark and the analytic-bound node tests.
func milpBenchProfile(tb testing.TB) (*profile.Profile, float64) {
	tb.Helper()
	m := sim.MustNew(sim.DefaultConfig())
	spec := workloads.MpegDecode(benchScale)
	pr, err := profile.Collect(m, spec.Program, spec.Inputs[0], volt.XScale3())
	if err != nil {
		tb.Fatal(err)
	}
	n := pr.Modes.Len()
	return pr, (pr.TotalTimeUS[n-1] + pr.TotalTimeUS[0]) / 2
}

// solveMpegUnfiltered runs the full-edge-set optimization with one
// branch-and-bound worker, optionally with warm starts disabled.
func solveMpegUnfiltered(tb testing.TB, pr *profile.Profile, dl float64, coldOnly bool) *core.Result {
	tb.Helper()
	res, err := core.OptimizeSingle(pr, dl, &core.Options{
		FilterTail: -1,
		MILP: &milp.Options{
			TimeLimit:        2 * time.Minute,
			Workers:          1,
			DisableWarmStart: coldOnly,
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkMILPSerial times the unfiltered mpeg/decode MILP with warm
// starts (the default) against one cold solve (warm starts disabled)
// measured inline. Both must land on the same objective, and the benchmark
// fails when warm starting is not faster than solving every node cold.
func BenchmarkMILPSerial(b *testing.B) {
	pr, dl := milpBenchProfile(b)

	coldStart := time.Now()
	cold := solveMpegUnfiltered(b, pr, dl, true)
	coldNs := float64(time.Since(coldStart).Nanoseconds())

	b.ResetTimer()
	var warm *core.Result
	for i := 0; i < b.N; i++ {
		warm = solveMpegUnfiltered(b, pr, dl, false)
	}
	b.StopTimer()

	if cold.PredictedEnergyUJ != warm.PredictedEnergyUJ {
		b.Fatalf("objective diverged: cold %v vs warm %v",
			cold.PredictedEnergyUJ, warm.PredictedEnergyUJ)
	}
	warmNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	speedup := coldNs / warmNs
	b.ReportMetric(float64(warm.Solver.Nodes), "bb-nodes")
	b.ReportMetric(speedup, "speedup-warm-vs-cold")
	b.ReportMetric(warm.Solver.WarmHitRate(), "warm-hit-rate")
	b.ReportMetric(warm.Solver.PivotsPerNode(), "pivots-per-node")
	if speedup < 1 {
		b.Fatalf("warm-started solve %.0f ns is slower than the cold solve %.0f ns (speedup %.3f < 1)",
			warmNs, coldNs, speedup)
	}
}

// BenchmarkTaskGraphSolve times one multi-core task-graph solve, HEFT list
// placement plus the per-task mode MILP under precedence and deadline rows,
// on a wide fork-join DAG at scale 0.1.
func BenchmarkTaskGraphSolve(b *testing.B) {
	gw, err := exp.NewConfig(benchScale).BuildGraph(workloads.ForkJoin(8, 4), 3, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *core.GraphResult
	for i := 0; i < b.N; i++ {
		if res, err = core.OptimizeGraph(gw.Graph, gw.Profiles, gw.Cores, gw.DeadlineUS, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Solver.Nodes), "bb-nodes")
}
