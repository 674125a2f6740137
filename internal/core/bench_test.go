package core_test

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"ctdvs/internal/core"
	"ctdvs/internal/lp"
	"ctdvs/internal/milp"
	"ctdvs/internal/profile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// The solver benchmarks: the simplex on an assignment-shaped LP, and
// branch-and-bound on the paper workloads — serial with warm starts on and
// off, parallel, and with the analytic dual bound on and off.
// BenchmarkMILPParallel and BenchmarkMILPAnalyticBound rewrite the module
// root's BENCH_milp.json and BENCH_bound.json (make bench runs them).

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

// --- shared timing helper ---

// timeIters returns the mean wall nanoseconds of n invocations of fn.
func timeIters(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// --- parallel solver benchmarks ---
//
// BenchmarkMILPSerial and BenchmarkMILPParallel solve the same unfiltered
// (FilterTail < 0) mpeg/decode MILP with one worker and with max(4,
// GOMAXPROCS) workers. The serial benchmark measures a cold (warm starts
// disabled) baseline inline and reports the warm-vs-cold speedup; the
// parallel run measures a warm serial baseline inline, checks the objectives
// agree bit-for-bit across all three configurations, and writes the full
// record — both speedups plus the warm-start statistics — to
// BENCH_milp.json. Small search trees (like this one) stay under the
// solver's open-node threshold, so the parallel configuration auto-serializes
// and runs the serial algorithm verbatim instead of paying worker-pool
// overhead for no concurrency; the record reports that via auto_serialized.

// milpBenchRecord is the schema of BENCH_milp.json.
type milpBenchRecord struct {
	Benchmark  string `json:"benchmark"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	// Cold/serial/parallel wall times: cold is serial with warm starts
	// disabled, serial and parallel warm-start (the default).
	ColdSerialNsOp float64 `json:"cold_serial_ns_per_op"`
	SerialNsOp     float64 `json:"serial_ns_per_op"`
	ParallelNsOp   float64 `json:"parallel_ns_per_op"`
	WarmSpeedup    float64 `json:"speedup_warm_vs_cold"`
	Speedup        float64 `json:"speedup_vs_serial"`
	// AutoSerialized reports that the open-node threshold kept the worker
	// pool unspawned: the "parallel" solve ran the serial algorithm verbatim
	// (see milp.Options.ParallelThreshold).
	AutoSerialized bool    `json:"auto_serialized"`
	ObjectiveUJ    float64 `json:"objective_uj"`
	Nodes          int     `json:"bb_nodes"`
	// Warm-start statistics of the parallel run (see milp.Result).
	WarmSolves    int     `json:"warm_solves"`
	ColdSolves    int     `json:"cold_solves"`
	WarmFallbacks int     `json:"warm_fallbacks"`
	WarmHitRate   float64 `json:"warm_hit_rate"`
	LPPivots      int     `json:"lp_pivots"`
	PivotsPerNode float64 `json:"pivots_per_node"`
	LPTimeNs      float64 `json:"lp_time_ns"`
}

// milpBenchProfile collects the mpeg/decode profile and mid-range deadline
// shared by the MILP solver benchmarks.
func milpBenchProfile(b testing.TB) (*profile.Profile, float64) {
	b.Helper()
	m := sim.MustNew(sim.DefaultConfig())
	spec := workloads.MpegDecode(benchScale)
	pr, err := profile.Collect(m, spec.Program, spec.Inputs[0], volt.XScale3())
	if err != nil {
		b.Fatal(err)
	}
	n := pr.Modes.Len()
	return pr, (pr.TotalTimeUS[n-1] + pr.TotalTimeUS[0]) / 2
}

// solveMpegUnfiltered runs the full-edge-set optimization at the given
// branch-and-bound worker count, optionally with warm starts disabled.
func solveMpegUnfiltered(b testing.TB, pr *profile.Profile, dl float64, workers int, coldOnly bool) *core.Result {
	b.Helper()
	res, err := core.OptimizeSingle(pr, dl, &core.Options{
		FilterTail: -1,
		MILP: &milp.Options{
			TimeLimit:        2 * time.Minute,
			Workers:          workers,
			DisableWarmStart: coldOnly,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkMILPSerial(b *testing.B) {
	pr, dl := milpBenchProfile(b)

	coldStart := time.Now()
	cold := solveMpegUnfiltered(b, pr, dl, 1, true)
	coldNs := float64(time.Since(coldStart).Nanoseconds())

	b.ResetTimer()
	var warm *core.Result
	for i := 0; i < b.N; i++ {
		warm = solveMpegUnfiltered(b, pr, dl, 1, false)
	}
	b.StopTimer()

	if cold.PredictedEnergyUJ != warm.PredictedEnergyUJ {
		b.Fatalf("objective diverged: cold %v vs warm %v",
			cold.PredictedEnergyUJ, warm.PredictedEnergyUJ)
	}
	warmNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(warm.Solver.Nodes), "bb-nodes")
	b.ReportMetric(coldNs/warmNs, "speedup-warm-vs-cold")
	b.ReportMetric(warm.Solver.WarmHitRate(), "warm-hit-rate")
	b.ReportMetric(warm.Solver.PivotsPerNode(), "pivots-per-node")
}

func BenchmarkMILPParallel(b *testing.B) {
	pr, dl := milpBenchProfile(b)
	workers := 4
	if n := runtime.GOMAXPROCS(0); n > workers {
		workers = n
	}

	coldStart := time.Now()
	cold := solveMpegUnfiltered(b, pr, dl, 1, true)
	coldNs := float64(time.Since(coldStart).Nanoseconds())

	// The serial baseline is averaged over several solves (after an untimed
	// warm-up) so it reflects the same steady state — GC cycles included —
	// as the timed parallel loop; a one-shot measurement lands below the
	// steady-state mean and skews the ratio.
	solveMpegUnfiltered(b, pr, dl, 1, false)
	var serial *core.Result
	serialNs := timeIters(8, func() {
		serial = solveMpegUnfiltered(b, pr, dl, 1, false)
	})

	b.ResetTimer()
	var par *core.Result
	for i := 0; i < b.N; i++ {
		par = solveMpegUnfiltered(b, pr, dl, workers, false)
	}
	b.StopTimer()

	// Warm starts and parallelism must change the work only, never the
	// answer: all three configurations land on the identical objective.
	if cold.PredictedEnergyUJ != serial.PredictedEnergyUJ {
		b.Fatalf("objective diverged: cold %v vs warm serial %v",
			cold.PredictedEnergyUJ, serial.PredictedEnergyUJ)
	}
	if d := math.Abs(serial.PredictedEnergyUJ - par.PredictedEnergyUJ); d > 1e-9 {
		b.Fatalf("objective diverged: serial %v vs parallel %v (Δ=%g)",
			serial.PredictedEnergyUJ, par.PredictedEnergyUJ, d)
	}
	if par.Solver.AutoSerialized &&
		(par.PredictedEnergyUJ != serial.PredictedEnergyUJ || par.Solver.Nodes != serial.Solver.Nodes) {
		b.Fatalf("auto-serialized solve diverged from serial: %v/%d vs %v/%d",
			par.PredictedEnergyUJ, par.Solver.Nodes, serial.PredictedEnergyUJ, serial.Solver.Nodes)
	}
	parNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	rec := milpBenchRecord{
		Benchmark:      "mpeg/decode",
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Workers:        workers,
		ColdSerialNsOp: coldNs,
		SerialNsOp:     serialNs,
		ParallelNsOp:   parNs,
		WarmSpeedup:    coldNs / serialNs,
		Speedup:        serialNs / parNs,
		AutoSerialized: par.Solver.AutoSerialized,
		ObjectiveUJ:    par.PredictedEnergyUJ,
		Nodes:          par.Solver.Nodes,
		WarmSolves:     par.Solver.WarmSolves,
		ColdSolves:     par.Solver.ColdSolves,
		WarmFallbacks:  par.Solver.WarmFallbacks,
		WarmHitRate:    par.Solver.WarmHitRate(),
		LPPivots:       par.Solver.LPPivots,
		PivotsPerNode:  par.Solver.PivotsPerNode(),
		LPTimeNs:       float64(par.Solver.LPTime.Nanoseconds()),
	}
	b.ReportMetric(serialNs/parNs, "raw-parallel-ratio")
	if rec.AutoSerialized {
		// Below the open-node threshold the parallel configuration executes
		// the exact serial node sequence (asserted above), so the measured
		// ratio is scheduling noise between two runs of the same code; the
		// record keeps both raw wall times and states the structural fact —
		// a speedup of exactly 1 — instead of the noise.
		rec.Speedup = 1.0
	}
	b.ReportMetric(rec.Speedup, "speedup-vs-serial")
	b.ReportMetric(rec.WarmSpeedup, "speedup-warm-vs-cold")
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_milp.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// --- analytic dual-bound benchmark ---
//
// BenchmarkMILPAnalyticBound solves the unfiltered mpeg/decode MILP with the
// Li–Yao–Yuan analytic dual bound enabled (the default) and disabled
// (milp.Options.DisableAnalyticBound), at the mid-range benchmark deadline
// and at a tight deadline where child pruning fires hardest. The bound is a
// relaxation, so it may only change the work, never the answer: the record
// asserts bit-identical objectives and strictly fewer committed
// branch-and-bound nodes with the bound on, and writes node and wall-time
// ratios to BENCH_bound.json (benchcheck gates the node speedups against
// their floors).

// boundBenchRecord is the schema of BENCH_bound.json.
type boundBenchRecord struct {
	Benchmark    string  `json:"benchmark"`
	Scale        float64 `json:"scale"`
	ObjectiveUJ  float64 `json:"objective_uj"`
	BitIdentical bool    `json:"bit_identical"`
	// Mid-range deadline (the BenchmarkMILPSerial operating point).
	DeadlineUS        float64 `json:"deadline_us"`
	NodesOff          int     `json:"bb_nodes_bound_off"`
	NodesOn           int     `json:"bb_nodes_bound_on"`
	AnalyticPrunes    int     `json:"analytic_prunes"`
	NodesSpeedup      float64 `json:"speedup_nodes_bound_on_vs_off"`
	NodesSpeedupFloor float64 `json:"speedup_nodes_bound_on_vs_off_floor"`
	OffNsOp           float64 `json:"bound_off_ns_per_op"`
	OnNsOp            float64 `json:"bound_on_ns_per_op"`
	WallRatio         float64 `json:"wall_ratio_off_vs_on"`
	// Tight deadline (15% of the slack span above the fastest schedule),
	// where most children die against the incumbent before any LP solve.
	TightDeadlineUS        float64 `json:"tight_deadline_us"`
	TightNodesOff          int     `json:"tight_bb_nodes_bound_off"`
	TightNodesOn           int     `json:"tight_bb_nodes_bound_on"`
	TightAnalyticPrunes    int     `json:"tight_analytic_prunes"`
	TightNodesSpeedup      float64 `json:"speedup_nodes_tight_bound_on_vs_off"`
	TightNodesSpeedupFloor float64 `json:"speedup_nodes_tight_bound_on_vs_off_floor"`
}

// solveMpegBounded runs the unfiltered warm serial solve with the analytic
// dual bound switched on or off.
func solveMpegBounded(b testing.TB, pr *profile.Profile, dl float64, disable bool) *core.Result {
	b.Helper()
	res, err := core.OptimizeSingle(pr, dl, &core.Options{
		FilterTail: -1,
		MILP: &milp.Options{
			TimeLimit:            2 * time.Minute,
			Workers:              1,
			DisableAnalyticBound: disable,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkMILPAnalyticBound(b *testing.B) {
	pr, dl := milpBenchProfile(b)

	// Off baseline, averaged after an untimed warm-up like the parallel
	// benchmark's serial baseline.
	solveMpegBounded(b, pr, dl, true)
	var off *core.Result
	offNs := timeIters(8, func() {
		off = solveMpegBounded(b, pr, dl, true)
	})

	b.ResetTimer()
	var on *core.Result
	for i := 0; i < b.N; i++ {
		on = solveMpegBounded(b, pr, dl, false)
	}
	b.StopTimer()
	onNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)

	if off.PredictedEnergyUJ != on.PredictedEnergyUJ {
		b.Fatalf("objective diverged: bound off %v vs on %v",
			off.PredictedEnergyUJ, on.PredictedEnergyUJ)
	}
	if on.Solver.Nodes >= off.Solver.Nodes {
		b.Fatalf("analytic bound did not shrink the tree: %d nodes on vs %d off",
			on.Solver.Nodes, off.Solver.Nodes)
	}

	// Tight deadline: nodes only, one solve per configuration.
	n := pr.Modes.Len()
	fast, slow := pr.TotalTimeUS[n-1], pr.TotalTimeUS[0]
	if fast > slow {
		fast, slow = slow, fast
	}
	dlTight := fast + 0.15*(slow-fast)
	tOff := solveMpegBounded(b, pr, dlTight, true)
	tOn := solveMpegBounded(b, pr, dlTight, false)
	if tOff.PredictedEnergyUJ != tOn.PredictedEnergyUJ {
		b.Fatalf("tight objective diverged: bound off %v vs on %v",
			tOff.PredictedEnergyUJ, tOn.PredictedEnergyUJ)
	}
	if tOn.Solver.Nodes >= tOff.Solver.Nodes {
		b.Fatalf("analytic bound did not shrink the tight tree: %d nodes on vs %d off",
			tOn.Solver.Nodes, tOff.Solver.Nodes)
	}

	rec := boundBenchRecord{
		Benchmark:    "mpeg/decode",
		Scale:        benchScale,
		ObjectiveUJ:  on.PredictedEnergyUJ,
		BitIdentical: true,

		DeadlineUS:     dl,
		NodesOff:       off.Solver.Nodes,
		NodesOn:        on.Solver.Nodes,
		AnalyticPrunes: on.Solver.AnalyticPrunes,
		NodesSpeedup:   float64(off.Solver.Nodes) / float64(on.Solver.Nodes),
		// The solve is deterministic at fixed scale, so the measured node
		// ratios are exact; the floors sit just under them to catch any
		// regression of the bound's strength.
		NodesSpeedupFloor: 1.05,
		OffNsOp:           offNs,
		OnNsOp:            onNs,
		WallRatio:         offNs / onNs,

		TightDeadlineUS:        dlTight,
		TightNodesOff:          tOff.Solver.Nodes,
		TightNodesOn:           tOn.Solver.Nodes,
		TightAnalyticPrunes:    tOn.Solver.AnalyticPrunes,
		TightNodesSpeedup:      float64(tOff.Solver.Nodes) / float64(tOn.Solver.Nodes),
		TightNodesSpeedupFloor: 1.05,
	}
	b.ReportMetric(rec.NodesSpeedup, "nodes-speedup")
	b.ReportMetric(float64(rec.AnalyticPrunes), "analytic-prunes")
	b.ReportMetric(rec.WallRatio, "wall-ratio-off-vs-on")
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_bound.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
