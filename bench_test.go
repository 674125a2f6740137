// Benchmarks regenerating every table and figure of the paper's evaluation,
// one testing.B per experiment (see DESIGN.md for the index), plus
// micro-benchmarks of the substrates (simulator, LP, MILP). Custom metrics
// surface each experiment's headline number: peak savings for the analytic
// surfaces, filtering speedup for Figure 14, and so on.
//
// The experiment benchmarks run the workloads at a reduced scale (0.1) so a
// full -bench=. pass stays in CI-friendly territory; cmd/dvs-bench runs the
// same experiments at scale 1.0.
package ctdvs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	cfggraph "ctdvs/internal/cfg"
	"ctdvs/internal/core"
	"ctdvs/internal/exp"
	"ctdvs/internal/ir"
	"ctdvs/internal/lp"
	"ctdvs/internal/milp"
	"ctdvs/internal/paths"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/profile"
	"ctdvs/internal/serve"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

const benchScale = 0.1

var (
	benchCfgOnce sync.Once
	benchCfg     *exp.Config
)

// cfg returns the shared experiment config; profiles are collected once and
// cached across benchmarks.
func cfg() *exp.Config {
	benchCfgOnce.Do(func() {
		benchCfg = exp.NewConfig(benchScale)
		benchCfg.MILP = &milp.Options{TimeLimit: 2 * time.Minute}
	})
	return benchCfg
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if c := exp.Figure2(); len(c.X) == 0 {
			b.Fatal("empty curve")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if c := exp.Figure3(); len(c.X) == 0 {
			b.Fatal("empty curve")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if c := exp.Figure4(); len(c.X) == 0 {
			b.Fatal("empty curve")
		}
	}
}

func benchSurface(b *testing.B, mk func(int) *exp.Surface) {
	b.Helper()
	var peak float64
	for i := 0; i < b.N; i++ {
		peak = mk(12).Max()
	}
	b.ReportMetric(peak, "peak-savings")
}

func BenchmarkFigure5(b *testing.B) { benchSurface(b, exp.Figure5) }
func BenchmarkFigure6(b *testing.B) { benchSurface(b, exp.Figure6) }
func BenchmarkFigure7(b *testing.B) { benchSurface(b, exp.Figure7) }

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := exp.Figure8(100)
		if err != nil {
			b.Fatal(err)
		}
		if len(c.X) == 0 {
			b.Fatal("empty feasible band")
		}
	}
}

func benchSurfaceErr(b *testing.B, mk func(int) (*exp.Surface, error)) {
	b.Helper()
	var peak float64
	for i := 0; i < b.N; i++ {
		s, err := mk(10)
		if err != nil {
			b.Fatal(err)
		}
		peak = s.Max()
	}
	b.ReportMetric(peak, "peak-savings")
}

func BenchmarkFigure9(b *testing.B)  { benchSurfaceErr(b, exp.Figure9) }
func BenchmarkFigure10(b *testing.B) { benchSurfaceErr(b, exp.Figure10) }
func BenchmarkFigure11(b *testing.B) { benchSurfaceErr(b, exp.Figure11) }

func BenchmarkTable1(b *testing.B) {
	c := cfg()
	var lax3 float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table1(c)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Levels == 3 && r.Benchmark == "gsm/encode" {
				lax3 = r.Savings[4]
			}
		}
	}
	b.ReportMetric(lax3, "gsm-3lvl-laxest-savings")
}

func BenchmarkTable3Figure14(b *testing.B) {
	c := cfg()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table3Figure14(c)
		if err != nil {
			b.Fatal(err)
		}
		speedup = 0
		for _, r := range rows {
			speedup += r.Speedup()
		}
		speedup /= float64(len(rows))
	}
	b.ReportMetric(speedup, "mean-filter-speedup")
}

func BenchmarkTable4(b *testing.B) {
	c := cfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table4(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Figures17And18(b *testing.B) {
	c := cfg()
	var switches int64
	for i := 0; i < b.N; i++ {
		rows, err := exp.DeadlineSweep(c)
		if err != nil {
			b.Fatal(err)
		}
		switches = 0
		for _, r := range rows {
			for _, n := range r.Transitions {
				switches += n
			}
		}
	}
	b.ReportMetric(float64(switches), "total-transitions")
}

func BenchmarkTable6(b *testing.B) {
	c := cfg()
	var lax3 float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table6(c)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Levels == 3 && r.Benchmark == "gsm/encode" {
				lax3 = r.Savings[4]
			}
		}
	}
	b.ReportMetric(lax3, "gsm-3lvl-laxest-savings")
}

func BenchmarkTable7(b *testing.B) {
	c := cfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table7(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure15(b *testing.B) {
	c := cfg()
	var drop float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure15(c)
		if err != nil {
			b.Fatal(err)
		}
		drop = 0
		for _, r := range rows {
			drop += r.NormEnergy[0] - r.NormEnergy[len(r.NormEnergy)-1]
		}
		drop /= float64(len(rows))
	}
	b.ReportMetric(drop, "mean-energy-drop")
}

func BenchmarkFigure19(b *testing.B) {
	c := cfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure19(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTransitionCost(b *testing.B) {
	c := cfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationNoTransitionCost(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBlockEdge(b *testing.B) {
	c := cfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationBlockBased(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHeuristic(b *testing.B) {
	c := cfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationHeuristic(c); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkSimulatorMpeg(b *testing.B) {
	spec := workloads.MpegDecode(benchScale)
	m := sim.MustNew(sim.DefaultConfig())
	mode := volt.XScale3().Mode(2)
	b.ResetTimer()
	var cycles float64
	for i := 0; i < b.N; i++ {
		res, err := m.Run(spec.Program, spec.Inputs[0], mode)
		if err != nil {
			b.Fatal(err)
		}
		cycles = float64(res.Params.NCache + res.Params.NOverlap + res.Params.NDependent)
	}
	b.ReportMetric(cycles/b.Elapsed().Seconds()*float64(b.N)/1e6, "Mcycles/s")
}

// profileBenchRecord is the schema of BENCH_profile.json.
type profileBenchRecord struct {
	Benchmark    string  `json:"benchmark"`
	Levels       int     `json:"levels"`
	PerModeNsOp  float64 `json:"per_mode_ns_per_op"`
	RecordedNsOp float64 `json:"recorded_ns_per_op"`
	Speedup      float64 `json:"speedup_recorded_vs_per_mode"`
	BitIdentical bool    `json:"bit_identical"`
}

// BenchmarkProfileCollect measures what record-once/replay-per-mode buys: the
// timed loop runs profile.Collect (one instrumented simulation plus a batched
// replay for the other modes) over the 7-level mode set, against an inline
// per-mode baseline (7 full simulations). The two profiles are checked
// bit-identical via the canonical codec, and the record lands in
// BENCH_profile.json.
func BenchmarkProfileCollect(b *testing.B) {
	spec := workloads.Gsm(benchScale)
	const levels = 7
	ms, err := volt.Levels(levels)
	if err != nil {
		b.Fatal(err)
	}
	m := sim.MustNew(sim.DefaultConfig())

	pmStart := time.Now()
	baseline, err := profile.CollectPerMode(m, spec.Program, spec.Inputs[0], ms)
	if err != nil {
		b.Fatal(err)
	}
	pmNs := float64(time.Since(pmStart).Nanoseconds())

	b.ResetTimer()
	var pr *profile.Profile
	for i := 0; i < b.N; i++ {
		if pr, err = profile.Collect(m, spec.Program, spec.Inputs[0], ms); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	wantEnc, err := profile.Encode(baseline)
	if err != nil {
		b.Fatal(err)
	}
	gotEnc, err := profile.Encode(pr)
	if err != nil {
		b.Fatal(err)
	}
	if string(wantEnc) != string(gotEnc) {
		b.Fatal("replayed profile is not bit-identical to the per-mode profile")
	}
	recNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	rec := profileBenchRecord{
		Benchmark:    spec.Name,
		Levels:       levels,
		PerModeNsOp:  pmNs,
		RecordedNsOp: recNs,
		Speedup:      pmNs / recNs,
		BitIdentical: true,
	}
	b.ReportMetric(rec.Speedup, "speedup-vs-per-mode")
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_profile.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

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

func BenchmarkDVSExecution(b *testing.B) {
	m := sim.MustNew(sim.DefaultConfig())
	spec := workloads.Gsm(benchScale)
	pr, err := profile.Collect(m, spec.Program, spec.Inputs[0], volt.XScale3())
	if err != nil {
		b.Fatal(err)
	}
	n := pr.Modes.Len()
	dl := (pr.TotalTimeUS[n-1] + pr.TotalTimeUS[0]) / 2
	res, err := core.OptimizeSingle(pr, dl, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunDVS(spec.Program, spec.Inputs[0], res.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}

var benchWorkloadSink *ir.Program

// BenchmarkWorkloadConstruction measures building the six-benchmark suite.
func BenchmarkWorkloadConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range workloads.All(benchScale) {
			benchWorkloadSink = s.Program
		}
	}
}

func BenchmarkRuntimeVsCompileTime(b *testing.B) {
	c := cfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RuntimeVsCompileTime(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLeakage(b *testing.B) {
	c := cfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationLeakage(c, exp.DefaultLeakageSweep()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPathFilter(b *testing.B) {
	c := cfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationPathFilter(c, 0.98); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlacementStats(b *testing.B) {
	c := cfg()
	var silent int
	for i := 0; i < b.N; i++ {
		rows, err := exp.PlacementStats(c)
		if err != nil {
			b.Fatal(err)
		}
		silent = 0
		for _, r := range rows {
			silent += r.Silent
		}
	}
	b.ReportMetric(float64(silent), "silent-mode-sets")
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
	if err := os.WriteFile("BENCH_milp.json", append(out, '\n'), 0o644); err != nil {
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
	if err := os.WriteFile("BENCH_bound.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExpPipeline runs the deadline-sweep pipeline (profile collection,
// 6×5 optimize+measure cells) end to end on a fresh config with the full
// experiment fan-out, the workload cmd/dvs-bench -workers parallelizes.
func BenchmarkExpPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := exp.NewConfig(benchScale)
		c.MILP = &milp.Options{TimeLimit: 2 * time.Minute}
		c.Workers = 0 // GOMAXPROCS-wide fan-out
		if _, err := exp.DeadlineSweep(c); err != nil {
			b.Fatal(err)
		}
	}
}

// pipelineBenchRecord is the schema of BENCH_pipeline.json.
type pipelineBenchRecord struct {
	Experiment string  `json:"experiment"`
	Scale      float64 `json:"scale"`
	ColdNsOp   float64 `json:"cold_ns_per_op"`
	WarmNsOp   float64 `json:"warm_ns_per_op"`
	Speedup    float64 `json:"speedup_cold_vs_warm"`
	AllHits    bool    `json:"warm_all_hits"`
	DiskHits   int     `json:"warm_disk_hits"`
}

// sweepWithStore runs the deadline sweep on a fresh config backed by the
// given artifact store, returning the config for manifest inspection.
func sweepWithStore(b *testing.B, store *pipeline.Store) *exp.Config {
	b.Helper()
	c := exp.NewConfig(benchScale)
	c.MILP = &milp.Options{TimeLimit: 2 * time.Minute}
	c.Pipeline = pipeline.NewRunner(store)
	if _, err := exp.DeadlineSweep(c); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkPipelineColdVsWarm measures what the artifact store buys: one cold
// deadline sweep populates a store, then each timed iteration replays the
// sweep from a process-fresh config over the same store — zero profile
// collections, zero MILP solves. The cold/warm record lands in
// BENCH_pipeline.json.
func BenchmarkPipelineColdVsWarm(b *testing.B) {
	dir, err := os.MkdirTemp("", "ctdvs-bench-cache")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := pipeline.Open(dir)
	if err != nil {
		b.Fatal(err)
	}

	coldStart := time.Now()
	sweepWithStore(b, store)
	coldNs := float64(time.Since(coldStart).Nanoseconds())

	b.ResetTimer()
	var warm *exp.Config
	for i := 0; i < b.N; i++ {
		warm = sweepWithStore(b, store)
	}
	b.StopTimer()

	man := warm.Pipeline.Manifest()
	if !man.AllHits() {
		b.Fatal("warm sweep recomputed stages")
	}
	disk := 0
	for _, s := range man.Stats() {
		disk += s.DiskHits
	}
	warmNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	rec := pipelineBenchRecord{
		Experiment: "deadline-sweep",
		Scale:      benchScale,
		ColdNsOp:   coldNs,
		WarmNsOp:   warmNs,
		Speedup:    coldNs / warmNs,
		AllHits:    true,
		DiskHits:   disk,
	}
	b.ReportMetric(rec.Speedup, "speedup-cold-vs-warm")
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_pipeline.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// --- serving benchmarks ---

// serveBenchRecord is the schema of BENCH_serve.json.
type serveBenchRecord struct {
	Benchmark string  `json:"benchmark"`
	Scale     float64 `json:"scale"`
	Clients   int     `json:"clients"`
	Requests  int     `json:"requests_per_pass"`
	// Cold: fresh artifact store, every unique problem solved for real.
	// Warm: a process-fresh server over the same store answers from
	// artifacts alone (asserted via the run manifest).
	ColdP50MS  float64 `json:"cold_p50_ms"`
	ColdP99MS  float64 `json:"cold_p99_ms"`
	ColdReqPS  float64 `json:"cold_req_per_s"`
	WarmP50MS  float64 `json:"warm_p50_ms"`
	WarmP99MS  float64 `json:"warm_p99_ms"`
	WarmReqPS  float64 `json:"warm_req_per_s"`
	Speedup    float64 `json:"speedup_warm_vs_cold"`
	WarmAllHit bool    `json:"warm_all_hits"`
}

const (
	serveBenchClients  = 8
	serveBenchRequests = 40
	serveBenchmark     = "gsm/encode"
)

// serveBenchBodies builds one pass of request bodies: serveBenchRequests
// requests cycling the five paper deadlines, so the server sees five unique
// problems plus heavy request-level duplication — both the solver path and
// the single-flight/cache path carry real load.
func serveBenchBodies() []string {
	bodies := make([]string, serveBenchRequests)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"bench":%q,"deadline":%d}`, serveBenchmark, 1+i%5)
	}
	return bodies
}

// serveBenchServer starts a test-scale server over dir's artifact store.
func serveBenchServer(b *testing.B, dir string) (*exp.Config, *httptest.Server) {
	b.Helper()
	store, err := pipeline.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	c := exp.NewConfig(benchScale)
	c.Pipeline = pipeline.NewRunner(store)
	ts := httptest.NewServer(serve.New(c, serve.Options{
		Workers:    runtime.GOMAXPROCS(0),
		QueueDepth: serveBenchRequests,
	}).Handler())
	return c, ts
}

type servePass struct {
	P50MS, P99MS, ReqPS float64
}

// serveBenchPass fires the bodies at the server from `clients` concurrent
// connections and returns latency percentiles and throughput.
func serveBenchPass(b *testing.B, url string, bodies []string, clients int) servePass {
	b.Helper()
	latencies := make([]float64, len(bodies))
	var next int64 = -1
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(bodies) {
					return
				}
				t0 := time.Now()
				resp, err := http.Post(url+"/optimize", "application/json", strings.NewReader(bodies[i]))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("request %d: HTTP %d", i, resp.StatusCode)
					return
				}
				latencies[i] = float64(time.Since(t0).Microseconds()) / 1e3
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	sort.Float64s(latencies)
	pct := func(p float64) float64 {
		i := int(p*float64(len(latencies))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(latencies) {
			i = len(latencies) - 1
		}
		return latencies[i]
	}
	return servePass{P50MS: pct(0.50), P99MS: pct(0.99), ReqPS: float64(len(bodies)) / elapsed}
}

// BenchmarkServeLatency measures request latency under concurrent load, cold
// (fresh store: five real solves) against warm (process-fresh server over
// the populated store: artifacts only), and writes the p50/p99/throughput
// record to BENCH_serve.json.
func BenchmarkServeLatency(b *testing.B) {
	dir, err := os.MkdirTemp("", "ctdvs-serve-bench")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	bodies := serveBenchBodies()

	coldCfg, coldTS := serveBenchServer(b, dir)
	cold := serveBenchPass(b, coldTS.URL, bodies, serveBenchClients)
	coldTS.Close()
	if got := coldCfg.Pipeline.Manifest().Stats()[pipeline.StageSolve].Misses; got != 5 {
		b.Fatalf("cold pass solve misses = %d, want 5 (one per deadline)", got)
	}

	b.ResetTimer()
	var warm servePass
	var warmCfg *exp.Config
	for i := 0; i < b.N; i++ {
		warmCfg, warmTS := serveBenchServer(b, dir)
		warm = serveBenchPass(b, warmTS.URL, bodies, serveBenchClients)
		warmTS.Close()
		if !warmCfg.Pipeline.Manifest().AllHits() {
			b.Fatal("warm pass recomputed stages")
		}
	}
	_ = warmCfg
	b.StopTimer()

	rec := serveBenchRecord{
		Benchmark:  serveBenchmark,
		Scale:      benchScale,
		Clients:    serveBenchClients,
		Requests:   serveBenchRequests,
		ColdP50MS:  cold.P50MS,
		ColdP99MS:  cold.P99MS,
		ColdReqPS:  cold.ReqPS,
		WarmP50MS:  warm.P50MS,
		WarmP99MS:  warm.P99MS,
		WarmReqPS:  warm.ReqPS,
		Speedup:    warm.ReqPS / cold.ReqPS,
		WarmAllHit: true,
	}
	b.ReportMetric(warm.P50MS, "warm-p50-ms")
	b.ReportMetric(warm.P99MS, "warm-p99-ms")
	b.ReportMetric(rec.Speedup, "speedup-warm-vs-cold")
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_serve.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServeThroughput measures sustained warm throughput: the store is
// populated once untimed, then each timed iteration is a full pass of
// concurrent requests against a process-fresh server.
func BenchmarkServeThroughput(b *testing.B) {
	dir, err := os.MkdirTemp("", "ctdvs-serve-bench")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	bodies := serveBenchBodies()

	_, coldTS := serveBenchServer(b, dir)
	serveBenchPass(b, coldTS.URL, bodies, serveBenchClients)
	coldTS.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ts := serveBenchServer(b, dir)
		serveBenchPass(b, ts.URL, bodies, serveBenchClients)
		ts.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*serveBenchRequests)/b.Elapsed().Seconds(), "req/s")
}

// --- artifact store benchmarks ---

func BenchmarkPathProfiling(b *testing.B) {
	spec := workloads.Gsm(benchScale)
	g, err := cfggraph.FromProgram(spec.Program)
	if err != nil {
		b.Fatal(err)
	}
	numbering, err := paths.New(g)
	if err != nil {
		b.Fatal(err)
	}
	m := sim.MustNew(sim.DefaultConfig())
	mode := volt.XScale3().Mode(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := numbering.NewTracer()
		m.EdgeHook = tr.Edge
		if _, err := m.Run(spec.Program, spec.Inputs[0], mode); err != nil {
			b.Fatal(err)
		}
		m.EdgeHook = nil
		tr.Finish()
	}
}
