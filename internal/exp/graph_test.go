package exp

import (
	"bytes"
	"reflect"
	"testing"

	"ctdvs/internal/core"
	"ctdvs/internal/ir"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/schedfile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// TestTaskGraphStudyGovernorInvariants is the governor's acceptance property
// over the whole corpus: the static schedule meets the deadline in every
// cell, the governed schedule never misses it either, and the governed
// measured energy never exceeds the static measured energy.
func TestTaskGraphStudyGovernorInvariants(t *testing.T) {
	c := testConfig()
	cells, err := c.TaskGraphStudy(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(workloads.Graphs()) {
		t.Fatalf("study covered %d of %d corpus graphs", len(cells), len(workloads.Graphs()))
	}
	for _, cell := range cells {
		tol := cell.DeadlineUS * (1 + 1e-9)
		if cell.Static.MissedDeadlines > 0 || cell.Static.MakespanUS > tol {
			t.Errorf("%s: static schedule misses deadline: makespan %v, deadline %v, missed %d",
				cell.Graph, cell.Static.MakespanUS, cell.DeadlineUS, cell.Static.MissedDeadlines)
		}
		if cell.Governed.MissedDeadlines > 0 || cell.Governed.MakespanUS > tol {
			t.Errorf("%s: governed schedule misses deadline: makespan %v, deadline %v, missed %d",
				cell.Graph, cell.Governed.MakespanUS, cell.DeadlineUS, cell.Governed.MissedDeadlines)
		}
		if cell.Governed.EnergyUJ > cell.Static.EnergyUJ {
			t.Errorf("%s: governed energy %v exceeds static %v",
				cell.Graph, cell.Governed.EnergyUJ, cell.Static.EnergyUJ)
		}
		if cell.SavingsVsFastest <= 0 {
			t.Errorf("%s: static schedule saves nothing vs all-fastest (%v)", cell.Graph, cell.SavingsVsFastest)
		}
	}
	tab := TaskGraphTable(cells)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(cells) {
		t.Errorf("table renders %d rows for %d cells", len(tab.Rows), len(cells))
	}
}

// TestGraphDegenerateSharesSingleProgramArtifacts is the bit-identity
// property at the pipeline layer: a 1-task/1-core task-graph request routes
// through the very artifacts a single-program request writes — a warm run of
// the graph path over a store populated only by the single-program path is
// all cache hits — and the payloads (schedule bytes, energy, objective)
// are byte-identical.
func TestGraphDegenerateSharesSingleProgramArtifacts(t *testing.T) {
	dir := t.TempDir()

	single := cachedConfig(t, dir)
	pr, err := single.Profile("epic", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	nm := pr.Modes.Len()
	dl := (pr.TotalTimeUS[nm-1] + pr.TotalTimeUS[0]) / 2
	opts := &core.Options{Regulator: volt.DefaultRegulator(), MILP: single.solverOpts()}
	sres, err := single.OptimizeSingle(pr, dl, opts)
	if err != nil {
		t.Fatal(err)
	}
	srun, err := single.RunSchedule(pr, sres.Schedule)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh config over the same store: the task-graph spelling of the same
	// workload must resolve everything from the single-program artifacts.
	graph := cachedConfig(t, dir)
	gs := &workloads.GraphSpec{Name: "single-epic", Cores: 1, Tasks: []workloads.TaskRef{{Bench: "epic"}}}
	gw, err := graph.BuildGraph(gs, 3, dl)
	if err != nil {
		t.Fatal(err)
	}
	gopts := &core.Options{Regulator: volt.DefaultRegulator(), MILP: graph.solverOpts()}
	gres, err := graph.OptimizeGraph(gw, gopts)
	if err != nil {
		t.Fatal(err)
	}
	if !gres.Degenerate {
		t.Fatal("1-task/1-core graph not routed through the degenerate path")
	}
	if gres.PredictedEnergyUJ != sres.PredictedEnergyUJ {
		t.Errorf("degenerate energy %v != single-program %v", gres.PredictedEnergyUJ, sres.PredictedEnergyUJ)
	}
	if gres.Solver.Objective != sres.Solver.Objective {
		t.Errorf("degenerate objective %v != single-program %v", gres.Solver.Objective, sres.Solver.Objective)
	}
	sBytes := encodeSchedule(t, "epic", sres.Schedule)
	gBytes := encodeSchedule(t, "epic", gres.Schedule.Intra[0])
	if !bytes.Equal(sBytes, gBytes) {
		t.Error("degenerate graph schedule bytes differ from single-program schedule bytes")
	}

	grun, err := graph.SimulateGraph(gw, gres.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if grun.EnergyUJ != srun.EnergyUJ || grun.MakespanUS != srun.TimeUS {
		t.Errorf("graph execution (%v µJ, %v µs) != single-program (%v µJ, %v µs)",
			grun.EnergyUJ, grun.MakespanUS, srun.EnergyUJ, srun.TimeUS)
	}

	man := graph.Pipeline.Manifest()
	if !man.AllHits() {
		t.Error("degenerate graph run recomputed stages the single-program run already cached:")
		for _, r := range man.Records() {
			if r.Misses > 0 {
				t.Errorf("  %s %s: %d misses", r.Stage, r.Key[:12], r.Misses)
			}
		}
	}
}

func encodeSchedule(t *testing.T, program string, s *sim.Schedule) []byte {
	t.Helper()
	f, err := schedfile.New(program, s)
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGraphWarmRunHitsEverything: a multi-core graph optimized and executed
// twice against one store — the second, fresh-process run is all cache hits
// with identical results. Only the solve is a graph stage: execution plans
// the timeline from the profiles and leaves no record of its own.
func TestGraphWarmRunHitsEverything(t *testing.T) {
	dir := t.TempDir()
	gs := workloads.ForkJoin(2, 2)

	cold := cachedConfig(t, dir)
	gwCold, err := cold.BuildGraph(gs, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.OptimizeGraph(gwCold, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldRun, err := cold.SimulateGraph(gwCold, coldRes.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	coldStats := cold.Pipeline.Manifest().Stats()
	if coldStats[pipeline.StageGraphSolve].Misses == 0 {
		t.Fatalf("cold run should miss the graphsolve stage: %+v", coldStats)
	}
	if _, ok := coldStats["graphsim"]; ok {
		t.Errorf("cold run recorded a graphsim stage: %+v", coldStats)
	}

	warm := cachedConfig(t, dir)
	gwWarm, err := warm.BuildGraph(gs, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := warm.OptimizeGraph(gwWarm, nil)
	if err != nil {
		t.Fatal(err)
	}
	warmRun, err := warm.SimulateGraph(gwWarm, warmRes.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Pipeline.Manifest().AllHits() {
		t.Error("warm graph run recomputed stages:")
		for _, r := range warm.Pipeline.Manifest().Records() {
			if r.Misses > 0 {
				t.Errorf("  %s %s: %d misses", r.Stage, r.Key[:12], r.Misses)
			}
		}
	}
	if warmRes.PredictedEnergyUJ != coldRes.PredictedEnergyUJ || warmRes.PredictedMakespanUS != coldRes.PredictedMakespanUS {
		t.Errorf("warm predictions differ: (%v, %v) vs (%v, %v)",
			warmRes.PredictedEnergyUJ, warmRes.PredictedMakespanUS, coldRes.PredictedEnergyUJ, coldRes.PredictedMakespanUS)
	}
	if !reflect.DeepEqual(warmRun, coldRun) {
		t.Errorf("warm simulation differs:\n warm %+v\n cold %+v", warmRun, coldRun)
	}
	if !reflect.DeepEqual(warmRes.Schedule, coldRes.Schedule) {
		t.Error("warm schedule differs from cold schedule")
	}
}

// TestGraphPoolNoLeak exercises the machine pool over a graph's whole flow
// (run with -race in CI): every borrowed machine must be returned. Only
// profiling borrows machines — BuildGraph records each task's profile in
// turn, and execution plans from the profiles — so the high-water mark is
// one machine whatever the worker count.
func TestGraphPoolNoLeak(t *testing.T) {
	c := testConfig()
	c.Workers = 4
	gw, err := c.BuildGraph(workloads.ForkJoin(4, 4), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.OptimizeGraph(gw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SimulateGraph(gw, res.Schedule); err != nil {
		t.Fatal(err)
	}
	outstanding, peak := c.PoolStats()
	if outstanding != 0 {
		t.Errorf("%d machines still borrowed after the run", outstanding)
	}
	if peak != 1 {
		t.Errorf("pool peak %d, want 1 (one profiling run at a time)", peak)
	}
}

// TestGraphKeysGolden pins the digest of the graphsolve key. If it fails,
// existing stores silently cold-start — bump the artifact version and
// regenerate the golden value deliberately.
func TestGraphKeysGolden(t *testing.T) {
	g := &ir.TaskGraph{
		Name: "golden",
		Tasks: []*ir.Task{
			{Name: "a", ReleaseUS: 0, DeadlineUS: 0},
			{Name: "b", ReleaseUS: 5, DeadlineUS: 900},
		},
		Edges: [][2]int{{0, 1}},
	}
	gw := &GraphWorkload{Graph: g, Cores: 2, DeadlineUS: 1000}
	fps := []string{"fp-a", "fp-b"}
	o := &core.Options{Regulator: volt.DefaultRegulator()}

	solve := graphSolveKey(gw, fps, o)
	const goldenSolve = pipeline.Key("9e9bc162bab341f64c83bfc9441e7a95dd96244b5e55f2ab993803c738c413d2")
	if solve != goldenSolve {
		t.Errorf("graphsolve key changed: got %s, golden %s", solve, goldenSolve)
	}

	// Any structural change must move the key.
	gw2 := &GraphWorkload{Graph: g, Cores: 3, DeadlineUS: 1000}
	if graphSolveKey(gw2, fps, o) == solve {
		t.Error("core count does not affect the solve key")
	}
	if graphSolveKey(gw, []string{"fp-a", "fp-X"}, o) == solve {
		t.Error("profile fingerprint does not affect the solve key")
	}
}
