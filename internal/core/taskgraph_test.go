package core

import (
	"errors"
	"strings"
	"testing"

	"ctdvs/internal/ir"
	"ctdvs/internal/profile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
)

// graphTaskProgram builds a small loop whose memory/compute mix differs with
// memFrac, so different tasks prefer different modes.
func graphTaskProgram(name string, trips, computeCycles int) *ir.Program {
	b := ir.NewBuilder(name)
	s := b.SequentialStream(32 << 10)
	body := b.Block("body")
	exit := b.Block("exit")
	body.Compute(computeCycles).Load(s).DependentCompute(20)
	b.LoopBranch(body, body, exit, trips)
	exit.Compute(5)
	exit.Exit()
	return b.MustFinish()
}

// testGraph builds a diamond with distinct per-task programs and collects all
// profiles on one machine.
func testGraph(t *testing.T) (*ir.TaskGraph, []*profile.Profile) {
	t.Helper()
	progs := []*ir.Program{
		graphTaskProgram("g-src", 300, 60),
		graphTaskProgram("g-left", 800, 120),
		graphTaskProgram("g-right", 500, 40),
		graphTaskProgram("g-sink", 300, 80),
	}
	g := &ir.TaskGraph{Name: "test-diamond", Edges: [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}}}
	m := sim.MustNew(sim.DefaultConfig())
	profiles := make([]*profile.Profile, len(progs))
	for i, p := range progs {
		in := ir.Input{Name: "in", Seed: int64(10 + i)}
		g.Tasks = append(g.Tasks, &ir.Task{Name: p.Name, Program: p, Input: in})
		pr, err := profile.Collect(m, p, in, volt.XScale3())
		if err != nil {
			t.Fatal(err)
		}
		profiles[i] = pr
	}
	return g, profiles
}

// graphSpan returns the all-fastest and all-slowest makespans of the placed
// graph — the span deadlines are positioned in.
func graphSpan(t *testing.T, g *ir.TaskGraph, profiles []*profile.Profile, cores int) (lo, hi float64) {
	t.Helper()
	nm := profiles[0].Modes.Len()
	span := func(mode int) float64 {
		dur := make([]float64, len(g.Tasks))
		energy := make([]float64, len(g.Tasks))
		for i, pr := range profiles {
			dur[i] = pr.TotalTimeUS[mode]
			energy[i] = pr.TotalEnergyUJ[mode]
		}
		fast := make([]float64, len(g.Tasks))
		for i, pr := range profiles {
			fast[i] = pr.TotalTimeUS[nm-1]
		}
		assign, order := ListPlacement(g, fast, cores)
		sched := &sim.GraphSchedule{
			Modes:     profiles[0].Modes,
			Regulator: volt.DefaultRegulator(),
			Cores:     cores,
			Placement: make([]sim.TaskPlacement, len(g.Tasks)),
			Order:     order,
		}
		for i := range g.Tasks {
			sched.Placement[i] = sim.TaskPlacement{Core: assign[i], Mode: mode}
		}
		plan, err := sim.PlanGraph(g, sched, dur, energy)
		if err != nil {
			t.Fatal(err)
		}
		return plan.MakespanUS
	}
	return span(nm - 1), span(0)
}

func TestOptimizeGraphMeetsDeadlineAndSavesEnergy(t *testing.T) {
	t.Parallel()
	g, profiles := testGraph(t)
	const cores = 2
	lo, hi := graphSpan(t, g, profiles, cores)
	if lo >= hi {
		t.Fatalf("degenerate span [%v, %v]", lo, hi)
	}
	dl := lo + 0.5*(hi-lo)
	res, err := OptimizeGraph(g, profiles, cores, dl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degenerate {
		t.Fatal("multi-task graph reported degenerate")
	}
	if res.PredictedMakespanUS > dl*(1+1e-9) {
		t.Errorf("predicted makespan %v overshoots deadline %v", res.PredictedMakespanUS, dl)
	}
	// Energy must beat running everything at the fastest mode (which has
	// maximal energy and is feasible by construction of the deadline).
	nm := profiles[0].Modes.Len()
	fastE := 0.0
	for _, pr := range profiles {
		fastE += pr.TotalEnergyUJ[nm-1]
	}
	if res.PredictedEnergyUJ >= fastE {
		t.Errorf("graph DVS energy %v does not beat all-fastest %v", res.PredictedEnergyUJ, fastE)
	}
	// The prediction is exact: simulating the schedule reproduces it.
	meas, err := sim.SimulateGraph(sim.MustNew(sim.DefaultConfig()), g, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if meas.EnergyUJ != res.PredictedEnergyUJ || meas.MakespanUS != res.PredictedMakespanUS {
		t.Errorf("measured (%.6f µJ, %.6f µs) != predicted (%.6f µJ, %.6f µs)",
			meas.EnergyUJ, meas.MakespanUS, res.PredictedEnergyUJ, res.PredictedMakespanUS)
	}
}

func TestOptimizeGraphLaxDeadlineSlowsDown(t *testing.T) {
	t.Parallel()
	g, profiles := testGraph(t)
	const cores = 2
	lo, hi := graphSpan(t, g, profiles, cores)
	tight, err := OptimizeGraph(g, profiles, cores, lo+0.2*(hi-lo), nil)
	if err != nil {
		t.Fatal(err)
	}
	lax, err := OptimizeGraph(g, profiles, cores, hi+0.5*(hi-lo), nil)
	if err != nil {
		t.Fatal(err)
	}
	if lax.PredictedEnergyUJ > tight.PredictedEnergyUJ {
		t.Errorf("lax deadline energy %v exceeds tight %v", lax.PredictedEnergyUJ, tight.PredictedEnergyUJ)
	}
	// With the deadline beyond the all-slowest makespan, everything runs at
	// the slowest mode.
	for ti, pl := range lax.Schedule.Placement {
		if pl.Mode != 0 {
			t.Errorf("task %d at mode %d under unconstrained deadline", ti, pl.Mode)
		}
	}
}

func TestOptimizeGraphInfeasible(t *testing.T) {
	t.Parallel()
	g, profiles := testGraph(t)
	lo, _ := graphSpan(t, g, profiles, 2)
	_, err := OptimizeGraph(g, profiles, 2, lo*0.5, nil)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("impossible deadline: got %v, want ErrInfeasible", err)
	}
}

func TestOptimizeGraphDegenerateBitIdentical(t *testing.T) {
	t.Parallel()
	m, pr := collectTwoPhase(t)
	dl := midDeadline(pr)
	single, err := OptimizeSingle(pr, dl, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := ir.SingleTaskGraph(pr.Program, pr.Input)
	graph, err := OptimizeGraph(g, []*profile.Profile{pr}, 1, dl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Degenerate {
		t.Fatal("1-task/1-core graph not marked degenerate")
	}
	if graph.PredictedEnergyUJ != single.PredictedEnergyUJ {
		t.Errorf("degenerate energy %v != single-program %v", graph.PredictedEnergyUJ, single.PredictedEnergyUJ)
	}
	if graph.Solver.Objective != single.Solver.Objective {
		t.Errorf("degenerate objective %v != single-program %v", graph.Solver.Objective, single.Solver.Objective)
	}
	// The intra-task schedule is the single-program schedule: same
	// assignment map contents, and executing the graph is bit-identical to
	// executing the single-program schedule.
	intra := graph.Schedule.Intra[0]
	if len(intra.Assignment) != len(single.Schedule.Assignment) || intra.Initial != single.Schedule.Initial {
		t.Fatalf("degenerate intra schedule differs from single-program schedule")
	}
	for e, mi := range single.Schedule.Assignment {
		if intra.Assignment[e] != mi {
			t.Fatalf("edge %v: intra mode %d != single %d", e, intra.Assignment[e], mi)
		}
	}
	direct, err := m.RunDVS(pr.Program, pr.Input, single.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	viaGraph, err := sim.SimulateGraph(m, g, graph.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if viaGraph.EnergyUJ != direct.EnergyUJ || viaGraph.MakespanUS != direct.TimeUS {
		t.Errorf("graph execution (%.6f µJ, %.6f µs) != single-program (%.6f µJ, %.6f µs)",
			viaGraph.EnergyUJ, viaGraph.MakespanUS, direct.EnergyUJ, direct.TimeUS)
	}
}

func TestOptimizeGraphValidation(t *testing.T) {
	t.Parallel()
	g, profiles := testGraph(t)
	if _, err := OptimizeGraph(g, profiles[:2], 2, 1000, nil); err == nil || !strings.Contains(err.Error(), "profiles") {
		t.Errorf("mismatched profile count accepted: %v", err)
	}
	if _, err := OptimizeGraph(g, profiles, 0, 1000, nil); err == nil || !strings.Contains(err.Error(), "cores") {
		t.Errorf("zero cores accepted: %v", err)
	}
	if _, err := OptimizeGraph(g, profiles, 2, -1, nil); err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("negative deadline accepted: %v", err)
	}
	swapped := append([]*profile.Profile(nil), profiles...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := OptimizeGraph(g, swapped, 2, 1000, nil); err == nil || !strings.Contains(err.Error(), "program") {
		t.Errorf("profile/task program mismatch accepted: %v", err)
	}
}

func TestListPlacementDeterministicAndConsistent(t *testing.T) {
	t.Parallel()
	g, profiles := testGraph(t)
	nm := profiles[0].Modes.Len()
	dur := make([]float64, len(g.Tasks))
	for i, pr := range profiles {
		dur[i] = pr.TotalTimeUS[nm-1]
	}
	assign1, order1 := ListPlacement(g, dur, 2)
	assign2, order2 := ListPlacement(g, dur, 2)
	for i := range assign1 {
		if assign1[i] != assign2[i] {
			t.Fatalf("placement not deterministic: %v vs %v", assign1, assign2)
		}
	}
	for c := range order1 {
		if len(order1[c]) != len(order2[c]) {
			t.Fatalf("order not deterministic: %v vs %v", order1, order2)
		}
		for i := range order1[c] {
			if order1[c][i] != order2[c][i] {
				t.Fatalf("order not deterministic: %v vs %v", order1, order2)
			}
		}
	}
	// Precedence consistency: position of u before v for every same-core edge.
	pos := make(map[int]int)
	for c := range order1 {
		for i, task := range order1[c] {
			pos[task] = c*1000 + i
		}
	}
	for _, e := range g.Edges {
		if assign1[e[0]] == assign1[e[1]] && pos[e[0]] > pos[e[1]] {
			t.Errorf("edge %v contradicted by core order %v", e, order1)
		}
	}
}
