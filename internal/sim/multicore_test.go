package sim

import (
	"strings"
	"testing"

	"ctdvs/internal/cfg"
	"ctdvs/internal/ir"
	"ctdvs/internal/volt"
)

// taskProgram builds a small loop with enough work for transitions to matter.
func taskProgram(name string, trips int) *ir.Program {
	b := ir.NewBuilder(name)
	s := b.SequentialStream(32 << 10)
	body := b.Block("body")
	exit := b.Block("exit")
	body.Compute(40).Load(s).DependentCompute(25)
	b.LoopBranch(body, body, exit, trips)
	exit.Compute(10)
	exit.Exit()
	return b.MustFinish()
}

// diamondGraph is a 4-task diamond over two distinct programs.
func diamondGraph() *ir.TaskGraph {
	pa := taskProgram("pa", 400)
	pb := taskProgram("pb", 700)
	task := func(name string, p *ir.Program, seed int64) *ir.Task {
		return &ir.Task{Name: name, Program: p, Input: ir.Input{Name: "in", Seed: seed}}
	}
	return &ir.TaskGraph{
		Name:  "diamond",
		Tasks: []*ir.Task{task("src", pa, 1), task("left", pb, 2), task("right", pb, 3), task("sink", pa, 4)},
		Edges: [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
	}
}

func diamondSchedule(ms *volt.ModeSet) *GraphSchedule {
	return &GraphSchedule{
		Modes:     ms,
		Regulator: volt.DefaultRegulator(),
		Cores:     2,
		Placement: []TaskPlacement{{0, 2}, {0, 1}, {1, 2}, {0, 2}},
		Order:     [][]int{{0, 1, 3}, {2}},
	}
}

func TestSimulateGraphTimeline(t *testing.T) {
	g := diamondGraph()
	ms := volt.XScale3()
	s := diamondSchedule(ms)
	res, err := SimulateGraph(MustNew(DefaultConfig()), g, s)
	if err != nil {
		t.Fatal(err)
	}
	runs := res.Runs
	// Precedence: children start at or after parents finish.
	for _, e := range g.Edges {
		if runs[e[1]].StartUS < runs[e[0]].FinishUS {
			t.Errorf("task %d starts %.3f before pred %d finishes %.3f",
				e[1], runs[e[1]].StartUS, e[0], runs[e[0]].FinishUS)
		}
	}
	// First task on each core pays no transition; the src→left mode change
	// on core 0 does.
	if runs[0].TransitionTimeUS != 0 || runs[2].TransitionTimeUS != 0 {
		t.Errorf("first task on a core charged a transition: %+v %+v", runs[0], runs[2])
	}
	if runs[1].TransitionTimeUS <= 0 || runs[1].TransitionEnergyUJ <= 0 {
		t.Errorf("mode change src→left not charged: %+v", runs[1])
	}
	if res.Transitions != 2 { // src(m2)→left(m1) and left(m1)→sink(m2) on core 0
		t.Errorf("transitions = %d, want 2", res.Transitions)
	}
	if res.MakespanUS != runs[3].FinishUS {
		t.Errorf("makespan %.3f != sink finish %.3f", res.MakespanUS, runs[3].FinishUS)
	}
	wantE := res.TaskEnergyUJ + res.TransitionEnergyUJ
	if res.EnergyUJ != wantE {
		t.Errorf("energy %.6f != tasks+transitions %.6f", res.EnergyUJ, wantE)
	}
}

func TestSimulateGraphDegenerateMatchesRunDVS(t *testing.T) {
	p := taskProgram("solo", 500)
	in := ir.Input{Name: "in", Seed: 9}
	ms := volt.XScale3()
	gr, err := cfg.FromProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	assign := make(map[cfg.Edge]int, gr.NumEdges())
	for i, e := range gr.Edges {
		assign[e] = i % ms.Len()
	}
	sched := &Schedule{
		Modes:      ms,
		Initial:    ms.Len() - 1,
		Regulator:  volt.DefaultRegulator(),
		Assignment: assign,
	}
	direct, err := MustNew(DefaultConfig()).RunDVS(p, in, sched)
	if err != nil {
		t.Fatal(err)
	}
	g := ir.SingleTaskGraph(p, in)
	gs := &GraphSchedule{
		Modes:     ms,
		Regulator: volt.DefaultRegulator(),
		Cores:     1,
		Placement: []TaskPlacement{{Core: 0, Mode: sched.Initial}},
		Order:     [][]int{{0}},
		Intra:     []*Schedule{sched},
	}
	res, err := SimulateGraph(MustNew(DefaultConfig()), g, gs)
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyUJ != direct.EnergyUJ || res.MakespanUS != direct.TimeUS {
		t.Fatalf("degenerate graph run (%.6f µJ, %.6f µs) != RunDVS (%.6f µJ, %.6f µs)",
			res.EnergyUJ, res.MakespanUS, direct.EnergyUJ, direct.TimeUS)
	}
}

func TestSimulateGraphDeadlockDetected(t *testing.T) {
	g := diamondGraph()
	s := diamondSchedule(volt.XScale3())
	s.Order = [][]int{{3, 0, 1}, {2}} // sink before its predecessors on core 0
	_, err := SimulateGraph(MustNew(DefaultConfig()), g, s)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("contradictory order accepted: %v", err)
	}
}

func TestGraphScheduleValidate(t *testing.T) {
	g := diamondGraph()
	ms := volt.XScale3()
	cases := []struct {
		name string
		mut  func(*GraphSchedule)
		want string
	}{
		{"no cores", func(s *GraphSchedule) { s.Cores = 0 }, "cores"},
		{"bad core", func(s *GraphSchedule) { s.Placement[0].Core = 5 }, "placed on core"},
		{"bad mode", func(s *GraphSchedule) { s.Placement[0].Mode = 99 }, "mode"},
		{"task twice", func(s *GraphSchedule) { s.Order[1] = []int{2, 2} }, "twice"},
		{"task missing", func(s *GraphSchedule) { s.Order[1] = nil }, "missing"},
		{"wrong core order", func(s *GraphSchedule) { s.Order = [][]int{{0, 1, 2, 3}, nil} }, "placed on core"},
		{"shared-core intra", func(s *GraphSchedule) {
			s.Intra = []*Schedule{{Modes: ms}}
		}, "shares core"},
	}
	for _, tc := range cases {
		s := diamondSchedule(ms)
		tc.mut(s)
		err := s.Validate(g)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestPlanGraphRespectsRelease(t *testing.T) {
	g := diamondGraph()
	g.Tasks[0].ReleaseUS = 123.5
	s := diamondSchedule(volt.XScale3())
	res, err := PlanGraph(g, s, []float64{10, 10, 10, 10}, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs[0].StartUS != 123.5 {
		t.Fatalf("released task starts at %.3f, want 123.5", res.Runs[0].StartUS)
	}
}

func TestPlanGraphPerTaskDeadline(t *testing.T) {
	g := diamondGraph()
	g.Tasks[3].DeadlineUS = 1 // impossibly tight
	s := diamondSchedule(volt.XScale3())
	res, err := PlanGraph(g, s, []float64{10, 10, 10, 10}, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MissedDeadlines != 1 {
		t.Fatalf("missed deadlines = %d, want 1", res.MissedDeadlines)
	}
	if res.MeetsDeadline(1e9) {
		t.Fatal("MeetsDeadline ignored the per-task miss")
	}
}

// reclaimTables builds per-mode duration/energy tables for the graph by
// simulating every task at every mode (small graphs only).
func reclaimTables(t *testing.T, g *ir.TaskGraph, ms *volt.ModeSet) (dur, energy [][]float64) {
	t.Helper()
	m := MustNew(DefaultConfig())
	dur = make([][]float64, len(g.Tasks))
	energy = make([][]float64, len(g.Tasks))
	for ti, task := range g.Tasks {
		dur[ti] = make([]float64, ms.Len())
		energy[ti] = make([]float64, ms.Len())
		for mi := 0; mi < ms.Len(); mi++ {
			r, err := m.Run(task.Program, task.Input, ms.Mode(mi))
			if err != nil {
				t.Fatal(err)
			}
			dur[ti][mi] = r.TimeUS
			energy[ti][mi] = r.EnergyUJ
		}
	}
	return dur, energy
}

func TestReclaimNeverLater_NeverMoreEnergy(t *testing.T) {
	g := diamondGraph()
	ms := volt.XScale3()
	fast := ms.Len() - 1
	// Static schedule: everything at the fastest mode — maximal slack for the
	// governor on the non-critical path.
	s := &GraphSchedule{
		Modes:     ms,
		Regulator: volt.DefaultRegulator(),
		Cores:     2,
		Placement: []TaskPlacement{{0, fast}, {0, fast}, {1, fast}, {0, fast}},
		Order:     [][]int{{0, 1, 3}, {2}},
	}
	dur, energy := reclaimTables(t, g, ms)
	governed, govPlan, staticPlan, err := Reclaim(ReclaimInput{Graph: g, Static: s, DurUS: dur, EnergyUJ: energy})
	if err != nil {
		t.Fatal(err)
	}
	for ti := range g.Tasks {
		if govPlan.Runs[ti].FinishUS > staticPlan.Runs[ti].FinishUS*(1+1e-12) {
			t.Errorf("task %d governed finish %.6f after static %.6f",
				ti, govPlan.Runs[ti].FinishUS, staticPlan.Runs[ti].FinishUS)
		}
	}
	if govPlan.EnergyUJ > staticPlan.EnergyUJ {
		t.Errorf("governed energy %.3f exceeds static %.3f", govPlan.EnergyUJ, staticPlan.EnergyUJ)
	}
	// The measured (simulated) governed schedule agrees with the plan exactly:
	// the tables are bit-identical to fixed-mode simulation.
	meas, err := SimulateGraph(MustNew(DefaultConfig()), g, governed)
	if err != nil {
		t.Fatal(err)
	}
	if meas.EnergyUJ != govPlan.EnergyUJ || meas.MakespanUS != govPlan.MakespanUS {
		t.Errorf("measured (%.6f µJ, %.6f µs) != planned (%.6f µJ, %.6f µs)",
			meas.EnergyUJ, meas.MakespanUS, govPlan.EnergyUJ, govPlan.MakespanUS)
	}
	// The right task slowed down: core 1's lone task has the whole core-0
	// chain's worth of slack.
	if governed.Placement[2].Mode >= fast && govPlan.EnergyUJ == staticPlan.EnergyUJ {
		t.Log("no reclamation happened; timeline too tight for this workload mix")
	}
}

func TestReclaimNoSlackKeepsStatic(t *testing.T) {
	// A 1-core chain at the slowest mode has zero slack and nothing slower to
	// switch to: the governed schedule must equal the static one.
	g := &ir.TaskGraph{
		Name: "chain",
		Tasks: []*ir.Task{
			{Name: "a", Program: taskProgram("a", 300), Input: ir.Input{Name: "in", Seed: 1}},
			{Name: "b", Program: taskProgram("b", 300), Input: ir.Input{Name: "in", Seed: 2}},
		},
		Edges: [][2]int{{0, 1}},
	}
	ms := volt.XScale3()
	s := &GraphSchedule{
		Modes:     ms,
		Regulator: volt.DefaultRegulator(),
		Cores:     1,
		Placement: []TaskPlacement{{0, 0}, {0, 0}},
		Order:     [][]int{{0, 1}},
	}
	dur, energy := reclaimTables(t, g, ms)
	governed, govPlan, staticPlan, err := Reclaim(ReclaimInput{Graph: g, Static: s, DurUS: dur, EnergyUJ: energy})
	if err != nil {
		t.Fatal(err)
	}
	for ti := range g.Tasks {
		if governed.Placement[ti] != s.Placement[ti] {
			t.Errorf("task %d mode changed with no slack: %+v", ti, governed.Placement[ti])
		}
	}
	if govPlan.EnergyUJ != staticPlan.EnergyUJ {
		t.Errorf("energy changed with no slack: %.3f vs %.3f", govPlan.EnergyUJ, staticPlan.EnergyUJ)
	}
}

func TestReclaimRejectsIntra(t *testing.T) {
	p := taskProgram("solo", 50)
	g := ir.SingleTaskGraph(p, ir.Input{Name: "in", Seed: 1})
	ms := volt.XScale3()
	s := &GraphSchedule{
		Modes:     ms,
		Regulator: volt.DefaultRegulator(),
		Cores:     1,
		Placement: []TaskPlacement{{0, 0}},
		Order:     [][]int{{0}},
		Intra:     []*Schedule{{Modes: ms, Regulator: volt.DefaultRegulator()}},
	}
	_, _, _, err := Reclaim(ReclaimInput{Graph: g, Static: s,
		DurUS: [][]float64{{1, 1, 1}}, EnergyUJ: [][]float64{{1, 1, 1}}})
	if err == nil || !strings.Contains(err.Error(), "intra") {
		t.Fatalf("intra-task static schedule accepted: %v", err)
	}
}
