package exp

import (
	"context"
	"errors"
	"fmt"

	"ctdvs/internal/core"
	"ctdvs/internal/ir"
	"ctdvs/internal/milp"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/profile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// This file lifts the experiment pipeline from single programs to task
// graphs. The graph-level solve is a pipeline stage (graphsolve) with
// content-addressed artifacts. A graph schedule's timeline — predicted or
// measured — is planned from the per-task profiles (planGraph): a fixed-mode
// task's time and energy are its profile's per-mode totals, which equal a
// fixed-mode simulation bit for bit, so executing a solved or governed
// schedule simulates nothing. The degenerate 1-task/1-core graph is routed
// through the existing single-program stages (solve / validate), so a
// task-graph request for a plain benchmark reuses — byte for byte — the
// artifacts the single-program path writes, and vice versa.

// GraphWorkload is a materialized task-graph workload: the spec, the built
// graph, the per-task profiles (shared with the single-program profile cache)
// and the resolved deadline.
type GraphWorkload struct {
	Spec     *workloads.GraphSpec
	Graph    *ir.TaskGraph
	Profiles []*profile.Profile
	// Cores is the target core count (Spec.Cores unless overridden).
	Cores int
	// DeadlineUS is the resolved absolute deadline.
	DeadlineUS float64
	// FastUS/SlowUS are the all-fastest and all-slowest placed makespans the
	// fractional deadline interpolates between.
	FastUS, SlowUS float64
}

// TaskGraph materializes a corpus graph by name (see workloads.Graphs) under
// a mode set with the given level count.
func (c *Config) TaskGraph(name string, levels int) (*GraphWorkload, error) {
	return c.TaskGraphCtx(context.Background(), name, levels)
}

// TaskGraphCtx is TaskGraph under a caller context.
func (c *Config) TaskGraphCtx(ctx context.Context, name string, levels int) (*GraphWorkload, error) {
	gs, ok := workloads.Graph(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown task graph %q", name)
	}
	return c.BuildGraphCtx(ctx, gs, levels, 0)
}

// BuildGraph materializes a task-graph spec: builds the graph against the
// config's cached benchmark specs (so programs are pointer-shared with the
// single-program path), collects per-task profiles through the profile cache,
// and resolves the deadline — deadlineUS when non-zero, otherwise the spec's
// fraction of the [all-fastest, all-slowest] placed-makespan span.
func (c *Config) BuildGraph(gs *workloads.GraphSpec, levels int, deadlineUS float64) (*GraphWorkload, error) {
	return c.BuildGraphCtx(context.Background(), gs, levels, deadlineUS)
}

// BuildGraphCtx is BuildGraph under a caller context.
func (c *Config) BuildGraphCtx(ctx context.Context, gs *workloads.GraphSpec, levels int, deadlineUS float64) (*GraphWorkload, error) {
	g, err := gs.BuildFrom(func(name string) (*workloads.Spec, error) { return c.Spec(name) })
	if err != nil {
		return nil, err
	}
	gw := &GraphWorkload{
		Spec:     gs,
		Graph:    g,
		Profiles: make([]*profile.Profile, len(g.Tasks)),
		Cores:    gs.Cores,
	}
	if gw.Cores < 1 {
		gw.Cores = 1
	}
	for i, ref := range gs.Tasks {
		pr, err := c.ProfileCtx(ctx, ref.Bench, ref.Input, levels)
		if err != nil {
			return nil, err
		}
		gw.Profiles[i] = pr
	}
	gw.FastUS, gw.SlowUS, err = c.graphSpan(ctx, gw)
	if err != nil {
		return nil, err
	}
	switch {
	case deadlineUS != 0:
		gw.DeadlineUS = deadlineUS
	case gs.DeadlineFrac != 0:
		gw.DeadlineUS = gs.Deadline(gw.FastUS, gw.SlowUS)
	default:
		return nil, fmt.Errorf("exp: graph %q has neither an absolute deadline nor a deadline fraction", gs.Name)
	}
	return gw, nil
}

// graphSpan computes the all-fastest and all-slowest placed makespans of a
// graph workload — pure arithmetic over the profiles, no simulation.
func (c *Config) graphSpan(ctx context.Context, gw *GraphWorkload) (fast, slow float64, err error) {
	n := len(gw.Graph.Tasks)
	nm := gw.Profiles[0].Modes.Len()
	fastDur := make([]float64, n)
	for t := 0; t < n; t++ {
		fastDur[t] = gw.Profiles[t].TotalTimeUS[nm-1]
	}
	assign, order := core.ListPlacement(gw.Graph, fastDur, gw.Cores)
	span := func(mode int) (float64, error) {
		s := &sim.GraphSchedule{
			Modes:     gw.Profiles[0].Modes,
			Regulator: volt.DefaultRegulator(),
			Cores:     gw.Cores,
			Placement: make([]sim.TaskPlacement, n),
			Order:     order,
		}
		for t := 0; t < n; t++ {
			s.Placement[t] = sim.TaskPlacement{Core: assign[t], Mode: mode}
		}
		plan, err := c.planGraph(ctx, gw, s)
		if err != nil {
			return 0, err
		}
		return plan.MakespanUS, nil
	}
	if fast, err = span(nm - 1); err != nil {
		return 0, 0, err
	}
	if slow, err = span(0); err != nil {
		return 0, 0, err
	}
	return fast, slow, nil
}

// graphSolveArtifact is the cached outcome of one task-graph solve. Like the
// single-program solveArtifact, infeasible outcomes are artifacts too. The
// degenerate 1-task/1-core case never reaches this stage — it is routed
// through the single-program solve stage instead.
type graphSolveArtifact struct {
	Version             int                 `json:"version"`
	Infeasible          bool                `json:"infeasible"`
	Cores               int                 `json:"cores,omitempty"`
	Placement           []sim.TaskPlacement `json:"placement,omitempty"`
	Order               [][]int             `json:"order,omitempty"`
	PredictedEnergyUJ   float64             `json:"predicted_energy_uj"`
	PredictedMakespanUS float64             `json:"predicted_makespan_us"`
	Solver              solverStatsJSON     `json:"solver"`
}

const graphSolveArtifactVersion = 2

// graphSolveStage stores task-graph solve artifacts in their binary codec
// only.
var graphSolveStage = pipeline.Stage[*graphSolveArtifact]{
	Kind:         pipeline.StageGraphSolve,
	EncodeBinary: encodeGraphSolveBinary,
	DecodeBinary: decodeGraphSolveBinary,
}

// planGraph is a graph schedule's timeline from its workload's profiles. A
// fixed-mode task runs for its profile's total time and energy at its placed
// mode: the per-mode tables the graph MILP and ReclaimGraph price with. The
// profiles come from this Config, so those totals are, bit for bit, what a
// fixed-mode run on c.Machine measures, and the timeline is the one
// sim.SimulateGraph assembles (TestSimulateGraphMatchesSimulator). A task
// with an intra-task schedule takes its time and energy from the validate
// stage instead. The schedule must use the workload's mode set.
func (c *Config) planGraph(ctx context.Context, gw *GraphWorkload, s *sim.GraphSchedule) (*sim.GraphResult, error) {
	if err := s.Validate(gw.Graph); err != nil {
		return nil, err
	}
	if nm := gw.Profiles[0].Modes.Len(); s.Modes.Len() != nm {
		return nil, fmt.Errorf("exp: graph schedule has %d modes, the profiles %d", s.Modes.Len(), nm)
	}
	n := len(gw.Graph.Tasks)
	dur := make([]float64, n)
	energy := make([]float64, n)
	for t, pr := range gw.Profiles {
		if t < len(s.Intra) && s.Intra[t] != nil {
			run, err := c.RunScheduleCtx(ctx, pr, s.Intra[t])
			if err != nil {
				return nil, err
			}
			dur[t], energy[t] = run.TimeUS, run.EnergyUJ
			continue
		}
		m := s.Placement[t].Mode
		dur[t], energy[t] = pr.TotalTimeUS[m], pr.TotalEnergyUJ[m]
	}
	return sim.PlanGraph(gw.Graph, s, dur, energy)
}

// toGraphResult rebuilds the optimizer result from an artifact, planning the
// exact predicted timeline from the profiles (cold runs pass through the
// same conversion, so cold and warm results are identical by construction).
func (c *Config) toGraphResult(ctx context.Context, gw *GraphWorkload, a *graphSolveArtifact, reg volt.Regulator) (*core.GraphResult, error) {
	sched := &sim.GraphSchedule{
		Modes:     gw.Profiles[0].Modes,
		Regulator: reg,
		Cores:     a.Cores,
		Placement: a.Placement,
		Order:     a.Order,
	}
	plan, err := c.planGraph(ctx, gw, sched)
	if err != nil {
		return nil, err
	}
	return &core.GraphResult{
		Schedule:            sched,
		PredictedEnergyUJ:   plan.EnergyUJ,
		PredictedMakespanUS: plan.MakespanUS,
		Plan:                plan,
		Solver:              a.Solver.result(),
	}, nil
}

// OptimizeGraph solves the task-graph DVS problem through the pipeline.
func (c *Config) OptimizeGraph(gw *GraphWorkload, opts *core.Options) (*core.GraphResult, error) {
	return c.OptimizeGraphCtx(context.Background(), gw, opts)
}

// OptimizeGraphCtx is OptimizeGraph under a caller context. The degenerate
// 1-task/1-core graph routes through the single-program solve stage (same
// key, same artifact bytes as an OptimizeSingle call for that benchmark and
// deadline) and is lifted with core.WrapSingleGraph; everything else runs the
// graph solver under the graphsolve stage.
func (c *Config) OptimizeGraphCtx(ctx context.Context, gw *GraphWorkload, opts *core.Options) (*core.GraphResult, error) {
	var o core.Options
	if opts != nil {
		o = *opts
	}
	if o.Regulator == (volt.Regulator{}) {
		o.Regulator = volt.DefaultRegulator()
	}
	if o.MILP == nil {
		o.MILP = c.solverOpts()
	}
	g := gw.Graph
	if len(g.Tasks) == 1 && gw.Cores == 1 && g.Tasks[0].ReleaseUS == 0 {
		dl := gw.DeadlineUS
		if t := g.Tasks[0]; t.DeadlineUS > 0 && t.DeadlineUS < dl {
			dl = t.DeadlineUS
		}
		res, err := c.OptimizeSingleCtx(ctx, gw.Profiles[0], dl, &o)
		if err != nil {
			return nil, err
		}
		return core.WrapSingleGraph(res), nil
	}

	fps := make([]string, len(gw.Profiles))
	for i, pr := range gw.Profiles {
		var err error
		if fps[i], err = c.fingerprint(pr); err != nil {
			return nil, err
		}
	}
	key := graphSolveKey(gw, fps, &o)
	art, err := pipeline.RunCtx(ctx, c.runner(), graphSolveStage, key, func(ctx context.Context) (*graphSolveArtifact, error) {
		res, err := core.OptimizeGraphContext(ctx, g, gw.Profiles, gw.Cores, gw.DeadlineUS, &o)
		if errors.Is(err, core.ErrInfeasible) {
			return &graphSolveArtifact{Version: graphSolveArtifactVersion, Infeasible: true}, nil
		}
		if err != nil {
			return nil, err
		}
		return &graphSolveArtifact{
			Version:             graphSolveArtifactVersion,
			Cores:               res.Schedule.Cores,
			Placement:           res.Schedule.Placement,
			Order:               res.Schedule.Order,
			PredictedEnergyUJ:   res.PredictedEnergyUJ,
			PredictedMakespanUS: res.PredictedMakespanUS,
			Solver:              solverStats(res.Solver),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	if art.Infeasible {
		return nil, core.ErrInfeasible
	}
	return c.toGraphResult(ctx, gw, art, o.Regulator)
}

// GraphRunSummary is the scalar outcome of executing a graph schedule: the
// whole timeline, without per-block maps.
type GraphRunSummary struct {
	MakespanUS         float64       `json:"makespan_us"`
	EnergyUJ           float64       `json:"energy_uj"`
	TaskEnergyUJ       float64       `json:"task_energy_uj"`
	Transitions        int64         `json:"transitions"`
	TransitionTimeUS   float64       `json:"transition_time_us"`
	TransitionEnergyUJ float64       `json:"transition_energy_uj"`
	CoreBusyUS         []float64     `json:"core_busy_us"`
	MissedDeadlines    int           `json:"missed_deadlines"`
	Runs               []sim.TaskRun `json:"runs"`
}

// MeetsDeadline reports whether the whole graph finished within deadlineUS
// and no per-task deadline was missed — sim.GraphResult.MeetsDeadline on the
// summary.
func (s GraphRunSummary) MeetsDeadline(deadlineUS float64) bool {
	return s.MissedDeadlines == 0 && s.MakespanUS <= deadlineUS*(1+1e-9)
}

func summarizeGraph(res *sim.GraphResult) GraphRunSummary {
	return GraphRunSummary{
		MakespanUS:         res.MakespanUS,
		EnergyUJ:           res.EnergyUJ,
		TaskEnergyUJ:       res.TaskEnergyUJ,
		Transitions:        res.Transitions,
		TransitionTimeUS:   res.TransitionTimeUS,
		TransitionEnergyUJ: res.TransitionEnergyUJ,
		CoreBusyUS:         res.CoreBusyUS,
		MissedDeadlines:    res.MissedDeadlines,
		Runs:               res.Runs,
	}
}

// SimulateGraph executes a graph schedule: its outcome equals, field for
// field, a run of sim.SimulateGraph on a machine of this Config's
// configuration. The workload's profiles must come from this Config, as
// BuildGraph's do.
func (c *Config) SimulateGraph(gw *GraphWorkload, s *sim.GraphSchedule) (GraphRunSummary, error) {
	return c.SimulateGraphCtx(context.Background(), gw, s)
}

// SimulateGraphCtx is SimulateGraph under a caller context. A degenerate
// schedule carrying an intra-task edge-grained schedule routes through the
// single-program validate stage — the artifact is the one an equivalent
// RunSchedule call reads and writes — and is lifted into the graph summary
// with its intra-task transitions. Everything else is planned from the
// profiles (planGraph): a fixed-mode task's run is already a profile fact,
// so only intra-task schedules are ever simulated.
func (c *Config) SimulateGraphCtx(ctx context.Context, gw *GraphWorkload, s *sim.GraphSchedule) (GraphRunSummary, error) {
	g := gw.Graph
	if len(g.Tasks) == 1 && s.Cores == 1 && len(s.Intra) == 1 && s.Intra[0] != nil && g.Tasks[0].ReleaseUS == 0 {
		run, err := c.RunScheduleCtx(ctx, gw.Profiles[0], s.Intra[0])
		if err != nil {
			return GraphRunSummary{}, err
		}
		sum := GraphRunSummary{
			MakespanUS:         run.TimeUS,
			EnergyUJ:           run.EnergyUJ,
			TaskEnergyUJ:       run.EnergyUJ - run.TransitionEnergyUJ,
			Transitions:        run.Transitions,
			TransitionTimeUS:   run.TransitionTimeUS,
			TransitionEnergyUJ: run.TransitionEnergyUJ,
			CoreBusyUS:         []float64{run.TimeUS},
			Runs: []sim.TaskRun{{
				Task: 0, Name: g.Tasks[0].Name, Core: 0, Mode: s.Placement[0].Mode,
				StartUS: 0, FinishUS: run.TimeUS,
				TimeUS: run.TimeUS, EnergyUJ: run.EnergyUJ,
			}},
		}
		if dl := g.Tasks[0].DeadlineUS; dl > 0 && run.TimeUS > dl*(1+1e-9) {
			sum.MissedDeadlines = 1
		}
		return sum, nil
	}

	plan, err := c.planGraph(ctx, gw, s)
	if err != nil {
		return GraphRunSummary{}, err
	}
	return summarizeGraph(plan), nil
}

// ReclaimGraph runs the slack-reclaiming governor over a static graph
// schedule, with per-task per-mode tables taken from the profiles (which are
// bit-identical to fixed-mode simulation, so the governor's arithmetic is
// exact). It returns the governed schedule and both planned timelines.
func (c *Config) ReclaimGraph(gw *GraphWorkload, static *sim.GraphSchedule) (governed *sim.GraphSchedule, governedPlan, staticPlan *sim.GraphResult, err error) {
	n := len(gw.Graph.Tasks)
	nm := gw.Profiles[0].Modes.Len()
	dur := make([][]float64, n)
	energy := make([][]float64, n)
	for t := 0; t < n; t++ {
		dur[t] = make([]float64, nm)
		energy[t] = make([]float64, nm)
		for m := 0; m < nm; m++ {
			dur[t][m] = gw.Profiles[t].TotalTimeUS[m]
			energy[t][m] = gw.Profiles[t].TotalEnergyUJ[m]
		}
	}
	return sim.Reclaim(sim.ReclaimInput{Graph: gw.Graph, Static: static, DurUS: dur, EnergyUJ: energy})
}

// GraphCell is one row of the task-graph study: a corpus graph optimized and
// executed statically, then governed by the slack reclaimer.
type GraphCell struct {
	Graph      string
	Cores      int
	Tasks      int
	DeadlineUS float64

	Static   GraphRunSummary
	Governed GraphRunSummary
	// SavingsVsFastest is 1 − E_static/E_allfastest: what the compile-time
	// schedule saves against running everything at the top mode.
	SavingsVsFastest float64
	// GovernorSavings is 1 − E_governed/E_static: what slack reclamation adds.
	GovernorSavings float64
	Solver          *milp.Result
}

// TaskGraphStudy optimizes and executes every corpus graph at the given mode
// level count: compile-time schedule via the graph MILP, then the online
// governor over it. Cells run sequentially.
func (c *Config) TaskGraphStudy(levels int) ([]GraphCell, error) {
	return c.TaskGraphStudyCtx(context.Background(), levels)
}

// TaskGraphStudyCtx is TaskGraphStudy under a caller context.
func (c *Config) TaskGraphStudyCtx(ctx context.Context, levels int) ([]GraphCell, error) {
	var cells []GraphCell
	for _, gs := range workloads.Graphs() {
		gw, err := c.BuildGraphCtx(ctx, gs, levels, 0)
		if err != nil {
			return nil, err
		}
		res, err := c.OptimizeGraphCtx(ctx, gw, nil)
		if err != nil {
			return nil, fmt.Errorf("exp: graph %q: %w", gs.Name, err)
		}
		static, err := c.SimulateGraphCtx(ctx, gw, res.Schedule)
		if err != nil {
			return nil, err
		}
		governed, _, _, err := c.ReclaimGraph(gw, res.Schedule)
		if err != nil {
			return nil, err
		}
		governedRun, err := c.SimulateGraphCtx(ctx, gw, governed)
		if err != nil {
			return nil, err
		}
		nm := gw.Profiles[0].Modes.Len()
		fastE := 0.0
		for _, pr := range gw.Profiles {
			fastE += pr.TotalEnergyUJ[nm-1]
		}
		cell := GraphCell{
			Graph:      gs.Name,
			Cores:      gw.Cores,
			Tasks:      len(gw.Graph.Tasks),
			DeadlineUS: gw.DeadlineUS,
			Static:     static,
			Governed:   governedRun,
			Solver:     res.Solver,
		}
		if fastE > 0 {
			cell.SavingsVsFastest = 1 - static.EnergyUJ/fastE
		}
		if static.EnergyUJ > 0 {
			cell.GovernorSavings = 1 - governedRun.EnergyUJ/static.EnergyUJ
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// TaskGraphTable renders the study as a paper-style table.
func TaskGraphTable(cells []GraphCell) *Table {
	t := &Table{
		Title: "Task-graph DVS: static MILP schedule vs slack-reclaiming governor",
		Headers: []string{"graph", "cores", "tasks", "deadline_us", "static_uj",
			"governed_uj", "static_saving", "governor_saving", "met"},
	}
	for _, cell := range cells {
		met := "yes"
		if !cell.Static.MeetsDeadline(cell.DeadlineUS) || !cell.Governed.MeetsDeadline(cell.DeadlineUS) {
			met = "NO"
		}
		t.Rows = append(t.Rows, []string{
			cell.Graph,
			fmt.Sprintf("%d", cell.Cores),
			fmt.Sprintf("%d", cell.Tasks),
			fmt.Sprintf("%.1f", cell.DeadlineUS),
			fmt.Sprintf("%.2f", cell.Static.EnergyUJ),
			fmt.Sprintf("%.2f", cell.Governed.EnergyUJ),
			fmt.Sprintf("%.1f%%", 100*cell.SavingsVsFastest),
			fmt.Sprintf("%.1f%%", 100*cell.GovernorSavings),
			met,
		})
	}
	return t
}
