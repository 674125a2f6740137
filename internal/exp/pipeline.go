package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"ctdvs/internal/core"
	"ctdvs/internal/milp"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/profile"
	"ctdvs/internal/schedfile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
)

// This file expresses the optimize and validate phases of every experiment as
// pipeline stages over the shared artifact store: Optimize caches MILP solves
// (keyed by profile fingerprints + canonical options), RunSchedule caches
// schedule re-simulations, and both record hit/miss accounting in the run
// manifest. With a disk store attached, a repeated experiment performs zero
// simulator profile collections and zero MILP solves.

// runner returns the config's pipeline runner, creating a memory-only one on
// first use so a zero-configured Config still works.
func (c *Config) runner() *pipeline.Runner {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Pipeline == nil {
		c.Pipeline = pipeline.NewRunner(nil)
	}
	return c.Pipeline
}

// fingerprint returns the content digest of a profile, cached per pointer
// (profiles are immutable once collected).
func (c *Config) fingerprint(pr *profile.Profile) (string, error) {
	if fp, ok := c.fingerprints.Load(pr); ok {
		return fp.(string), nil
	}
	fp, err := profile.Fingerprint(pr)
	if err != nil {
		return "", err
	}
	c.fingerprints.Store(pr, fp)
	return fp, nil
}

// solverStatsJSON serializes the branch-and-bound statistics of a cached
// solve (the incumbent point X is dropped — everything consumers read is
// kept).
type solverStatsJSON struct {
	Status      int     `json:"status"`
	Objective   float64 `json:"objective"`
	Bound       float64 `json:"bound"`
	Nodes       int     `json:"nodes"`
	LPIters     int     `json:"lp_iters"`
	Workers     int     `json:"workers"`
	SolveTimeNS int64   `json:"solve_time_ns"`
	// Warm-start statistics (absent, i.e. zero, in artifacts written before
	// the warm-started solver).
	WarmSolves    int   `json:"warm_solves,omitempty"`
	ColdSolves    int   `json:"cold_solves,omitempty"`
	WarmFallbacks int   `json:"warm_fallbacks,omitempty"`
	LPPivots      int   `json:"lp_pivots,omitempty"`
	LPTimeNS      int64 `json:"lp_time_ns,omitempty"`
	// AnalyticPrunes counts branch-and-bound children discarded by the
	// Li–Yao–Yuan analytic dual bound before any LP solve (absent, i.e. zero,
	// in artifacts written before the analytic-bound backend).
	AnalyticPrunes int `json:"analytic_prunes,omitempty"`
}

// solverStats keeps the statistics of a finished solve for its artifact.
func solverStats(r *milp.Result) solverStatsJSON {
	return solverStatsJSON{
		Status:         int(r.Status),
		Objective:      r.Objective,
		Bound:          r.Bound,
		Nodes:          r.Nodes,
		LPIters:        r.LPIters,
		Workers:        r.Workers,
		SolveTimeNS:    r.SolveTime.Nanoseconds(),
		WarmSolves:     r.WarmSolves,
		ColdSolves:     r.ColdSolves,
		WarmFallbacks:  r.WarmFallbacks,
		LPPivots:       r.LPPivots,
		LPTimeNS:       r.LPTime.Nanoseconds(),
		AnalyticPrunes: r.AnalyticPrunes,
	}
}

// result rebuilds the solver statistics an artifact kept.
func (s solverStatsJSON) result() *milp.Result {
	return &milp.Result{
		Status:         milp.Status(s.Status),
		Objective:      s.Objective,
		Bound:          s.Bound,
		Nodes:          s.Nodes,
		LPIters:        s.LPIters,
		Workers:        s.Workers,
		SolveTime:      time.Duration(s.SolveTimeNS),
		WarmSolves:     s.WarmSolves,
		ColdSolves:     s.ColdSolves,
		WarmFallbacks:  s.WarmFallbacks,
		LPPivots:       s.LPPivots,
		LPTime:         time.Duration(s.LPTimeNS),
		AnalyticPrunes: s.AnalyticPrunes,
	}
}

// solveArtifact is the cached outcome of one MILP solve. Infeasible outcomes
// are artifacts too, so a warm run does not re-solve problems known to have
// no schedule.
type solveArtifact struct {
	Version           int             `json:"version"`
	Infeasible        bool            `json:"infeasible"`
	Schedule          *schedfile.File `json:"schedule,omitempty"`
	PredictedEnergyUJ float64         `json:"predicted_energy_uj"`
	PredictedTimeUS   []float64       `json:"predicted_time_us"`
	IndependentEdges  int             `json:"independent_edges"`
	TotalEdges        int             `json:"total_edges"`
	Solver            solverStatsJSON `json:"solver"`
}

const solveArtifactVersion = 2

// solveStage stores solve artifacts in their binary codec only.
var solveStage = pipeline.Stage[*solveArtifact]{
	Kind:         pipeline.StageSolve,
	EncodeBinary: encodeSolveBinary,
	DecodeBinary: decodeSolveBinary,
}

// toResult rebuilds the optimizer result from an artifact. Cold runs pass
// through the same conversion, so cold and warm results are identical by
// construction.
func (a *solveArtifact) toResult() (*core.Result, error) {
	_, sched, err := a.Schedule.Schedule()
	if err != nil {
		return nil, err
	}
	return &core.Result{
		Schedule:          sched,
		PredictedEnergyUJ: a.PredictedEnergyUJ,
		PredictedTimeUS:   a.PredictedTimeUS,
		IndependentEdges:  a.IndependentEdges,
		TotalEdges:        a.TotalEdges,
		Solver:            a.Solver.result(),
	}, nil
}

// Optimize is core.Optimize routed through the pipeline: the solve (and with
// it the filter and formulate stages) runs only when no artifact exists for
// the canonicalized inputs.
func (c *Config) Optimize(cats []core.Category, opts *core.Options) (*core.Result, error) {
	return c.OptimizeCtx(context.Background(), cats, opts)
}

// OptimizeCtx is Optimize under a caller context. Cancellation is checked at
// every stage boundary (filter → formulate → solve) and polled inside the
// branch-and-bound search itself; an aborted solve surfaces ctx's error and
// leaves no artifact behind. The context never participates in cache keys, so
// requests with different deadlines still share artifacts.
func (c *Config) OptimizeCtx(ctx context.Context, cats []core.Category, opts *core.Options) (*core.Result, error) {
	prep, err := core.Prepare(cats, opts)
	if err != nil {
		return nil, err
	}
	fps := make([]string, len(prep.Cats))
	for i, cat := range prep.Cats {
		if fps[i], err = c.fingerprint(cat.Profile); err != nil {
			return nil, err
		}
	}
	key := solveKey(prep, fps)
	program := prep.Cats[0].Profile.Program.Name
	r := c.runner()
	art, err := pipeline.RunCtx(ctx, r, solveStage, key, func(ctx context.Context) (*solveArtifact, error) {
		var grouping *core.Grouping
		if err := r.Observe(pipeline.StageFilter, key, func() error {
			grouping = prep.Filter()
			return nil
		}); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var fm *core.Formulation
		if err := r.Observe(pipeline.StageFormulate, key, func() error {
			fm = prep.Formulate(grouping)
			return nil
		}); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := fm.SolveContext(ctx)
		if errors.Is(err, core.ErrInfeasible) {
			return &solveArtifact{Version: solveArtifactVersion, Infeasible: true}, nil
		}
		if err != nil {
			return nil, err
		}
		f, err := schedfile.New(program, res.Schedule)
		if err != nil {
			return nil, err
		}
		return &solveArtifact{
			Version:           solveArtifactVersion,
			Schedule:          f,
			PredictedEnergyUJ: res.PredictedEnergyUJ,
			PredictedTimeUS:   res.PredictedTimeUS,
			IndependentEdges:  res.IndependentEdges,
			TotalEdges:        res.TotalEdges,
			Solver:            solverStats(res.Solver),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	if art.Infeasible {
		return nil, core.ErrInfeasible
	}
	return art.toResult()
}

// OptimizeSingle is Optimize for the common single-profile case.
func (c *Config) OptimizeSingle(pr *profile.Profile, deadlineUS float64, opts *core.Options) (*core.Result, error) {
	return c.Optimize([]core.Category{{Profile: pr, Weight: 1, DeadlineUS: deadlineUS}}, opts)
}

// OptimizeSingleCtx is OptimizeCtx for the common single-profile case.
func (c *Config) OptimizeSingleCtx(ctx context.Context, pr *profile.Profile, deadlineUS float64, opts *core.Options) (*core.Result, error) {
	return c.OptimizeCtx(ctx, []core.Category{{Profile: pr, Weight: 1, DeadlineUS: deadlineUS}}, opts)
}

// RunSummary is the cached scalar outcome of executing a schedule on the
// simulator — everything the experiments read from a validation run, without
// the per-block maps that make sim.Result expensive to persist.
type RunSummary struct {
	TimeUS             float64 `json:"time_us"`
	EnergyUJ           float64 `json:"energy_uj"`
	Transitions        int64   `json:"transitions"`
	TransitionTimeUS   float64 `json:"transition_time_us"`
	TransitionEnergyUJ float64 `json:"transition_energy_uj"`
	LeakageEnergyUJ    float64 `json:"leakage_energy_uj"`
	L1Hits             int64   `json:"l1_hits"`
	L2Hits             int64   `json:"l2_hits"`
	MemMisses          int64   `json:"mem_misses"`
	Branches           int64   `json:"branches"`
	Mispredicts        int64   `json:"mispredicts"`
}

func summarize(res *sim.Result) RunSummary {
	return RunSummary{
		TimeUS:             res.TimeUS,
		EnergyUJ:           res.EnergyUJ,
		Transitions:        res.Transitions,
		TransitionTimeUS:   res.TransitionTimeUS,
		TransitionEnergyUJ: res.TransitionEnergyUJ,
		LeakageEnergyUJ:    res.LeakageEnergyUJ,
		L1Hits:             res.L1Hits,
		L2Hits:             res.L2Hits,
		MemMisses:          res.MemMisses,
		Branches:           res.Branches,
		Mispredicts:        res.Mispredicts,
	}
}

var validateStage = pipeline.Stage[RunSummary]{
	Kind:   pipeline.StageValidate,
	Encode: func(s RunSummary) ([]byte, error) { return json.Marshal(s) },
	Decode: func(data []byte) (RunSummary, error) {
		var s RunSummary
		err := json.Unmarshal(data, &s)
		return s, err
	},
}

// RunSchedule executes (or loads from cache) a schedule for the profiled
// workload on the default machine configuration.
func (c *Config) RunSchedule(pr *profile.Profile, sched *sim.Schedule) (RunSummary, error) {
	return c.RunScheduleCtx(context.Background(), pr, sched)
}

// RunScheduleCtx is RunSchedule under a caller context: a request cancelled
// before the validation simulation starts never runs it.
func (c *Config) RunScheduleCtx(ctx context.Context, pr *profile.Profile, sched *sim.Schedule) (RunSummary, error) {
	return c.RunScheduleConfigCtx(ctx, c.Machine.Config(), pr, sched)
}

// RunScheduleConfig is RunSchedule on an explicit machine configuration
// (the leakage ablation sweeps StaticPowerMW this way). The configuration is
// part of the cache key.
func (c *Config) RunScheduleConfig(mc sim.Config, pr *profile.Profile, sched *sim.Schedule) (RunSummary, error) {
	return c.RunScheduleConfigCtx(context.Background(), mc, pr, sched)
}

// RunScheduleConfigCtx is RunScheduleConfig under a caller context.
func (c *Config) RunScheduleConfigCtx(ctx context.Context, mc sim.Config, pr *profile.Profile, sched *sim.Schedule) (RunSummary, error) {
	profileFP, err := c.fingerprint(pr)
	if err != nil {
		return RunSummary{}, err
	}
	schedFP, err := schedfile.Fingerprint(pr.Program.Name, sched)
	if err != nil {
		return RunSummary{}, err
	}
	key := validateKey(profileFP, schedFP, mc)
	return pipeline.RunCtx(ctx, c.runner(), validateStage, key, func(context.Context) (RunSummary, error) {
		var m *sim.Machine
		if mc == c.Machine.Config() {
			m = c.acquireMachine()
			defer c.releaseMachine(m)
		} else {
			var err error
			if m, err = sim.New(mc); err != nil {
				return RunSummary{}, err
			}
		}
		res, err := m.RunDVS(pr.Program, pr.Input, sched)
		if err != nil {
			return RunSummary{}, err
		}
		return summarize(res), nil
	})
}

// Measurement is RunSummary checked against a deadline — the pipeline
// counterpart of core.Evaluation.
type Measurement struct {
	Run           RunSummary
	DeadlineUS    float64
	MeetsDeadline bool
	// SlackUS is deadline − measured time (negative when missed).
	SlackUS float64
}

// Measure executes the schedule via the validate stage and checks it against
// the deadline. The cached artifact is deadline-independent; the deadline
// comparison happens on load.
func (c *Config) Measure(pr *profile.Profile, sched *sim.Schedule, deadlineUS float64) (*Measurement, error) {
	return c.MeasureCtx(context.Background(), pr, sched, deadlineUS)
}

// MeasureCtx is Measure under a caller context.
func (c *Config) MeasureCtx(ctx context.Context, pr *profile.Profile, sched *sim.Schedule, deadlineUS float64) (*Measurement, error) {
	run, err := c.RunScheduleCtx(ctx, pr, sched)
	if err != nil {
		return nil, err
	}
	return &Measurement{
		Run:           run,
		DeadlineUS:    deadlineUS,
		MeetsDeadline: run.TimeUS <= deadlineUS*(1+1e-9),
		SlackUS:       deadlineUS - run.TimeUS,
	}, nil
}

// Savings measures the energy-saving ratio 1 − E_dvs/E_single against the
// best single mode meeting the deadline. E_dvs is the schedule's run through
// the validate stage; E_single is the profile's total energy at that mode,
// the baseline dvs-opt prints. The profile must come from this Config (as
// every caller's does): then that total is, bit for bit, what a fixed-mode
// run on c.Machine measures (TestFixedModeRunsMatchProfile), so the baseline
// is never simulated. reg is unused, since a single-mode schedule makes no
// transitions; it stays because the benchmark harness in perfbench/
// compiles against this signature.
func (c *Config) Savings(pr *profile.Profile, sched *sim.Schedule, deadlineUS float64, reg volt.Regulator) (float64, error) {
	return c.SavingsCtx(context.Background(), pr, sched, deadlineUS, reg)
}

// SavingsCtx is Savings under a caller context.
func (c *Config) SavingsCtx(ctx context.Context, pr *profile.Profile, sched *sim.Schedule, deadlineUS float64, reg volt.Regulator) (float64, error) {
	_, baseE, ok := pr.BestSingleMode(deadlineUS)
	if !ok {
		return 0, fmt.Errorf("core: no single mode meets deadline %v µs", deadlineUS)
	}
	dvs, err := c.RunScheduleCtx(ctx, pr, sched)
	if err != nil {
		return 0, err
	}
	if baseE <= 0 {
		return 0, nil
	}
	return 1 - dvs.EnergyUJ/baseE, nil
}
