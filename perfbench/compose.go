package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"ctdvs/internal/core"
	"ctdvs/internal/exp"
	"ctdvs/internal/milp"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/profile"
	"ctdvs/internal/schedfile"
	"ctdvs/internal/serve"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// composer is the traced run's stand-in for exp's request calls (ProfileCtx,
// OptimizeSingleCtx, MeasureCtx, SavingsCtx): each is rebuilt from the
// public calls of the layers beneath it — the pipeline runner and store,
// the profile and schedfile codecs, the simulator, and core's
// prepare/filter/formulate/solve stages — with a span around every call.
// Stage kinds, keys and codecs are exp's, except the solve artifact, which
// the composer stores as JSON in its own keys because exp's binary solve
// codec is not exported. Task graphs get their profiles here and the rest
// from exp, under core.graph and sim.graph spans.
type composer struct {
	cfg      *exp.Config
	fps      sync.Map // *profile.Profile -> fingerprint, cached as exp caches it
	machines sync.Pool
	n        *counters
}

func newComposer(cfg *exp.Config, n *counters) *composer {
	c := &composer{cfg: cfg, n: n}
	c.machines.New = func() any { return sim.MustNew(cfg.Machine.Config()) }
	return c
}

func (c *composer) runner() *pipeline.Runner { return c.cfg.Pipeline }

// counters accumulates the traced run's work counts.
type counters struct {
	mu                                sync.Mutex
	puts, putBytes, readBytes         int64
	traceBlocks, independentEdges     int64
	nodes, lpSolves, prunes, pivots   int64
	warmSolves, coldSolves, fallbacks int64
	searchTime, lpTime                time.Duration
	continuousCalls, discreteCalls    int64
}

func (n *counters) add(f func(n *counters)) {
	n.mu.Lock()
	f(n)
	n.mu.Unlock()
}

func (n *counters) solver(r *milp.Result) {
	n.add(func(n *counters) {
		n.nodes += int64(r.Nodes)
		n.lpSolves += int64(r.LPIters)
		n.prunes += int64(r.AnalyticPrunes)
		n.pivots += int64(r.LPPivots)
		n.warmSolves += int64(r.WarmSolves)
		n.coldSolves += int64(r.ColdSolves)
		n.fallbacks += int64(r.WarmFallbacks)
		n.searchTime += r.SolveTime
		n.lpTime += r.LPTime
	})
}

// lookup tracks one pipeline.RunCtx call: its span is renamed after the
// call to what the runner did — computed and wrote (pipeline.put), read
// from the store (pipeline.read) or answered from memory (pipeline.mem).
// The computation and the codec calls are child spans, so the lookup's self
// time is the runner's and the store's own work.
type lookup struct {
	s                sp
	computed, loaded bool
}

func (c *composer) open(parent sp) *lookup { return &lookup{s: parent.child("pipeline.lookup")} }

func (l *lookup) close() {
	switch {
	case l.computed:
		l.s.rename("pipeline.put")
	case l.loaded:
		l.s.rename("pipeline.read")
	default:
		l.s.rename("pipeline.mem")
	}
	l.s.end()
}

// encode wraps a stage encoder with a span and the put counters.
func encode[T any](c *composer, l *lookup, name string, enc func(T) ([]byte, error)) func(T) ([]byte, error) {
	return func(v T) ([]byte, error) {
		s := l.s.child(name)
		data, err := enc(v)
		s.end()
		c.n.add(func(n *counters) { n.puts++; n.putBytes += int64(len(data)) })
		return data, err
	}
}

// decode wraps a stage decoder with a span and the read counters.
func decode[T any](c *composer, l *lookup, name string, dec func([]byte) (T, error)) func([]byte) (T, error) {
	return func(data []byte) (T, error) {
		l.loaded = true
		s := l.s.child(name)
		v, err := dec(data)
		s.end()
		c.n.add(func(n *counters) { n.readBytes += int64(len(data)) })
		return v, err
	}
}

func (c *composer) acquire() *sim.Machine  { return c.machines.Get().(*sim.Machine) }
func (c *composer) release(m *sim.Machine) { m.Reset(); c.machines.Put(m) }

// profile is exp.Config.ProfileCtx.
func (c *composer) profile(ctx context.Context, parent sp, bench string, input, levels int) (*profile.Profile, error) {
	s := parent.child("exp.profile")
	defer s.end()
	spec, err := c.cfg.Spec(bench)
	if err != nil {
		return nil, err
	}
	if input < 0 || input >= len(spec.Inputs) {
		return nil, fmt.Errorf("%s has no input %d", bench, input)
	}
	ms, err := volt.Levels(levels)
	if err != nil {
		return nil, err
	}
	prog, in := spec.Program, spec.Inputs[input]
	l := c.open(s)
	defer l.close()
	st := pipeline.Stage[*profile.Profile]{
		Kind:         pipeline.StageProfile,
		Encode:       profile.Encode,
		Decode:       func(d []byte) (*profile.Profile, error) { return profile.Decode(d, prog, in, ms) },
		EncodeBinary: encode(c, l, "profile.encode", profile.EncodeBinary),
		DecodeBinary: decode(c, l, "profile.decode", func(d []byte) (*profile.Profile, error) {
			return profile.DecodeBinary(d, prog, in, ms)
		}),
		DecodeMapped: decode(c, l, "profile.decode", func(d []byte) (*profile.Profile, error) {
			return profile.DecodeBinaryMapped(d, prog, in, ms)
		}),
	}
	mc := c.cfg.Machine.Config()
	return pipeline.RunCtx(ctx, c.runner(), st, profileKey(mc, bench, input, levels), func(ctx context.Context) (*profile.Profile, error) {
		l.computed = true
		rec, err := c.recording(ctx, l.s, spec, bench, input)
		if err == nil {
			r := l.s.child("profile.replay")
			defer r.end()
			return profile.FromRecording(rec, prog, in, ms)
		}
		if !errors.Is(err, sim.ErrUnrecordable) {
			return nil, err
		}
		r := l.s.child("sim.record")
		defer r.end()
		m := c.acquire()
		defer c.release(m)
		return profile.CollectPerMode(m, prog, in, ms)
	})
}

// recording is exp's record stage.
func (c *composer) recording(ctx context.Context, parent sp, spec *workloads.Spec, bench string, input int) (*sim.Recording, error) {
	mc := c.cfg.Machine.Config()
	prog, in := spec.Program, spec.Inputs[input]
	l := c.open(parent)
	defer l.close()
	st := pipeline.Stage[*sim.Recording]{
		Kind:         pipeline.StageRecording,
		Encode:       schedfile.EncodeRecording,
		Decode:       func(d []byte) (*sim.Recording, error) { return schedfile.DecodeRecording(d, prog, in, mc) },
		EncodeBinary: encode(c, l, "schedfile.codec", schedfile.EncodeRecordingBinary),
		DecodeBinary: decode(c, l, "schedfile.codec", func(d []byte) (*sim.Recording, error) {
			return schedfile.DecodeRecordingBinary(d, prog, in, mc)
		}),
		DecodeMapped: decode(c, l, "schedfile.codec", func(d []byte) (*sim.Recording, error) {
			return schedfile.DecodeRecordingBinaryMapped(d, prog, in, mc)
		}),
	}
	return pipeline.RunCtx(ctx, c.runner(), st, recordKey(mc, bench, input), func(context.Context) (*sim.Recording, error) {
		l.computed = true
		r := l.s.child("sim.record")
		defer r.end()
		m := c.acquire()
		defer c.release(m)
		rec, _, err := m.Record(prog, in, volt.XScale3().Max())
		if err == nil {
			c.n.add(func(n *counters) { n.traceBlocks += int64(len(rec.Trace)) })
		}
		return rec, err
	})
}

// fingerprint is exp's per-profile cached content digest.
func (c *composer) fingerprint(parent sp, pr *profile.Profile) (string, error) {
	if fp, ok := c.fps.Load(pr); ok {
		return fp.(string), nil
	}
	s := parent.child("profile.fingerprint")
	fp, err := profile.Fingerprint(pr)
	s.end()
	if err != nil {
		return "", err
	}
	c.fps.Store(pr, fp)
	return fp, nil
}

// solveArtifact mirrors the JSON layout of exp's solve artifact.
type solveArtifact struct {
	Version           int             `json:"version"`
	Infeasible        bool            `json:"infeasible"`
	Schedule          *schedfile.File `json:"schedule,omitempty"`
	PredictedEnergyUJ float64         `json:"predicted_energy_uj"`
	PredictedTimeUS   []float64       `json:"predicted_time_us"`
	IndependentEdges  int             `json:"independent_edges"`
	TotalEdges        int             `json:"total_edges"`
	Solver            solverStats     `json:"solver"`
}

// solverStats mirrors exp's cached branch-and-bound statistics.
type solverStats struct {
	Status         int     `json:"status"`
	Objective      float64 `json:"objective"`
	Bound          float64 `json:"bound"`
	Nodes          int     `json:"nodes"`
	LPIters        int     `json:"lp_iters"`
	Workers        int     `json:"workers"`
	SolveTimeNS    int64   `json:"solve_time_ns"`
	WarmSolves     int     `json:"warm_solves,omitempty"`
	ColdSolves     int     `json:"cold_solves,omitempty"`
	WarmFallbacks  int     `json:"warm_fallbacks,omitempty"`
	LPPivots       int     `json:"lp_pivots,omitempty"`
	LPTimeNS       int64   `json:"lp_time_ns,omitempty"`
	AnalyticPrunes int     `json:"analytic_prunes,omitempty"`
}

func statsOf(r *milp.Result) solverStats {
	return solverStats{
		Status: int(r.Status), Objective: r.Objective, Bound: r.Bound, Nodes: r.Nodes,
		LPIters: r.LPIters, Workers: r.Workers, SolveTimeNS: r.SolveTime.Nanoseconds(),
		WarmSolves: r.WarmSolves, ColdSolves: r.ColdSolves, WarmFallbacks: r.WarmFallbacks,
		LPPivots: r.LPPivots, LPTimeNS: r.LPTime.Nanoseconds(), AnalyticPrunes: r.AnalyticPrunes,
	}
}

// solved is an optimize outcome: the schedule, its predictions and the
// cached artifact it came from.
type solved struct {
	infeasible        bool
	schedule          *sim.Schedule
	predictedEnergyUJ float64
	predictedTimeUS   float64
	art               *solveArtifact
}

// optimize is exp.Config.OptimizeSingleCtx.
func (c *composer) optimize(ctx context.Context, parent sp, pr *profile.Profile, dl float64, opts *core.Options) (solved, error) {
	s := parent.child("exp.optimize")
	defer s.end()
	p := s.child("core.prepare")
	prep, err := core.Prepare([]core.Category{{Profile: pr, Weight: 1, DeadlineUS: dl}}, opts)
	p.end()
	if err != nil {
		return solved{}, err
	}
	fp, err := c.fingerprint(s, pr)
	if err != nil {
		return solved{}, err
	}
	key := solveKey(prep, []string{fp})
	program := pr.Program.Name
	r := c.runner()
	l := c.open(s)
	st := pipeline.Stage[*solveArtifact]{
		Kind:   pipeline.StageSolve,
		Encode: encode(c, l, "exp.codec", func(a *solveArtifact) ([]byte, error) { return json.Marshal(a) }),
		Decode: decode(c, l, "exp.codec", func(d []byte) (*solveArtifact, error) {
			var a solveArtifact
			err := json.Unmarshal(d, &a)
			return &a, err
		}),
	}
	art, err := pipeline.RunCtx(ctx, r, st, key, func(ctx context.Context) (*solveArtifact, error) {
		l.computed = true
		var g *core.Grouping
		if err := r.Observe(pipeline.StageFilter, key, func() error {
			f := l.s.child("core.filter")
			g = prep.Filter()
			f.end()
			return nil
		}); err != nil {
			return nil, err
		}
		var fm *core.Formulation
		if err := r.Observe(pipeline.StageFormulate, key, func() error {
			f := l.s.child("core.formulate")
			fm = prep.Formulate(g)
			f.end()
			return nil
		}); err != nil {
			return nil, err
		}
		sv := l.s.child("core.solve")
		res, err := fm.SolveContext(ctx)
		sv.end()
		if errors.Is(err, core.ErrInfeasible) {
			return &solveArtifact{Version: 2, Infeasible: true}, nil
		}
		if err != nil {
			return nil, err
		}
		c.n.solver(res.Solver)
		c.n.add(func(n *counters) { n.independentEdges += int64(res.IndependentEdges) })
		a := l.s.child("exp.artifact")
		defer a.end()
		f, err := schedfile.New(program, res.Schedule)
		if err != nil {
			return nil, err
		}
		return &solveArtifact{
			Version: 2, Schedule: f,
			PredictedEnergyUJ: res.PredictedEnergyUJ, PredictedTimeUS: res.PredictedTimeUS,
			IndependentEdges: res.IndependentEdges, TotalEdges: res.TotalEdges,
			Solver: statsOf(res.Solver),
		}, nil
	})
	l.close()
	if err != nil {
		return solved{}, err
	}
	if art.Infeasible {
		return solved{infeasible: true}, nil
	}
	a := s.child("exp.artifact")
	defer a.end()
	_, sched, err := art.Schedule.Schedule()
	if err != nil {
		return solved{}, err
	}
	return solved{schedule: sched, predictedEnergyUJ: art.PredictedEnergyUJ, predictedTimeUS: art.PredictedTimeUS[0], art: art}, nil
}

// runSchedule is exp.Config.RunScheduleCtx; simSpan names the simulation
// it runs on a miss (sim.validate or sim.baseline).
func (c *composer) runSchedule(ctx context.Context, parent sp, pr *profile.Profile, sched *sim.Schedule, simSpan string) (exp.RunSummary, error) {
	pfp, err := c.fingerprint(parent, pr)
	if err != nil {
		return exp.RunSummary{}, err
	}
	f := parent.child("schedfile.fingerprint")
	sfp, err := schedfile.Fingerprint(pr.Program.Name, sched)
	f.end()
	if err != nil {
		return exp.RunSummary{}, err
	}
	mc := c.cfg.Machine.Config()
	l := c.open(parent)
	defer l.close()
	st := pipeline.Stage[exp.RunSummary]{
		Kind:   pipeline.StageValidate,
		Encode: encode(c, l, "exp.codec", func(s exp.RunSummary) ([]byte, error) { return json.Marshal(s) }),
		Decode: decode(c, l, "exp.codec", func(d []byte) (exp.RunSummary, error) {
			var s exp.RunSummary
			err := json.Unmarshal(d, &s)
			return s, err
		}),
	}
	return pipeline.RunCtx(ctx, c.runner(), st, validateKey(pfp, sfp, mc), func(context.Context) (exp.RunSummary, error) {
		l.computed = true
		s := l.s.child(simSpan)
		defer s.end()
		m := c.acquire()
		defer c.release(m)
		res, err := m.RunDVS(pr.Program, pr.Input, sched)
		if err != nil {
			return exp.RunSummary{}, err
		}
		return exp.RunSummary{
			TimeUS: res.TimeUS, EnergyUJ: res.EnergyUJ,
			Transitions: res.Transitions, TransitionTimeUS: res.TransitionTimeUS,
			TransitionEnergyUJ: res.TransitionEnergyUJ, LeakageEnergyUJ: res.LeakageEnergyUJ,
			L1Hits: res.L1Hits, L2Hits: res.L2Hits, MemMisses: res.MemMisses,
			Branches: res.Branches, Mispredicts: res.Mispredicts,
		}, nil
	})
}

// measure is exp.Config.MeasureCtx.
func (c *composer) measure(ctx context.Context, parent sp, pr *profile.Profile, sched *sim.Schedule, dl float64) (exp.RunSummary, bool, error) {
	s := parent.child("exp.measure")
	defer s.end()
	run, err := c.runSchedule(ctx, s, pr, sched, "sim.validate")
	return run, run.TimeUS <= dl*(1+1e-9), err
}

// savings is exp.Config.SavingsCtx.
func (c *composer) savings(ctx context.Context, parent sp, pr *profile.Profile, sched *sim.Schedule, dl float64, reg volt.Regulator) (float64, error) {
	s := parent.child("exp.savings")
	defer s.end()
	mode, _, ok := pr.BestSingleMode(dl)
	if !ok {
		return 0, fmt.Errorf("no single mode meets deadline %v µs", dl)
	}
	base, err := c.runSchedule(ctx, s, pr, core.SingleModeSchedule(pr, mode, reg), "sim.baseline")
	if err != nil {
		return 0, err
	}
	dvs, err := c.runSchedule(ctx, s, pr, sched, "sim.validate")
	if err != nil {
		return 0, err
	}
	if base.EnergyUJ <= 0 {
		return 0, nil
	}
	return 1 - dvs.EnergyUJ/base.EnergyUJ, nil
}

// request is runRequest rebuilt from the composed calls.
func (c *composer) request(ctx context.Context, s sp, r req) (answer, checked, error) {
	if r.Graph != "" {
		a, err := c.graph(ctx, s, r)
		return a, checked{}, err
	}
	x := s.child("exp.spec")
	spec, err := c.cfg.Spec(r.Bench)
	x.end()
	if err != nil {
		return answer{}, checked{}, err
	}
	pr, err := c.profile(ctx, s, r.Bench, r.Input, r.Levels)
	if err != nil {
		return answer{}, checked{}, err
	}
	n := pr.Modes.Len()
	dl := spec.Deadline(r.Deadline, pr.TotalTimeUS[n-1], pr.TotalTimeUS[0])
	a := answer{DeadlineUS: dl}
	opts := solveOptions(r.CapF, false)
	res, err := c.optimize(ctx, s, pr, dl, opts)
	if err != nil {
		return a, checked{}, err
	}
	if res.infeasible {
		a.Infeasible = true
		return a, checked{pr: pr}, nil
	}
	a.PredictedEnergyUJ, a.PredictedTimeUS = res.predictedEnergyUJ, res.predictedTimeUS
	run, meets, err := c.measure(ctx, s, pr, res.schedule, dl)
	if err != nil {
		return a, checked{}, err
	}
	a.MeasuredEnergyUJ, a.MeasuredTimeUS, a.MeetsDeadline = run.EnergyUJ, run.TimeUS, meets
	if _, _, ok := pr.BestSingleMode(dl); ok {
		sv, err := c.savings(ctx, s, pr, res.schedule, dl, opts.Regulator)
		if err != nil {
			return a, checked{}, err
		}
		a.HasBaseline, a.Savings = true, sv
	}
	return a, checked{pr: pr, sched: res.schedule}, nil
}

// graph runs a task-graph request: task profiles through the composed
// profile stage (so exp's graph calls find them in the runner), then exp's
// build, optimize, execute and reclaim calls under core.graph and sim.graph
// spans.
func (c *composer) graph(ctx context.Context, s sp, r req) (answer, error) {
	gs, ok := workloads.Graph(r.Graph)
	if !ok {
		return answer{}, fmt.Errorf("unknown task graph %q", r.Graph)
	}
	for _, t := range gs.Tasks {
		if _, err := c.profile(ctx, s, t.Bench, t.Input, r.Levels); err != nil {
			return answer{}, err
		}
	}
	b := s.child("core.graph")
	gw, err := c.cfg.BuildGraphCtx(ctx, gs, r.Levels, 0)
	b.end()
	if err != nil {
		return answer{}, err
	}
	return graphTail(ctx, c.cfg, gw, r.CapF, &graphHooks{
		optimize: func() sp { return s.child("core.graph") },
		simulate: func() sp { return s.child("sim.graph") },
	})
}

// serveResponse is the server's optimize handler (serve.Server's single and
// task-graph paths) rebuilt from the composed calls.
func (c *composer) serveResponse(ctx context.Context, s sp, q *serve.Request) (*serve.Response, error) {
	if q.Graph != nil {
		return c.serveGraph(ctx, s, q)
	}
	x := s.child("exp.spec")
	spec, err := c.cfg.Spec(q.Bench)
	x.end()
	if err != nil {
		return nil, err
	}
	pr, err := c.profile(ctx, s, q.Bench, q.Input, q.Levels)
	if err != nil {
		return nil, err
	}
	dl := q.DeadlineUS
	if dl == 0 {
		n := pr.Modes.Len()
		dl = spec.Deadline(q.Deadline, pr.TotalTimeUS[n-1], pr.TotalTimeUS[0])
	}
	reg := volt.DefaultRegulator().WithCapacitance(q.CapacitanceF)
	opts := &core.Options{
		Regulator: reg, NoTransitionCosts: q.NoTransitionCosts, BlockBased: q.BlockBased,
		MILP: &milp.Options{TimeLimit: solveLimit},
	}
	if q.NoFilter {
		opts.FilterTail = -1
	}
	resp := &serve.Response{Bench: spec.Name, Input: spec.Inputs[q.Input].Name, Levels: q.Levels, DeadlineUS: dl}
	res, err := c.optimize(ctx, s, pr, dl, opts)
	if err != nil {
		return nil, err
	}
	if res.infeasible {
		resp.Infeasible = true
		return resp, nil
	}
	a := res.art
	resp.PredictedEnergyUJ, resp.PredictedTimeUS = res.predictedEnergyUJ, res.predictedTimeUS
	resp.IndependentEdges, resp.TotalEdges = a.IndependentEdges, a.TotalEdges
	resp.Solver = &serve.SolverStats{
		Status: milp.Status(a.Solver.Status).String(), Nodes: a.Solver.Nodes, LPIters: a.Solver.LPIters,
		SolveTimeNS: a.Solver.SolveTimeNS, WarmSolves: a.Solver.WarmSolves, ColdSolves: a.Solver.ColdSolves,
		WarmFallbacks: a.Solver.WarmFallbacks, LPPivots: a.Solver.LPPivots,
		AnalyticPrunes: a.Solver.AnalyticPrunes, ObjectiveUJ: a.Solver.Objective,
	}
	if q.IncludeSchedule {
		x := s.child("exp.artifact")
		f, err := schedfile.New(spec.Name, res.schedule)
		x.end()
		if err != nil {
			return nil, err
		}
		resp.Schedule = f
	}
	if !q.SkipMeasure {
		run, meets, err := c.measure(ctx, s, pr, res.schedule, dl)
		if err != nil {
			return nil, err
		}
		resp.Measured = &serve.Measured{Run: run, MeetsDeadline: meets, SlackUS: dl - run.TimeUS}
		if mode, baseE, ok := pr.BestSingleMode(dl); ok {
			sv, err := c.savings(ctx, s, pr, res.schedule, dl, reg)
			if err != nil {
				return nil, err
			}
			resp.Baseline = &serve.Baseline{Mode: pr.Modes.Mode(mode).String(), EnergyUJ: baseE, Savings: sv}
		}
	}
	return resp, nil
}

// serveGraph is the server's task-graph path: composed task profiles, then
// exp's graph calls under core.graph and sim.graph spans.
func (c *composer) serveGraph(ctx context.Context, s sp, q *serve.Request) (*serve.Response, error) {
	gs, ok := workloads.Graph(q.Graph.Name)
	if !ok {
		return nil, fmt.Errorf("unknown task graph %q", q.Graph.Name)
	}
	for _, t := range gs.Tasks {
		if _, err := c.profile(ctx, s, t.Bench, t.Input, q.Levels); err != nil {
			return nil, err
		}
	}
	g := s.child("core.graph")
	gw, err := c.cfg.BuildGraphCtx(ctx, gs, q.Levels, q.DeadlineUS)
	if err != nil {
		g.end()
		return nil, err
	}
	res, err := c.cfg.OptimizeGraphCtx(ctx, gw, &core.Options{
		Regulator:         volt.DefaultRegulator().WithCapacitance(q.CapacitanceF),
		NoTransitionCosts: q.NoTransitionCosts,
		MILP:              &milp.Options{TimeLimit: solveLimit},
	})
	g.end()
	names := make([]string, len(gw.Graph.Tasks))
	for t, task := range gw.Graph.Tasks {
		names[t] = task.Name
	}
	gr := &serve.GraphResponse{Name: gs.Name, Cores: gw.Cores, Tasks: names, DeadlineUS: gw.DeadlineUS}
	resp := &serve.Response{Levels: q.Levels, DeadlineUS: gw.DeadlineUS, Graph: gr}
	if errors.Is(err, core.ErrInfeasible) {
		resp.Infeasible = true
		return resp, nil
	}
	if err != nil {
		return nil, err
	}
	gr.Degenerate, gr.Placement, gr.Order = res.Degenerate, res.Schedule.Placement, res.Schedule.Order
	gr.PredictedEnergyUJ, gr.PredictedMakespanUS = res.PredictedEnergyUJ, res.PredictedMakespanUS
	for _, pl := range res.Schedule.Placement {
		gr.Modes = append(gr.Modes, res.Schedule.Modes.Mode(pl.Mode).String())
	}
	resp.Solver = &serve.SolverStats{
		Status: res.Solver.Status.String(), Nodes: res.Solver.Nodes, LPIters: res.Solver.LPIters,
		SolveTimeNS: res.Solver.SolveTime.Nanoseconds(), WarmSolves: res.Solver.WarmSolves,
		ColdSolves: res.Solver.ColdSolves, WarmFallbacks: res.Solver.WarmFallbacks,
		LPPivots: res.Solver.LPPivots, AnalyticPrunes: res.Solver.AnalyticPrunes, ObjectiveUJ: res.Solver.Objective,
	}
	if q.SkipMeasure {
		return resp, nil
	}
	m := s.child("sim.graph")
	defer m.end()
	measured := func(run exp.GraphRunSummary) *serve.GraphMeasured {
		meets := run.MissedDeadlines == 0 && run.MakespanUS <= gw.DeadlineUS*(1+1e-9)
		return &serve.GraphMeasured{Run: run, MeetsDeadline: meets, SlackUS: gw.DeadlineUS - run.MakespanUS}
	}
	static, err := c.cfg.SimulateGraphCtx(ctx, gw, res.Schedule)
	if err != nil {
		return nil, err
	}
	gr.Static = measured(static)
	if !res.Degenerate {
		governed, _, _, err := c.cfg.ReclaimGraph(gw, res.Schedule)
		if err != nil {
			return nil, err
		}
		grun, err := c.cfg.SimulateGraphCtx(ctx, gw, governed)
		if err != nil {
			return nil, err
		}
		gr.Governed = measured(grun)
	}
	return resp, nil
}
