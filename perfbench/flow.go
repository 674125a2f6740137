package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"ctdvs/internal/core"
	"ctdvs/internal/exp"
	"ctdvs/internal/milp"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/profile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// solveLimit is dvs-opt's and dvs-serve's default MILP time limit; it is
// part of solve cache keys.
const solveLimit = 2 * time.Minute

// answer is what one request computes, reduced to the numbers the checks
// compare. For a task graph, PredictedTimeUS is the makespan, Measured* are
// the static execution and GovernedEnergyUJ the slack-reclaiming one.
type answer struct {
	Infeasible        bool    `json:"infeasible,omitempty"`
	DeadlineUS        float64 `json:"deadline_us"`
	PredictedEnergyUJ float64 `json:"predicted_energy_uj,omitempty"`
	PredictedTimeUS   float64 `json:"predicted_time_us,omitempty"`
	MeasuredEnergyUJ  float64 `json:"measured_energy_uj,omitempty"`
	MeasuredTimeUS    float64 `json:"measured_time_us,omitempty"`
	MeetsDeadline     bool    `json:"meets_deadline,omitempty"`
	// Savings is 1 − E_dvs/E_best-single, both measured (single programs
	// whose deadline some single mode meets).
	HasBaseline      bool    `json:"has_baseline,omitempty"`
	Savings          float64 `json:"savings,omitempty"`
	GovernedEnergyUJ float64 `json:"governed_energy_uj,omitempty"`
}

// ratio is Fig. 17's normalisation: measured DVS energy over the best
// single mode's.
func (a answer) ratio() (float64, bool) {
	if a.Infeasible || !a.HasBaseline {
		return 0, false
	}
	return 1 - a.Savings, true
}

// openStore opens a disk store the way the dvs-* commands do with their
// default flags: binary artifacts, mapped reads, batched writes.
func openStore(dir string) (*pipeline.Store, error) {
	s, err := pipeline.OpenWithFormat(dir, pipeline.FormatBinary)
	if err != nil {
		return nil, err
	}
	s.SetMappedReads(true)
	s.EnableWriteBatching(pipeline.BatchConfig{})
	return s, nil
}

// newConfig returns a scale-0.1 experiment configuration over runner, as
// the commands build one.
func newConfig(runner *pipeline.Runner) *exp.Config {
	c := exp.NewConfig(scale)
	c.Pipeline = runner
	return c
}

func solveOptions(capF float64, noFilter bool) *core.Options {
	o := &core.Options{
		Regulator: volt.DefaultRegulator().WithCapacitance(capF),
		MILP:      &milp.Options{TimeLimit: solveLimit},
	}
	if noFilter {
		o.FilterTail = -1
	}
	return o
}

// checked carries what the answer checks need beyond the answer itself.
type checked struct {
	pr    *profile.Profile
	sched *sim.Schedule
}

// runRequest is the dvs-opt flow through exp's public API: profile, resolve
// the deadline, optimize, measure, and measure the best single mode — or,
// for a task graph, build, optimize, execute and reclaim.
func runRequest(ctx context.Context, cfg *exp.Config, r req) (answer, checked, error) {
	if r.Graph != "" {
		a, err := runGraph(ctx, cfg, r)
		return a, checked{}, err
	}
	spec, err := cfg.Spec(r.Bench)
	if err != nil {
		return answer{}, checked{}, err
	}
	pr, err := cfg.ProfileCtx(ctx, r.Bench, r.Input, r.Levels)
	if err != nil {
		return answer{}, checked{}, err
	}
	n := pr.Modes.Len()
	dl := spec.Deadline(r.Deadline, pr.TotalTimeUS[n-1], pr.TotalTimeUS[0])
	a := answer{DeadlineUS: dl}
	opts := solveOptions(r.CapF, false)
	res, err := cfg.OptimizeSingleCtx(ctx, pr, dl, opts)
	if errors.Is(err, core.ErrInfeasible) {
		a.Infeasible = true
		return a, checked{pr: pr}, nil
	}
	if err != nil {
		return a, checked{}, err
	}
	a.PredictedEnergyUJ = res.PredictedEnergyUJ
	a.PredictedTimeUS = res.PredictedTimeUS[0]
	ev, err := cfg.MeasureCtx(ctx, pr, res.Schedule, dl)
	if err != nil {
		return a, checked{}, err
	}
	a.MeasuredEnergyUJ, a.MeasuredTimeUS, a.MeetsDeadline = ev.Run.EnergyUJ, ev.Run.TimeUS, ev.MeetsDeadline
	if _, _, ok := pr.BestSingleMode(dl); ok {
		sv, err := cfg.SavingsCtx(ctx, pr, res.Schedule, dl, opts.Regulator)
		if err != nil {
			return a, checked{}, err
		}
		a.HasBaseline, a.Savings = true, sv
	}
	return a, checked{pr: pr, sched: res.Schedule}, nil
}

// runGraph is dvs-opt's task-graph flow.
func runGraph(ctx context.Context, cfg *exp.Config, r req) (answer, error) {
	gs, ok := workloads.Graph(r.Graph)
	if !ok {
		return answer{}, fmt.Errorf("unknown task graph %q", r.Graph)
	}
	gw, err := cfg.BuildGraphCtx(ctx, gs, r.Levels, 0)
	if err != nil {
		return answer{}, err
	}
	return graphTail(ctx, cfg, gw, r.CapF, nil)
}

// graphTail optimizes, executes and reclaims a built graph workload. The
// optional hooks time its optimize and simulate halves.
func graphTail(ctx context.Context, cfg *exp.Config, gw *exp.GraphWorkload, capF float64, h *graphHooks) (answer, error) {
	a := answer{DeadlineUS: gw.DeadlineUS}
	h.begin(false)
	res, err := cfg.OptimizeGraphCtx(ctx, gw, solveOptions(capF, false))
	h.done()
	if errors.Is(err, core.ErrInfeasible) {
		a.Infeasible = true
		return a, nil
	}
	if err != nil {
		return a, err
	}
	a.PredictedEnergyUJ, a.PredictedTimeUS = res.PredictedEnergyUJ, res.PredictedMakespanUS
	h.begin(true)
	defer h.done()
	static, err := cfg.SimulateGraphCtx(ctx, gw, res.Schedule)
	if err != nil {
		return a, err
	}
	a.MeasuredEnergyUJ, a.MeasuredTimeUS = static.EnergyUJ, static.MakespanUS
	a.MeetsDeadline = static.MissedDeadlines == 0 && static.MakespanUS <= gw.DeadlineUS*(1+1e-9)
	if !res.Degenerate {
		governed, _, _, err := cfg.ReclaimGraph(gw, res.Schedule)
		if err != nil {
			return a, err
		}
		grun, err := cfg.SimulateGraphCtx(ctx, gw, governed)
		if err != nil {
			return a, err
		}
		a.GovernedEnergyUJ = grun.EnergyUJ
	}
	return a, nil
}

// graphHooks opens a span around each half of graphTail in the traced run;
// a nil *graphHooks does nothing.
type graphHooks struct {
	optimize, simulate func() sp
	open               sp
}

func (h *graphHooks) begin(simulate bool) {
	switch {
	case h == nil:
	case simulate:
		h.open = h.simulate()
	default:
		h.open = h.optimize()
	}
}

func (h *graphHooks) done() {
	if h != nil {
		h.open.end()
		h.open = sp{}
	}
}

// reevaluate prices a schedule from the profile tables alone: edge count ×
// destination-block energy (time) at the edge's mode, plus path count ×
// CE·|Va² − Vb²| (CT·|Va − Vb|) for every local path whose edges run at
// different modes.
func reevaluate(pr *profile.Profile, s *sim.Schedule) (energyUJ, timeUS float64) {
	g := pr.Graph
	for e, edge := range g.Edges {
		m := s.Assignment[edge]
		cnt := float64(pr.EdgeCounts[e])
		energyUJ += cnt * pr.EnergyUJ[edge.To][m]
		timeUS += cnt * pr.TimeUS[edge.To][m]
	}
	ce, ct := s.Regulator.CE(), s.Regulator.CT()
	for pi, p := range g.Paths {
		cnt := float64(pr.PathCounts[pi])
		if cnt == 0 {
			continue
		}
		va := s.Modes.Mode(s.Assignment[p.InEdge()]).V
		vb := s.Modes.Mode(s.Assignment[p.OutEdge()]).V
		energyUJ += ce * cnt * math.Abs(va*va-vb*vb)
		timeUS += ct * cnt * math.Abs(va-vb)
	}
	return energyUJ, timeUS
}

// same reports whether two answers agree: exactly, except the predicted
// time, which core sums in map order and so varies in its last bits from
// one solve of the same problem to the next.
func same(a, b answer) bool {
	ta, tb := a.PredictedTimeUS, b.PredictedTimeUS
	a.PredictedTimeUS, b.PredictedTimeUS = 0, 0
	return a == b && relClose(ta, tb, 1e-12)
}

// relClose reports |a − b| ≤ tol·max(|a|, |b|).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// checkSchedule is the self-check every solver answer gets: re-evaluated
// energy equals the prediction to a relative 1e-9 and the predicted time
// meets the deadline.
func checkSchedule(pr *profile.Profile, s *sim.Schedule, predE, predT, deadlineUS float64) error {
	e, t := reevaluate(pr, s)
	if !relClose(e, predE, 1e-9) {
		return fmt.Errorf("re-evaluated energy %.12g µJ, predicted %.12g µJ", e, predE)
	}
	if !relClose(t, predT, 1e-9) {
		return fmt.Errorf("re-evaluated time %.12g µs, predicted %.12g µs", t, predT)
	}
	if predT > deadlineUS*(1+1e-9) {
		return fmt.Errorf("predicted time %.12g µs misses deadline %.12g µs", predT, deadlineUS)
	}
	return nil
}

// checkAnswer applies the self-checks that need no reference.
func checkAnswer(a answer, c checked) error {
	if a.Infeasible {
		return nil
	}
	if c.sched != nil {
		if err := checkSchedule(c.pr, c.sched, a.PredictedEnergyUJ, a.PredictedTimeUS, a.DeadlineUS); err != nil {
			return err
		}
	} else if a.PredictedTimeUS > a.DeadlineUS*(1+1e-9) {
		return fmt.Errorf("predicted makespan %.12g µs misses deadline %.12g µs", a.PredictedTimeUS, a.DeadlineUS)
	}
	return nil
}
