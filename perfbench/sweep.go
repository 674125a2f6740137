package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"ctdvs/internal/analytic"
	"ctdvs/internal/core"
	"ctdvs/internal/exp"
	"ctdvs/internal/milp"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/profile"
	"ctdvs/internal/volt"
)

// The sweeps repeat a fixed computation in passes until the time is up (a
// started pass always finishes). On solve-sweep an operation is one cell:
// each cell's latency is its median over the passes, p50_ms and tail_ms are
// taken over those, and ops_per_s is cells per second of the median pass.
// On paper-sweep the operation is the pass (the run of dvs-bench -exp all);
// a run has too few passes for a tail, so tail_ms reports the median, and
// ops_per_s is experiments per second of the median pass.

var solveSweep = workload{
	name: "solve-sweep", opUnit: "MILP cell",
	setup: setupSolveSweep, measure: measureSolveSweep,
}

var paperSweep = workload{
	name: "paper-sweep", opUnit: "pass",
	setup: setupPaperSweep, measure: measurePaperSweep,
}

// cell is one solve-sweep instance: a suite benchmark at 7 levels under
// one paper deadline, c = 10 µF, edge filtering off.
type cell struct {
	name string
	pr   *profile.Profile
	dl   float64
}

// sweepCells collects the seven-level profiles and resolves the deadlines
// (as dvs-opt does, from the profile's fastest and slowest modes).
func sweepCells(cfg *exp.Config) ([]cell, error) {
	var cells []cell
	for _, bench := range exp.Suite() {
		spec, err := cfg.Spec(bench)
		if err != nil {
			return nil, err
		}
		pr, err := cfg.Profile(bench, 0, 7)
		if err != nil {
			return nil, err
		}
		n := pr.Modes.Len()
		for k := 1; k <= 5; k++ {
			cells = append(cells, cell{
				name: fmt.Sprintf("%s D%d", bench, k),
				pr:   pr,
				dl:   spec.Deadline(k, pr.TotalTimeUS[n-1], pr.TotalTimeUS[0]),
			})
		}
	}
	return cells, nil
}

// sweepOptions are the solve-sweep's solver settings: no edge filtering, the
// solver's default worker count.
func sweepOptions() *core.Options { return solveOptions(10e-6, true) }

// solveCell optimizes one cell through exp, with validation skipped, and
// self-checks the schedule.
func solveCell(ctx context.Context, cfg *exp.Config, c cell) (answer, error) {
	a := answer{DeadlineUS: c.dl}
	res, err := cfg.OptimizeSingleCtx(ctx, c.pr, c.dl, sweepOptions())
	if errors.Is(err, core.ErrInfeasible) {
		a.Infeasible = true
		return a, nil
	}
	if err != nil {
		return a, err
	}
	a.PredictedEnergyUJ, a.PredictedTimeUS = res.PredictedEnergyUJ, res.PredictedTimeUS[0]
	return a, checkSchedule(c.pr, res.Schedule, a.PredictedEnergyUJ, a.PredictedTimeUS, c.dl)
}

// predictedRatio is the cell's predicted energy over the best single mode's.
func predictedRatio(c cell, a answer) (float64, bool) {
	_, e, ok := c.pr.BestSingleMode(c.dl)
	if a.Infeasible || !ok || e <= 0 {
		return 0, false
	}
	return a.PredictedEnergyUJ / e, true
}

type sweepState struct{ cells []cell }

func (sweepState) close() error { return nil }

func setupSolveSweep(*env) (state, error) {
	cells, err := sweepCells(newConfig(pipeline.NewRunner(nil)))
	return sweepState{cells}, err
}

func measureSolveSweep(e *env, s state) (*outcome, error) {
	cells := s.(sweepState).cells
	if e.traced {
		return traceSolveSweep(e, cells)
	}
	ctx := context.Background()
	oc := &outcome{}
	cellMS := make([][]float64, len(cells))
	var passMS []float64
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		cfg := newConfig(pipeline.NewRunner(nil))
		t0 := time.Now()
		for i, c := range cells {
			oc.attempted++
			t1 := time.Now()
			a, err := solveCell(ctx, cfg, c)
			ms := float64(time.Since(t1).Nanoseconds()) / 1e6
			if err == nil {
				err = checkCell(e, c, a)
			}
			if err != nil {
				oc.fail("%s: %v", c.name, err)
				ms = math.Inf(1)
			} else if x, ok := predictedRatio(c, a); ok {
				oc.ratios = append(oc.ratios, x)
			}
			cellMS[i] = append(cellMS[i], ms)
		}
		passMS = append(passMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	for _, xs := range cellMS {
		oc.lat.ms = append(oc.lat.ms, median(xs))
	}
	if pm := median(passMS); pm > 0 {
		oc.opsPerS = float64(len(cells)) / (pm / 1e3)
	}
	fmt.Fprintf(e.out, "%d passes of %d cells, pass times %s ms\n", len(passMS), len(cells), fmtFloats(passMS))
	return oc, nil
}

func checkCell(e *env, c cell, a answer) error {
	want, ok := e.want.Sweep[c.name]
	if !ok {
		return errNoExpected
	}
	if !same(a, want) {
		return fmt.Errorf("answer %+v, expected %+v", a, want)
	}
	return nil
}

// traceSolveSweep runs one untraced reference pass and one composed, traced
// pass; each cell's answer must match between them.
func traceSolveSweep(e *env, cells []cell) (*outcome, error) {
	ctx := context.Background()
	oc := &outcome{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	cfg := newConfig(pipeline.NewRunner(nil))
	ref := make([]answer, len(cells))
	for i, c := range cells {
		a, err := solveCell(ctx, cfg, c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		ref[i] = a
	}
	refMS := float64(time.Since(t0).Nanoseconds()) / 1e6
	runtime.ReadMemStats(&m1)

	tr := newTracer()
	n := &counters{}
	cfg = newConfig(pipeline.NewRunner(nil))
	comp := newComposer(cfg, n)
	t1 := time.Now()
	for i, c := range cells {
		oc.attempted++
		s := tr.root(int64(i), "op.cell")
		res, err := comp.optimize(ctx, s, c.pr, c.dl, sweepOptions())
		s.end()
		a := answer{DeadlineUS: c.dl, Infeasible: res.infeasible}
		if err == nil && !res.infeasible {
			a.PredictedEnergyUJ, a.PredictedTimeUS = res.predictedEnergyUJ, res.predictedTimeUS
			err = checkSchedule(c.pr, res.schedule, a.PredictedEnergyUJ, a.PredictedTimeUS, c.dl)
		}
		if err == nil {
			err = checkCell(e, c, a)
		}
		if err == nil && !same(a, ref[i]) {
			err = fmt.Errorf("traced answer %+v differs from untraced %+v", a, ref[i])
		}
		if err != nil {
			oc.fail("%s: %v", c.name, err)
		}
	}
	trMS := float64(time.Since(t1).Nanoseconds()) / 1e6
	var man manifestCounts
	man.add(cfg.Pipeline.Manifest())
	oc.layers = layerReport(e.out, tr.Spans(), n, man, 1, nil)
	oc.layers["go.allocs_per_op"] = float64(m1.Mallocs - m0.Mallocs)
	oc.layers["go.alloc_bytes_per_op"] = float64(m1.TotalAlloc - m0.TotalAlloc)
	oc.layers["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	oc.layers["trace.overhead_ms"] = trMS - refMS
	fmt.Fprintf(e.out, "pass: %.1f ms untraced, %.1f ms traced\n", refMS, trMS)
	return oc, writeSpans(e, tr)
}

// surfaceGrid is the paper-sweep's surface resolution for Figures 5–7 and
// 9–11 (dvs-bench's -grid). It bounds the pass time; it must stay the same
// on every commit, and the expected file records it.
const surfaceGrid = 6

type paperState struct{}

func (paperState) close() error { return nil }

// setupPaperSweep warms the code and the runtime before the timed passes:
// the analytic curves and Table 4 (which profiles the suite) on a
// throwaway configuration. Every timed pass starts from a fresh one.
func setupPaperSweep(*env) (state, error) {
	cfg := newPaperConfig()
	for _, x := range experiments() {
		switch x.name {
		case "fig2", "fig3", "fig4", "fig8", "table4":
			if _, err := x.run(cfg); err != nil {
				return nil, fmt.Errorf("%s: %w", x.name, err)
			}
		}
	}
	return paperState{}, nil
}

// experiment is one step of the paper sweep: what dvs-bench -exp all runs,
// in its order. kind names the span the traced pass puts around it.
type experiment struct {
	name string
	kind string
	run  func(cfg *exp.Config) ([]*exp.Table, error)
	// traced, when set, replaces run in the traced pass with the public
	// calls of the layer beneath it.
	traced func(s sp, n *counters) ([]*exp.Table, error)
}

func one(t *exp.Table) []*exp.Table { return []*exp.Table{t} }

// experiments lists the paper sweep. The surfaces and figures are pure
// analytic-model evaluations; the tables run profiles, MILP solves and
// validation simulations through exp.
func experiments() []experiment {
	rows := func(f func(*exp.Config) (*exp.Table, error)) func(*exp.Config) ([]*exp.Table, error) {
		return func(c *exp.Config) ([]*exp.Table, error) {
			t, err := f(c)
			if err != nil {
				return nil, err
			}
			return one(t), nil
		}
	}
	surface := func(k int) experiment {
		return experiment{
			name: fmt.Sprintf("fig%d", k), kind: "exp.surfaces",
			run: func(*exp.Config) ([]*exp.Table, error) {
				s, err := figureSurface(k)
				if err != nil {
					return nil, err
				}
				return one(s.Table()), nil
			},
			traced: func(s sp, n *counters) ([]*exp.Table, error) {
				t, err := composedSurface(k, s, n)
				if err != nil {
					return nil, err
				}
				return one(t.Table()), nil
			},
		}
	}
	return []experiment{
		{name: "fig2", kind: "exp.other", run: func(*exp.Config) ([]*exp.Table, error) { return one(exp.Figure2().Table()), nil }},
		{name: "fig3", kind: "exp.other", run: func(*exp.Config) ([]*exp.Table, error) { return one(exp.Figure3().Table()), nil }},
		{name: "fig4", kind: "exp.other", run: func(*exp.Config) ([]*exp.Table, error) { return one(exp.Figure4().Table()), nil }},
		surface(5), surface(6), surface(7),
		{name: "fig8", kind: "analytic.discrete", run: func(*exp.Config) ([]*exp.Table, error) {
			c, err := exp.Figure8(60)
			if err != nil {
				return nil, err
			}
			return one(c.Table()), nil
		}},
		surface(9), surface(10), surface(11),
		{name: "table1", kind: "analytic.discrete", run: rows(func(c *exp.Config) (*exp.Table, error) {
			r, err := exp.Table1(c)
			return exp.RenderTable1(r), err
		})},
		{name: "table4", kind: "exp.tables", run: rows(func(c *exp.Config) (*exp.Table, error) {
			r, err := exp.Table4(c)
			return exp.RenderTable4(r), err
		})},
		{name: "table7", kind: "exp.tables", run: rows(func(c *exp.Config) (*exp.Table, error) {
			r, err := exp.Table7(c)
			return exp.RenderTable7(r), err
		})},
		{name: "table3", kind: "exp.tables", run: rows(func(c *exp.Config) (*exp.Table, error) {
			r, err := exp.Table3Figure14(c)
			return exp.RenderTable3Figure14(r), err
		})},
		{name: "fig15", kind: "exp.tables", run: rows(func(c *exp.Config) (*exp.Table, error) {
			r, err := exp.Figure15(c)
			return exp.RenderFigure15(r), err
		})},
		{name: "deadline-sweep", kind: "exp.deadline_sweep", run: func(c *exp.Config) ([]*exp.Table, error) {
			r, err := exp.DeadlineSweep(c)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{exp.RenderFigure17(r), exp.RenderFigure18(r), exp.RenderTable5(r)}, nil
		}},
		{name: "table6", kind: "exp.tables", run: rows(func(c *exp.Config) (*exp.Table, error) {
			r, err := exp.Table6(c)
			return exp.RenderTable6(r), err
		})},
		{name: "fig19", kind: "exp.tables", run: rows(func(c *exp.Config) (*exp.Table, error) {
			r, err := exp.Figure19(c)
			return exp.RenderFigure19(r), err
		})},
		{name: "ablation-transition", kind: "exp.tables", run: rows(func(c *exp.Config) (*exp.Table, error) {
			r, err := exp.AblationNoTransitionCost(c)
			return exp.RenderAblation("Ablation: transition-cost-aware vs Saputra-style blind MILP (c = 100 µF)", r), err
		})},
		{name: "ablation-block", kind: "exp.tables", run: rows(func(c *exp.Config) (*exp.Table, error) {
			r, err := exp.AblationBlockBased(c)
			return exp.RenderAblation("Ablation: edge-based vs block-based mode variables", r), err
		})},
		{name: "ablation-heuristic", kind: "exp.tables", run: rows(func(c *exp.Config) (*exp.Table, error) {
			r, err := exp.AblationHeuristic(c)
			return exp.RenderAblation("Ablation: MILP vs memory-bound-region heuristic", r), err
		})},
		{name: "runtime", kind: "exp.tables", run: rows(func(c *exp.Config) (*exp.Table, error) {
			r, err := exp.RuntimeVsCompileTime(c)
			return exp.RenderRuntime(r), err
		})},
		{name: "placement", kind: "exp.tables", run: rows(func(c *exp.Config) (*exp.Table, error) {
			r, err := exp.PlacementStats(c)
			return exp.RenderPlacement(r), err
		})},
		{name: "ablation-pathfilter", kind: "exp.tables", run: rows(func(c *exp.Config) (*exp.Table, error) {
			r, err := exp.AblationPathFilter(c, 0.98)
			return exp.RenderPathFilter(r), err
		})},
		{name: "ablation-leakage", kind: "exp.tables", run: rows(func(c *exp.Config) (*exp.Table, error) {
			r, err := exp.AblationLeakage(c, exp.DefaultLeakageSweep())
			return exp.RenderLeakage(r), err
		})},
	}
}

// newPaperConfig is dvs-bench's configuration: memory-only, default fan-out
// and solver limit.
func newPaperConfig() *exp.Config {
	c := exp.NewConfig(scale)
	c.MILP = &milp.Options{TimeLimit: solveLimit}
	return c
}

// paperTrace is the traced paper pass's tracer and counters.
type paperTrace struct {
	t *Tracer
	n *counters
}

// paperPass runs every experiment once on cfg and returns the tables and
// each experiment's wall time. With a tracer it runs the traced variants,
// each experiment under a span named for its kind.
func paperPass(cfg *exp.Config, tr *paperTrace) ([]*exp.Table, []float64, error) {
	var tables []*exp.Table
	var lat []float64
	for i, x := range experiments() {
		t0 := time.Now()
		var ts []*exp.Table
		var err error
		if tr == nil {
			ts, err = x.run(cfg)
		} else {
			root := tr.t.root(int64(i), "op.experiment")
			s := root.child(x.kind)
			if x.traced != nil {
				ts, err = x.traced(s, tr.n)
			} else {
				ts, err = x.run(cfg)
				tr.n.add(func(n *counters) { n.discreteCalls += discreteCalls(x.name, ts) })
			}
			s.end()
			root.end()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", x.name, err)
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
		tables = append(tables, ts...)
	}
	return tables, lat, nil
}

// discreteCalls counts the analytic evaluations an exp-boundary analytic
// experiment made: one per Figure 8 curve point, one per Table 1 deadline
// cell.
func discreteCalls(name string, ts []*exp.Table) int64 {
	switch name {
	case "fig8":
		return int64(len(ts[0].Rows))
	case "table1":
		return int64(len(ts[0].Rows) * 5)
	}
	return 0
}

// figureSurface is exp's FigureN at the benchmark's grid.
func figureSurface(k int) (*exp.Surface, error) {
	switch k {
	case 5:
		return exp.Figure5(surfaceGrid), nil
	case 6:
		return exp.Figure6(surfaceGrid), nil
	case 7:
		return exp.Figure7(surfaceGrid), nil
	case 9:
		return exp.Figure9(surfaceGrid)
	case 10:
		return exp.Figure10(surfaceGrid)
	case 11:
		return exp.Figure11(surfaceGrid)
	}
	return nil, fmt.Errorf("no surface figure %d", k)
}

// surfaceDef is one of exp's analytic surface figures: its labels, axes and
// model parameters at each grid point.
type surfaceDef struct {
	name, xl, yl       string
	xlo, xhi, ylo, yhi float64
	continuous         bool
	params             func(x, y float64) analytic.Params
}

// surfaceDefs restates Figures 5–7 (continuous, over exp's calibrated
// voltage range) and 9–11 (discrete, 7 levels) as exp defines them.
func surfaceDefs(ms7 *volt.ModeSet) map[int]surfaceDef {
	base11 := analytic.Params{NOverlap: 1.3e7, NDependent: 7e7, NCache: 5e5, TInvariant: 2e4}
	tFast := base11.ExecTimeUS(ms7.Max().F)
	return map[int]surfaceDef{
		5: {"Figure 5: continuous savings vs (Noverlap, Ndependent)", "Noverlap(Kcyc)", "Ndependent(Kcyc)",
			200, 1800, 0, 1500, true, func(x, y float64) analytic.Params {
				return analytic.Params{NOverlap: x * 1e3, NDependent: y * 1e3, NCache: 3e5, TInvariant: 1000, DeadlineUS: 3000}
			}},
		6: {"Figure 6: continuous savings vs (Ncache, tinvariant)", "Ncache(Kcyc)", "tinvariant(µs)",
			200, 1800, 500, 3500, true, func(x, y float64) analytic.Params {
				return analytic.Params{NOverlap: 4e6, NDependent: 5.8e6, NCache: x * 1e3, TInvariant: y, DeadlineUS: 5000}
			}},
		7: {"Figure 7: continuous savings vs (tdeadline, Ncache)", "tdeadline(µs)", "Ncache(Kcyc)",
			1500, 5000, 500, 4000, true, func(x, y float64) analytic.Params {
				return analytic.Params{NOverlap: 4e6, NDependent: 5.7e6, NCache: y * 1e3, TInvariant: 1000, DeadlineUS: x}
			}},
		9: {"Figure 9: discrete savings vs (Noverlap, Ndependent)", "Noverlap(Kcyc)", "Ndependent(Kcyc)",
			200, 1800, 100, 1500, false, func(x, y float64) analytic.Params {
				return analytic.Params{NOverlap: x * 1e3, NDependent: y * 1e3, NCache: 2e5, TInvariant: 1000, DeadlineUS: 5200}
			}},
		10: {"Figure 10: discrete savings vs (Ncache, tinvariant)", "Ncache(Kcyc)", "tinvariant(µs)",
			500, 15000, 5e3, 2e5, false, func(x, y float64) analytic.Params {
				return analytic.Params{NOverlap: 1.3e7, NDependent: 7e7, NCache: x * 1e3, TInvariant: y, DeadlineUS: 3.5e5}
			}},
		11: {"Figure 11: discrete savings vs (tdeadline, Ncache)", "tdeadline(µs)", "Ncache(Kcyc)",
			tFast * 1.05, tFast * 1.6, 500, 12000, false, func(x, y float64) analytic.Params {
				return analytic.Params{NOverlap: 1.3e7, NDependent: 7e7, NCache: y * 1e3, TInvariant: 2e4, DeadlineUS: x}
			}},
	}
}

// grid is exp's evenly spaced axis of n points over [lo, hi].
func grid(lo, hi float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return xs
}

// composedSurface evaluates Figure k's surface point by point through the
// analytic package, each evaluation under an analytic span; the traced
// pass's tables must equal exp's.
func composedSurface(k int, parent sp, n *counters) (*exp.Surface, error) {
	ms, err := volt.Levels(7)
	if err != nil {
		return nil, err
	}
	d, ok := surfaceDefs(ms)[k]
	if !ok {
		return nil, fmt.Errorf("no surface figure %d", k)
	}
	out := &exp.Surface{
		Name: d.name, XLabel: d.xl, YLabel: d.yl, ZLabel: "energy-saving ratio",
		X: grid(d.xlo, d.xhi, surfaceGrid), Y: grid(d.ylo, d.yhi, surfaceGrid),
	}
	vr := figVRange()
	out.Z = make([][]float64, len(out.X))
	for i, x := range out.X {
		out.Z[i] = make([]float64, len(out.Y))
		for j, y := range out.Y {
			var z float64
			if d.continuous {
				s := parent.child("analytic.continuous")
				z, err = analytic.SavingsContinuous(d.params(x, y), vr)
				s.end()
				n.add(func(n *counters) { n.continuousCalls++ })
			} else {
				s := parent.child("analytic.discrete")
				z, err = analytic.SavingsDiscrete(d.params(x, y), ms)
				s.end()
				n.add(func(n *counters) { n.discreteCalls++ })
			}
			if err != nil {
				z = 0
			}
			out.Z[i][j] = z
		}
	}
	return out, nil
}

// figVRange is exp's calibrated voltage range for the analytic figures.
func figVRange() analytic.VRange {
	sc := volt.Scaling{A: volt.Alpha, Vt: volt.VThreshold, K: 1}
	sc.K = 6000 / sc.Freq(3.5)
	return analytic.VRange{Lo: 0.5, Hi: 3.5, Scaling: sc}
}

// maskTables renders tables for comparison: every cell that reports wall
// time (a Go duration such as "1.328ms", and the speedup column derived
// from two of them) is replaced by "-", so only computed answers compare.
func maskTables(ts []*exp.Table) map[string][][]string {
	out := map[string][][]string{}
	for _, t := range ts {
		var rows [][]string
		for _, r := range t.Rows {
			row := make([]string, len(r))
			for i, c := range r {
				if _, err := time.ParseDuration(c); err == nil && strings.ContainsAny(c, "sµ") ||
					i < len(t.Headers) && t.Headers[i] == "speedup" {
					c = "-"
				}
				row[i] = c
			}
			rows = append(rows, row)
		}
		out[t.Title] = rows
	}
	return out
}

// fig17Ratios extracts Figure 17's normalised energies.
func fig17Ratios(ts []*exp.Table) []float64 {
	var out []float64
	for _, t := range ts {
		if !strings.HasPrefix(t.Title, "Figure 17") {
			continue
		}
		for _, r := range t.Rows {
			for _, c := range r[1:] {
				var x float64
				if _, err := fmt.Sscanf(c, "%g", &x); err == nil && x > 0 {
					out = append(out, x)
				}
			}
		}
	}
	return out
}

func checkPaper(e *env, ts []*exp.Table) error {
	got := maskTables(ts)
	if len(got) != len(e.want.Paper) {
		return fmt.Errorf("%d tables, expected %d", len(got), len(e.want.Paper))
	}
	for title, rows := range e.want.Paper {
		g, ok := got[title]
		if !ok {
			return fmt.Errorf("table %q missing", title)
		}
		if fmt.Sprint(g) != fmt.Sprint(rows) {
			return fmt.Errorf("table %q differs from the expected file", title)
		}
	}
	return nil
}

func measurePaperSweep(e *env, _ state) (*outcome, error) {
	if e.traced {
		return tracePaperSweep(e)
	}
	oc := &outcome{}
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	var experiments int
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		t0 := time.Now()
		ts, lat, err := paperPass(newPaperConfig(), nil)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err == nil {
			err = checkPaper(e, ts)
		}
		oc.record(ms, err)
		if err == nil {
			experiments = len(lat)
			oc.ratios = append(oc.ratios, fig17Ratios(ts)...)
		}
	}
	if pm := median(oc.lat.ms); pm > 0 {
		oc.opsPerS = float64(experiments) / (pm / 1e3)
	}
	fmt.Fprintf(e.out, "%d passes, pass times %s ms\n", len(oc.lat.ms), fmtFloats(oc.lat.ms))
	return oc, nil
}

// tracePaperSweep runs one untraced reference pass and one traced pass;
// their tables must be equal.
func tracePaperSweep(e *env) (*outcome, error) {
	oc := &outcome{attempted: 1}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	ref, _, err := paperPass(newPaperConfig(), nil)
	if err != nil {
		return nil, err
	}
	refMS := float64(time.Since(t0).Nanoseconds()) / 1e6
	runtime.ReadMemStats(&m1)
	tr := &paperTrace{t: newTracer(), n: &counters{}}
	t1 := time.Now()
	cfg := newPaperConfig()
	got, _, err := paperPass(cfg, tr)
	if err != nil {
		return nil, err
	}
	trMS := float64(time.Since(t1).Nanoseconds()) / 1e6
	if err := checkPaper(e, got); err != nil {
		oc.fail("%v", err)
	} else if fmt.Sprint(maskTables(got)) != fmt.Sprint(maskTables(ref)) {
		oc.fail("traced tables differ from untraced")
	}
	var man manifestCounts
	man.add(cfg.Pipeline.Manifest())
	oc.layers = layerReport(e.out, tr.t.Spans(), tr.n, man, 1, nil)
	oc.layers["go.allocs_per_op"] = float64(m1.Mallocs - m0.Mallocs)
	oc.layers["go.alloc_bytes_per_op"] = float64(m1.TotalAlloc - m0.TotalAlloc)
	oc.layers["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	oc.layers["trace.overhead_ms"] = trMS - refMS
	fmt.Fprintf(e.out, "pass: %.1f ms untraced, %.1f ms traced\n", refMS, trMS)
	return oc, writeSpans(e, tr.t)
}
