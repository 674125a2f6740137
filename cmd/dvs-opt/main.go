// Command dvs-opt runs the MILP DVS optimizer on one benchmark and reports
// the chosen schedule, solver statistics, and the measured outcome against
// the best single-frequency baseline, whose energy is the profile's total at
// that mode. With -cache-dir, the profile, the solve and the validation run
// are content-addressed artifacts: repeating an invocation (or re-measuring
// a schedule dvs-bench already produced) touches neither the simulator nor
// the solver.
//
// Usage:
//
//	dvs-opt -bench gsm/encode -deadline 3          # paper deadline number 1-5
//	dvs-opt -bench gsm/encode -deadline-us 90000   # explicit deadline in µs
//	dvs-opt -bench mpeg/decode -levels 7 -cap 1e-6 -no-filter
//	dvs-opt -bench epic -cache-dir .dvs-cache -manifest run.json
//
// Task-graph mode optimizes a DAG of benchmark tasks across cores — per-core
// placement plus per-task voltage modes — and reports the static schedule and
// the slack-reclaiming governed execution:
//
//	dvs-opt -task-graph fork-join-2w               # corpus graph by name
//	dvs-opt -task-graph mpi-mix -cores 4           # override the core count
//	dvs-opt -graph-file graph.json                 # spec file (see dvs-sim -graph)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ctdvs/cmd/internal/cli"
	"ctdvs/internal/core"
	"ctdvs/internal/exp"
	"ctdvs/internal/milp"
	"ctdvs/internal/schedfile"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

func main() {
	app := cli.New("dvs-opt")
	app.ScaleFlag()
	app.SolveFlags()
	bench := flag.String("bench", "adpcm/encode", "benchmark name")
	input := flag.Int("input", 0, "input index")
	levels := flag.Int("levels", 3, "voltage levels (3, 7 or 13)")
	deadlineNum := flag.Int("deadline", 3, "paper deadline number (1=tight .. 5=lax)")
	deadlineUS := flag.Float64("deadline-us", 0, "explicit deadline in µs (overrides -deadline)")
	capF := flag.Float64("cap", 10e-6, "regulator capacitance (farads)")
	noFilter := flag.Bool("no-filter", false, "disable 2% edge filtering")
	noTrans := flag.Bool("no-transition-costs", false, "Saputra-style: ignore switching costs in the MILP")
	blockBased := flag.Bool("block-based", false, "block-granularity mode variables")
	showSchedule := flag.Bool("schedule", false, "print the per-edge mode assignment")
	showPlacement := flag.Bool("placement", false, "classify mode-set instructions (required/silent/hoistable)")
	savePath := flag.String("save", "", "write the schedule to this file (dvs-sim executes it)")
	graphName := flag.String("task-graph", "", "optimize a corpus task graph by name instead of a single benchmark")
	graphFile := flag.String("graph-file", "", "optimize a task-graph spec file instead of a single benchmark")
	cores := flag.Int("cores", 0, "override the task graph's core count (0 = the graph's own)")
	saveGraph := flag.String("save-graph", "", "write the resolved task-graph spec to this file (dvs-sim -graph executes it)")
	app.Parse()

	cfg := app.Config()
	if *graphName != "" || *graphFile != "" {
		runGraph(app, cfg, *graphName, *graphFile, *cores, *levels, *deadlineUS, *capF, *noTrans, *saveGraph)
		app.Close()
		return
	}
	spec, err := cfg.Spec(*bench)
	if err != nil {
		app.Die(err)
	}
	pr, err := cfg.Profile(*bench, *input, *levels)
	if err != nil {
		app.Die(err)
	}

	dl := *deadlineUS
	if dl == 0 {
		if *deadlineNum < 1 || *deadlineNum > 5 {
			app.Dief("deadline number must be 1..5")
		}
		n := pr.Modes.Len()
		dl = spec.Deadline(*deadlineNum, pr.TotalTimeUS[n-1], pr.TotalTimeUS[0])
	}

	reg := volt.DefaultRegulator().WithCapacitance(*capF)
	opts := &core.Options{
		Regulator:         reg,
		NoTransitionCosts: *noTrans,
		BlockBased:        *blockBased,
		MILP:              &milp.Options{TimeLimit: app.SolveLimit, Workers: app.Workers},
	}
	if *noFilter {
		opts.FilterTail = -1
	}

	res, err := cfg.OptimizeSingle(pr, dl, opts)
	if err != nil {
		app.Die(err)
	}

	fmt.Printf("%s input %q: deadline %.1f µs, %d voltage levels, c=%.2g F\n",
		spec.Name, spec.Inputs[*input].Name, dl, *levels, *capF)
	fmt.Printf("MILP: %d/%d independent edges, %d nodes (%d pruned analytically), %d LP solves, %v (%v)\n",
		res.IndependentEdges, res.TotalEdges,
		res.Solver.Nodes, res.Solver.AnalyticPrunes,
		res.Solver.LPIters, res.Solver.SolveTime.Round(time.Millisecond),
		res.Solver.Status)
	fmt.Printf("LP:   %d warm / %d cold / %d fallback solves (%.0f%% warm), %d pivots (%.1f/node), %v in simplex\n",
		res.Solver.WarmSolves, res.Solver.ColdSolves, res.Solver.WarmFallbacks,
		100*res.Solver.WarmHitRate(), res.Solver.LPPivots, res.Solver.PivotsPerNode(),
		res.Solver.LPTime.Round(time.Millisecond))
	fmt.Printf("predicted: energy %.1f µJ, time %.1f µs\n",
		res.PredictedEnergyUJ, res.PredictedTimeUS[0])

	ev, err := cfg.Measure(pr, res.Schedule, dl)
	if err != nil {
		app.Die(err)
	}
	fmt.Printf("measured:  energy %.1f µJ, time %.1f µs, %d transitions "+
		"(%.2f µJ / %.2f µs in switches), meets deadline: %v\n",
		ev.Run.EnergyUJ, ev.Run.TimeUS, ev.Run.Transitions,
		ev.Run.TransitionEnergyUJ, ev.Run.TransitionTimeUS, ev.MeetsDeadline)

	mode, baseE, ok := pr.BestSingleMode(dl)
	if ok {
		s, err := cfg.Savings(pr, res.Schedule, dl, reg)
		if err != nil {
			app.Die(err)
		}
		fmt.Printf("baseline:  best single mode %v, energy %.1f µJ → savings %.4f\n",
			pr.Modes.Mode(mode), baseE, s)
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			app.Die(err)
		}
		if err := schedfile.Save(f, spec.Name, res.Schedule); err != nil {
			f.Close()
			app.Die(err)
		}
		if err := f.Close(); err != nil {
			app.Die(err)
		}
		fmt.Printf("schedule written to %s\n", *savePath)
	}

	if *showPlacement {
		pl := core.PlaceModeSets(pr, res.Schedule)
		fmt.Printf("placement: %d mode-set instructions required, %d silent (removable), %d hoistable\n",
			len(pl.Required), len(pl.Silent), len(pl.Hoistable))
		for _, e := range pl.Required {
			fmt.Printf("  required: %v → %v\n", e, pr.Modes.Mode(res.Schedule.Assignment[e]))
		}
	}

	if *showSchedule {
		st := &exp.Table{
			Title:   "\nschedule (mode-set per control-flow edge)",
			Headers: []string{"edge", "destination", "mode", "traversals"},
		}
		g := pr.Graph
		for ei, e := range g.Edges {
			mi := res.Schedule.Assignment[e]
			st.Rows = append(st.Rows, []string{
				e.String(), spec.Program.Blocks[e.To].Name, pr.Modes.Mode(mi).String(),
				fmt.Sprintf("%d", pr.EdgeCounts[ei]),
			})
		}
		if err := st.Render(os.Stdout); err != nil {
			app.Die(err)
		}
	}
	app.Close()
}

// runGraph is the task-graph path: resolve the spec (corpus name or file),
// solve the per-core placement and mode assignment, execute the static
// schedule, then run the slack-reclaiming governor over it.
func runGraph(app *cli.App, cfg *exp.Config, name, file string, cores, levels int,
	deadlineUS, capF float64, noTrans bool, saveGraph string) {
	if name != "" && file != "" {
		app.Dief("-task-graph and -graph-file are mutually exclusive")
	}
	var gs *workloads.GraphSpec
	dl := deadlineUS
	if name != "" {
		var ok bool
		if gs, ok = workloads.Graph(name); !ok {
			known := ""
			for _, g := range workloads.Graphs() {
				known += " " + g.Name
			}
			app.Dief("unknown task graph %q (have:%s)", name, known)
		}
	} else {
		f, err := os.Open(file)
		if err != nil {
			app.Die(err)
		}
		gf, err := schedfile.LoadGraphSpec(f)
		f.Close()
		if err != nil {
			app.Die(err)
		}
		if gs, err = gf.Spec(); err != nil {
			app.Die(err)
		}
		if dl == 0 {
			dl = gf.DeadlineUS
		}
	}
	if cores > 0 {
		override := *gs
		override.Cores = cores
		gs = &override
	}

	gw, err := cfg.BuildGraph(gs, levels, dl)
	if err != nil {
		app.Die(err)
	}
	opts := &core.Options{
		Regulator:         volt.DefaultRegulator().WithCapacitance(capF),
		NoTransitionCosts: noTrans,
		MILP:              &milp.Options{TimeLimit: app.SolveLimit, Workers: app.Workers},
	}
	res, err := cfg.OptimizeGraph(gw, opts)
	if err != nil {
		app.Die(err)
	}

	fmt.Printf("%s: %d tasks on %d cores, deadline %.1f µs (span %.1f..%.1f), %d voltage levels\n",
		gs.Name, len(gw.Graph.Tasks), gw.Cores, gw.DeadlineUS, gw.FastUS, gw.SlowUS, levels)
	fmt.Printf("MILP: %d nodes (%d pruned analytically), %d LP solves, %v (%v)\n",
		res.Solver.Nodes, res.Solver.AnalyticPrunes,
		res.Solver.LPIters, res.Solver.SolveTime.Round(time.Millisecond),
		res.Solver.Status)
	fmt.Printf("predicted: energy %.1f µJ, makespan %.1f µs\n",
		res.PredictedEnergyUJ, res.PredictedMakespanUS)

	static, err := cfg.SimulateGraph(gw, res.Schedule)
	if err != nil {
		app.Die(err)
	}
	st := &exp.Table{
		Title:   "\nplacement (static schedule)",
		Headers: []string{"task", "core", "mode", "start (µs)", "finish (µs)", "energy (µJ)"},
	}
	for _, run := range static.Runs {
		st.Rows = append(st.Rows, []string{
			run.Name,
			fmt.Sprintf("%d", run.Core),
			res.Schedule.Modes.Mode(run.Mode).String(),
			fmt.Sprintf("%.1f", run.StartUS),
			fmt.Sprintf("%.1f", run.FinishUS),
			fmt.Sprintf("%.1f", run.EnergyUJ),
		})
	}
	if err := st.Render(os.Stdout); err != nil {
		app.Die(err)
	}
	fmt.Printf("\nstatic:   energy %.1f µJ, makespan %.1f µs, %d transitions, meets deadline: %v\n",
		static.EnergyUJ, static.MakespanUS, static.Transitions, static.MeetsDeadline(gw.DeadlineUS))

	if !res.Degenerate {
		governed, _, _, err := cfg.ReclaimGraph(gw, res.Schedule)
		if err != nil {
			app.Die(err)
		}
		grun, err := cfg.SimulateGraph(gw, governed)
		if err != nil {
			app.Die(err)
		}
		saving := 0.0
		if static.EnergyUJ > 0 {
			saving = 1 - grun.EnergyUJ/static.EnergyUJ
		}
		fmt.Printf("governed: energy %.1f µJ, makespan %.1f µs, meets deadline: %v (reclaims %.2f%%)\n",
			grun.EnergyUJ, grun.MakespanUS, grun.MeetsDeadline(gw.DeadlineUS), 100*saving)
	}

	if saveGraph != "" {
		f, err := os.Create(saveGraph)
		if err != nil {
			app.Die(err)
		}
		if err := schedfile.SaveGraphSpec(f, gs, gw.DeadlineUS); err != nil {
			f.Close()
			app.Die(err)
		}
		if err := f.Close(); err != nil {
			app.Die(err)
		}
		fmt.Printf("graph spec written to %s\n", saveGraph)
	}
}
