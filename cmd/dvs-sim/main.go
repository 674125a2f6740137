// Command dvs-sim executes a saved DVS schedule (produced by dvs-opt -save)
// on the simulator, closing the toolchain loop: profile → optimize →
// schedule file → execute. Running with a different input than the one the
// schedule was optimized for reproduces the paper's cross-input experiments
// (Section 6.4) from the command line. With -cache-dir, the execution is the
// pipeline's validate stage: a schedule dvs-opt or dvs-bench already measured
// is reported without re-simulating.
//
// Usage:
//
//	dvs-opt -bench mpeg/decode -deadline 3 -save sched.json
//	dvs-sim -schedule sched.json -input 2
//
// Graph mode executes a task-graph spec (written by dvs-opt -save-graph):
// the placement and mode assignment resolve from the shared artifact cache
// when dvs-opt already solved them, and both the static schedule and the
// slack-reclaiming governed run are reported. Their timelines are planned
// from the per-task profiles, whose per-mode totals are exactly what a
// fixed-mode simulation measures, so no task is re-simulated:
//
//	dvs-opt -task-graph mpi-mix -cache-dir .dvs-cache -save-graph graph.json
//	dvs-sim -graph graph.json -cache-dir .dvs-cache
package main

import (
	"flag"
	"fmt"
	"os"

	"ctdvs/cmd/internal/cli"
	"ctdvs/internal/core"
	"ctdvs/internal/milp"
	"ctdvs/internal/schedfile"
	"ctdvs/internal/volt"
)

func main() {
	app := cli.New("dvs-sim")
	app.ScaleFlag()
	app.SolveFlags()
	schedPath := flag.String("schedule", "", "schedule file written by dvs-opt -save")
	graphPath := flag.String("graph", "", "task-graph spec file written by dvs-opt -save-graph")
	input := flag.Int("input", 0, "input index to execute")
	deadlineUS := flag.Float64("deadline-us", 0, "optional deadline to check the run against (µs)")
	app.Parse()

	if *graphPath != "" {
		if *schedPath != "" {
			app.Dief("-schedule and -graph are mutually exclusive")
		}
		code := runGraph(app, *graphPath, *deadlineUS)
		app.Close()
		os.Exit(code)
	}
	if *schedPath == "" {
		app.Dief("-schedule or -graph is required")
	}
	f, err := os.Open(*schedPath)
	if err != nil {
		app.Die(err)
	}
	defer f.Close()
	program, sched, err := schedfile.Load(f)
	if err != nil {
		app.Die(err)
	}

	cfg := app.Config()
	if _, err := cfg.Spec(program); err != nil {
		app.Dief("schedule targets unknown benchmark %q", program)
	}
	pr, err := cfg.Profile(program, *input, 3)
	if err != nil {
		app.Die(err)
	}
	ev, err := cfg.Measure(pr, sched, *deadlineUS)
	if err != nil {
		app.Die(err)
	}

	res := ev.Run
	fmt.Printf("%s input %q under %s:\n", program, pr.Input.Name, *schedPath)
	fmt.Printf("  time   %.1f µs\n", res.TimeUS)
	fmt.Printf("  energy %.1f µJ (%.2f µJ in %d mode switches)\n",
		res.EnergyUJ, res.TransitionEnergyUJ, res.Transitions)
	app.Close()
	if *deadlineUS > 0 {
		fmt.Printf("  deadline %.1f µs: met=%v (slack %.1f µs)\n",
			*deadlineUS, ev.MeetsDeadline, ev.SlackUS)
		if !ev.MeetsDeadline {
			os.Exit(2)
		}
	}
}

// runGraph executes a task-graph spec: solve (or load) the multi-core
// schedule, run it statically, then run it under the slack-reclaiming
// governor. Returns the process exit code (2 when a deadline is missed).
func runGraph(app *cli.App, path string, deadlineUS float64) int {
	f, err := os.Open(path)
	if err != nil {
		app.Die(err)
	}
	gf, err := schedfile.LoadGraphSpec(f)
	f.Close()
	if err != nil {
		app.Die(err)
	}
	gs, err := gf.Spec()
	if err != nil {
		app.Die(err)
	}
	dl := deadlineUS
	if dl == 0 {
		dl = gf.DeadlineUS
	}

	cfg := app.Config()
	gw, err := cfg.BuildGraph(gs, 3, dl)
	if err != nil {
		app.Die(err)
	}
	// The same options dvs-opt's task-graph mode uses by default, so the
	// solve resolves from the shared artifact cache instead of re-running.
	opts := &core.Options{
		Regulator: volt.DefaultRegulator(),
		MILP:      &milp.Options{TimeLimit: app.SolveLimit, Workers: app.Workers},
	}
	res, err := cfg.OptimizeGraph(gw, opts)
	if err != nil {
		app.Die(err)
	}
	static, err := cfg.SimulateGraph(gw, res.Schedule)
	if err != nil {
		app.Die(err)
	}

	fmt.Printf("%s: %d tasks on %d cores under %s, deadline %.1f µs\n",
		gs.Name, len(gw.Graph.Tasks), gw.Cores, path, gw.DeadlineUS)
	for _, run := range static.Runs {
		fmt.Printf("  %-18s core %d  %-14s %10.1f → %10.1f µs  %10.1f µJ\n",
			run.Name, run.Core, res.Schedule.Modes.Mode(run.Mode).String(),
			run.StartUS, run.FinishUS, run.EnergyUJ)
	}
	staticOK := static.MeetsDeadline(gw.DeadlineUS)
	fmt.Printf("  static:   %.1f µJ, makespan %.1f µs, met=%v (slack %.1f µs)\n",
		static.EnergyUJ, static.MakespanUS, staticOK, gw.DeadlineUS-static.MakespanUS)

	governedOK := true
	if !res.Degenerate {
		governed, _, _, err := cfg.ReclaimGraph(gw, res.Schedule)
		if err != nil {
			app.Die(err)
		}
		grun, err := cfg.SimulateGraph(gw, governed)
		if err != nil {
			app.Die(err)
		}
		governedOK = grun.MeetsDeadline(gw.DeadlineUS)
		fmt.Printf("  governed: %.1f µJ, makespan %.1f µs, met=%v\n",
			grun.EnergyUJ, grun.MakespanUS, governedOK)
	}
	if !staticOK || !governedOK {
		return 2
	}
	return 0
}
