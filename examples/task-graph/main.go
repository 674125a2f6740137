// Task graphs: optimize a DAG of benchmark tasks across multiple cores with
// per-core DVS, then squeeze the remaining slack at run time. The flow is the
// multi-core generalization of the paper's single-program MILP: a list
// scheduler places tasks on cores, the MILP picks one voltage mode per task
// under precedence and deadline constraints, and a slack-reclaiming governor
// (in the style of Aupy et al.) re-decides modes at dispatch time as actual
// finish times come in — never later or hungrier than the static schedule.
//
// Run with:
//
//	go run ./examples/task-graph [-graph fork-join-4w] [-cores 4] [-scale 0.05]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ctdvs/internal/exp"
	"ctdvs/internal/workloads"
)

func main() {
	name := flag.String("graph", "fork-join-4w", "corpus graph (see workloads.Graphs)")
	cores := flag.Int("cores", 0, "override the graph's core count (0 = its own)")
	scale := flag.Float64("scale", 0.05, "workload scale")
	flag.Parse()
	if err := workloads.CheckScale(*scale); err != nil {
		log.Fatal(err)
	}

	gs, ok := workloads.Graph(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown graph %q; corpus:\n", *name)
		for _, g := range workloads.Graphs() {
			fmt.Fprintf(os.Stderr, "  %-14s %d tasks on %d cores\n", g.Name, len(g.Tasks), g.Cores)
		}
		os.Exit(1)
	}
	if *cores > 0 {
		override := *gs
		override.Cores = *cores
		gs = &override
	}

	cfg := exp.NewConfig(*scale)
	gw, err := cfg.BuildGraph(gs, 3, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d tasks on %d cores at scale %g\n", gs.Name, len(gw.Graph.Tasks), gw.Cores, *scale)
	fmt.Printf("makespan span: %.1f µs (all-fastest) .. %.1f µs (all-slowest)\n", gw.FastUS, gw.SlowUS)
	fmt.Printf("deadline: %.1f µs (fraction %.2f of the span)\n\n", gw.DeadlineUS, gs.DeadlineFrac)

	// Compile time: HEFT-style list placement, then one MILP mode decision
	// per task under precedence, release and deadline rows.
	res, err := cfg.OptimizeGraph(gw, nil)
	if err != nil {
		log.Fatal(err)
	}
	static, err := cfg.SimulateGraph(gw, res.Schedule)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-18s %5s %-14s %11s %11s %11s\n", "task", "core", "mode", "start µs", "finish µs", "energy µJ")
	for _, run := range static.Runs {
		fmt.Printf("%-18s %5d %-14s %11.1f %11.1f %11.1f\n",
			run.Name, run.Core, res.Schedule.Modes.Mode(run.Mode).String(),
			run.StartUS, run.FinishUS, run.EnergyUJ)
	}

	// Run time: the governor re-picks each task's mode at dispatch, spending
	// slack other tasks left behind, with a transition-cost reserve that
	// guarantees the static finish times (and so the deadline) are never
	// exceeded. Falls back to the static schedule wholesale if reclaiming
	// would not pay.
	governed, _, _, err := cfg.ReclaimGraph(gw, res.Schedule)
	if err != nil {
		log.Fatal(err)
	}
	grun, err := cfg.SimulateGraph(gw, governed)
	if err != nil {
		log.Fatal(err)
	}

	nm := gw.Profiles[0].Modes.Len()
	fastE := 0.0
	for _, pr := range gw.Profiles {
		fastE += pr.TotalEnergyUJ[nm-1]
	}
	fmt.Printf("\n%-22s %12s %12s %8s\n", "schedule", "energy (µJ)", "makespan", "meets")
	rows := []struct {
		name string
		e, t float64
	}{
		{"all-fastest baseline", fastE, gw.FastUS},
		{"static MILP", static.EnergyUJ, static.MakespanUS},
		{"slack-reclaim governor", grun.EnergyUJ, grun.MakespanUS},
	}
	for _, r := range rows {
		fmt.Printf("%-22s %12.1f %12.1f %8v\n", r.name, r.e, r.t, r.t <= gw.DeadlineUS*(1+1e-9))
	}
	fmt.Printf("\nstatic saves %.1f%% vs all-fastest; the governor reclaims %.2f%% more\n",
		100*(1-static.EnergyUJ/fastE), 100*(1-grun.EnergyUJ/static.EnergyUJ))
}
