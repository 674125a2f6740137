// Deadline sweep: how the optimal energy, the mode mix and the number of
// dynamic mode switches change as the deadline relaxes — the usage pattern
// behind the paper's Figure 17 and Table 5, on the synthetic gsm/encode
// benchmark.
//
// Run with:
//
//	go run ./examples/deadline-sweep [-bench gsm/encode] [-scale 0.1] [-steps 9]
package main

import (
	"flag"
	"fmt"
	"log"

	"ctdvs/internal/core"
	"ctdvs/internal/profile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

func main() {
	bench := flag.String("bench", "gsm/encode", "benchmark to sweep")
	scale := flag.Float64("scale", 0.1, "workload scale")
	steps := flag.Int("steps", 9, "number of deadlines between fastest and slowest runtimes")
	flag.Parse()
	if err := workloads.CheckScale(*scale); err != nil {
		log.Fatal(err)
	}

	var spec *workloads.Spec
	for _, s := range workloads.All(*scale) {
		if s.Name == *bench {
			spec = s
		}
	}
	if spec == nil {
		log.Fatalf("unknown benchmark %q", *bench)
	}

	machine := sim.MustNew(sim.DefaultConfig())
	prof, err := profile.Collect(machine, spec.Program, spec.Inputs[0], volt.XScale3())
	if err != nil {
		log.Fatal(err)
	}
	n := prof.Modes.Len()
	tFast, tSlow := prof.TotalTimeUS[n-1], prof.TotalTimeUS[0]
	reg := volt.DefaultRegulator()

	fmt.Printf("%s at scale %g: fastest %.1f µs, slowest %.1f µs\n\n", spec.Name, *scale, tFast, tSlow)
	fmt.Printf("%-12s %-12s %-12s %-10s %-10s %s\n",
		"deadline(µs)", "energy(µJ)", "vs single", "switches", "slack(µs)", "baseline mode")

	for i := 0; i <= *steps; i++ {
		dl := tFast + (tSlow-tFast)*float64(i)/float64(*steps)
		if i == 0 {
			dl *= 1.001 // strictly feasible at the fastest mode
		}
		res, err := core.OptimizeSingle(prof, dl, &core.Options{Regulator: reg})
		if err != nil {
			log.Fatalf("deadline %.1f: %v", dl, err)
		}
		ev, err := core.Evaluate(machine, prof, res.Schedule, dl)
		if err != nil {
			log.Fatal(err)
		}
		mode, baseE, ok := prof.BestSingleMode(dl)
		norm := 0.0
		modeName := "none"
		if ok {
			norm = ev.Run.EnergyUJ / baseE
			modeName = prof.Modes.Mode(mode).String()
		}
		fmt.Printf("%-12.1f %-12.1f %-12.3f %-10d %-10.1f %s\n",
			dl, ev.Run.EnergyUJ, norm, ev.Run.Transitions, ev.SlackUS, modeName)
	}
}
