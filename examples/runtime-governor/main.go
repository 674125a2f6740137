// Runtime governor: compare compile-time MILP scheduling against three
// run-time interval policies on the same benchmark and deadline —
// utilization-driven (PAST-style), miss-rate-driven (Marculescu-style), and
// deadline-aware pacing (PACE-style). The first two lack deadline knowledge
// and overspend; the pacer time-multiplexes modes and can beat the static
// schedule on loop-dominated code (see EXPERIMENTS.md for why).
//
// Run with:
//
//	go run ./examples/runtime-governor [-bench gsm/encode] [-scale 0.1]
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
	bench := flag.String("bench", "gsm/encode", "benchmark")
	scale := flag.Float64("scale", 0.1, "workload scale")
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
	ms := volt.XScale3()
	reg := volt.DefaultRegulator()
	prof, err := profile.Collect(machine, spec.Program, spec.Inputs[0], ms)
	if err != nil {
		log.Fatal(err)
	}
	n := ms.Len()
	deadline := spec.Deadline(4, prof.TotalTimeUS[n-1], prof.TotalTimeUS[0])
	total := prof.Params.NCache + prof.Params.NOverlap + prof.Params.NDependent
	fmt.Printf("%s at scale %g: deadline %.1f µs (D4), %d total cycles\n\n",
		spec.Name, *scale, deadline, total)

	type strat struct {
		name string
		run  func() (*sim.Result, error)
	}
	strategies := []strat{
		{"compile-time MILP", func() (*sim.Result, error) {
			res, err := core.OptimizeSingle(prof, deadline, &core.Options{Regulator: reg})
			if err != nil {
				return nil, err
			}
			return machine.RunDVS(spec.Program, spec.Inputs[0], res.Schedule)
		}},
		{"utilization governor", func() (*sim.Result, error) {
			return machine.RunGoverned(spec.Program, spec.Inputs[0], ms, reg, n-1, 500,
				&sim.UtilizationGovernor{Modes: ms, Low: 0.6, High: 0.9})
		}},
		{"miss-rate governor", func() (*sim.Result, error) {
			return machine.RunGoverned(spec.Program, spec.Inputs[0], ms, reg, n-1, 500,
				&sim.MissRateGovernor{Modes: ms, LowMissesPerUS: 0.5, HighMissesPerUS: 3})
		}},
		{"deadline pacer", func() (*sim.Result, error) {
			return machine.RunGoverned(spec.Program, spec.Inputs[0], ms, reg, n-1, 500,
				&sim.DeadlineGovernor{Modes: ms, TotalCycles: total, DeadlineUS: deadline, Margin: 1.1})
		}},
	}

	fmt.Printf("%-22s %12s %12s %10s %8s\n", "strategy", "time (µs)", "energy (µJ)", "switches", "meets")
	for _, s := range strategies {
		res, err := s.run()
		if err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		fmt.Printf("%-22s %12.1f %12.1f %10d %8v\n",
			s.name, res.TimeUS, res.EnergyUJ, res.Transitions, res.TimeUS <= deadline*1.02)
	}
}
