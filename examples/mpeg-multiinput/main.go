// MPEG multi-input: the paper's Figure 19 experiment as a library user would
// run it. mpeg/decode has four input bitstreams in two categories (with and
// without B-frames). A schedule optimized from one category's profile can
// mispredict the other category's runtime; the multi-category formulation —
// minimizing the weighted average energy subject to both categories'
// deadlines — is robust across all four inputs.
//
// Run with:
//
//	go run ./examples/mpeg-multiinput [-scale 0.1]
package main

import (
	"flag"
	"fmt"
	"log"

	"ctdvs/internal/core"
	"ctdvs/internal/ir"
	"ctdvs/internal/profile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

func main() {
	scale := flag.Float64("scale", 0.1, "workload scale")
	flag.Parse()
	if err := workloads.CheckScale(*scale); err != nil {
		log.Fatal(err)
	}

	spec := workloads.MpegDecode(*scale)
	machine := sim.MustNew(sim.DefaultConfig())
	modes := volt.XScale3()
	reg := volt.DefaultRegulator()

	// Profile every input. The deadline is a property of the application —
	// one wall-clock target shared by every optimization — derived from the
	// default (flwr) profile's Deadline-4 position.
	type prof struct {
		in ir.Input
		pr *profile.Profile
	}
	profs := map[string]*prof{}
	for _, in := range spec.Inputs {
		pr, err := profile.Collect(machine, spec.Program, in, modes)
		if err != nil {
			log.Fatal(err)
		}
		profs[in.Name] = &prof{in: in, pr: pr}
		n := pr.Modes.Len()
		fmt.Printf("profiled %-10s: %8.1f µs at 800 MHz, %8.1f µs at 200 MHz\n",
			in.Name, pr.TotalTimeUS[n-1], pr.TotalTimeUS[0])
	}
	flwr, bbc := profs["flwr.m2v"], profs["bbc.m2v"]
	n := flwr.pr.Modes.Len()
	deadline := spec.Deadline(4, flwr.pr.TotalTimeUS[n-1], flwr.pr.TotalTimeUS[0])
	fmt.Printf("\ncommon application deadline: %.1f µs\n", deadline)

	// Three schedules: optimized from the flwr profile (B-frames), from the
	// bbc profile (no B-frames), and for the weighted average of both
	// categories — all against the same deadline.
	optFor := func(p *prof) *core.Result {
		res, err := core.OptimizeSingle(p.pr, deadline, &core.Options{Regulator: reg})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	flwrSched := optFor(flwr)
	bbcSched := optFor(bbc)
	avgSched, err := core.Optimize([]core.Category{
		{Profile: flwr.pr, Weight: 0.5, DeadlineUS: deadline},
		{Profile: bbc.pr, Weight: 0.5, DeadlineUS: deadline},
	}, &core.Options{Regulator: reg})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-10s %14s %14s %14s %14s\n", "run input", "self (µs)", "opt-flwr (µs)", "opt-bbc (µs)", "opt-avg (µs)")
	for _, in := range spec.Inputs {
		p := profs[in.Name]
		self := optFor(p)
		row := []float64{}
		for _, sched := range []*core.Result{self, flwrSched, bbcSched, avgSched} {
			run, err := machine.RunDVS(spec.Program, in, sched.Schedule)
			if err != nil {
				log.Fatal(err)
			}
			row = append(row, run.TimeUS)
		}
		fmt.Printf("%-10s %14.1f %14.1f %14.1f %14.1f\n", in.Name, row[0], row[1], row[2], row[3])
	}
	fmt.Println("\nNote how the bbc-profiled schedule can misjudge inputs with B-frames")
	fmt.Println("(the profile never saw that code execute), while the averaged")
	fmt.Println("optimization tracks the self-profiled runtimes.")
}
