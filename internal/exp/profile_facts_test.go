package exp

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"ctdvs/internal/core"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// These tests hold the profile to the simulator. Savings reads its baseline
// energy from the profile and SimulateGraph plans fixed-mode timelines from
// it, so a fixed-mode run must equal the profile's per-mode totals bit for
// bit, and a planned graph timeline must equal the multi-core simulator's.

// TestFixedModeRunsMatchProfile runs every single-mode schedule of every
// workload input at 3, 7 and 13 levels, under two regulator capacitances,
// and compares the run with the profile's totals at that mode.
func TestFixedModeRunsMatchProfile(t *testing.T) {
	check := func(t *testing.T, c *Config, bench string, input, levels int, caps []float64) {
		pr, err := c.Profile(bench, input, levels)
		if err != nil {
			t.Fatal(err)
		}
		for _, capF := range caps {
			reg := volt.DefaultRegulator().WithCapacitance(capF)
			for m := 0; m < pr.Modes.Len(); m++ {
				run, err := c.RunSchedule(pr, core.SingleModeSchedule(pr, m, reg))
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(run.TimeUS) != math.Float64bits(pr.TotalTimeUS[m]) ||
					math.Float64bits(run.EnergyUJ) != math.Float64bits(pr.TotalEnergyUJ[m]) ||
					run.Transitions != 0 {
					t.Errorf("%s input %d, %d levels, mode %d, c=%g: run (%v µs, %v µJ, %d transitions) != profile (%v µs, %v µJ)",
						bench, input, levels, m, capF, run.TimeUS, run.EnergyUJ, run.Transitions,
						pr.TotalTimeUS[m], pr.TotalEnergyUJ[m])
				}
			}
		}
	}
	c := testConfig()
	for _, spec := range workloads.All(c.Scale) {
		for input := range spec.Inputs {
			for _, levels := range []int{3, 7, 13} {
				check(t, c, spec.Name, input, levels, []float64{10e-6, 1e-6})
			}
		}
	}

	// Over the record budget, profiles are collected one simulation per
	// mode instead of replayed from a recording; the totals must still be
	// the runs'.
	perMode := testConfig()
	mc := sim.DefaultConfig()
	mc.RecordBudgetEvents = -1
	perMode.Machine = sim.MustNew(mc)
	for _, bench := range []string{"gsm/encode", "mpeg/decode", "epic"} {
		for _, levels := range []int{3, 13} {
			check(t, perMode, bench, 0, levels, []float64{1e-6})
		}
	}
}

// TestSimulateGraphMatchesSimulator compares SimulateGraph with the
// multi-core simulator on every corpus graph at 3, 7 and 13 levels and on
// its own, one and three cores, for both the solved schedule and the
// schedule the slack reclaimer derives from it.
func TestSimulateGraphMatchesSimulator(t *testing.T) {
	c := testConfig()
	ref := sim.MustNew(c.Machine.Config())
	for _, gs := range workloads.Graphs() {
		coreCounts := []int{gs.Cores}
		for _, k := range []int{1, 3} {
			if k != gs.Cores {
				coreCounts = append(coreCounts, k)
			}
		}
		for _, levels := range []int{3, 7, 13} {
			for _, cores := range coreCounts {
				spec := *gs
				spec.Cores = cores
				name := fmt.Sprintf("%s/%d levels/%d cores", gs.Name, levels, cores)
				gw, err := c.BuildGraph(&spec, levels, 0)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				res, err := c.OptimizeGraph(gw, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				governed, _, _, err := c.ReclaimGraph(gw, res.Schedule)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, s := range []struct {
					kind  string
					sched *sim.GraphSchedule
				}{{"static", res.Schedule}, {"governed", governed}} {
					got, err := c.SimulateGraph(gw, s.sched)
					if err != nil {
						t.Fatalf("%s %s: %v", name, s.kind, err)
					}
					want, err := sim.SimulateGraph(ref, gw.Graph, s.sched)
					if err != nil {
						t.Fatalf("%s %s: %v", name, s.kind, err)
					}
					if !reflect.DeepEqual(got, summarizeGraph(want)) {
						t.Errorf("%s %s: planned timeline differs from the simulator's:\n got %+v\nwant %+v",
							name, s.kind, got, summarizeGraph(want))
					}
				}
			}
		}
	}
}

// TestSavingsSimulatesOnlyTheSchedule checks that Savings runs one
// simulation, the schedule's own: the best single mode's energy is read from
// the profile, so a fresh runner's manifest holds exactly one validate
// record afterwards.
func TestSavingsSimulatesOnlyTheSchedule(t *testing.T) {
	c := testConfig()
	pr, err := c.Profile("gsm/encode", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	dls, err := c.Deadlines("gsm/encode")
	if err != nil {
		t.Fatal(err)
	}
	dl := dls[1]
	reg := volt.DefaultRegulator().WithCapacitance(1e-6)
	res, err := c.OptimizeSingle(pr, dl, &core.Options{Regulator: reg, MILP: c.solverOpts()})
	if err != nil {
		t.Fatal(err)
	}
	modes := map[int]bool{}
	for _, m := range res.Schedule.Assignment {
		modes[m] = true
	}
	if len(modes) < 2 {
		t.Fatalf("schedule uses %d mode(s); the check needs one that mixes modes", len(modes))
	}
	sv, err := c.Savings(pr, res.Schedule, dl, reg)
	if err != nil {
		t.Fatal(err)
	}
	if sv <= 0 {
		t.Errorf("savings %v, want a positive saving over the best single mode", sv)
	}
	validates := 0
	for _, r := range c.Pipeline.Manifest().Records() {
		if r.Stage == pipeline.StageValidate {
			validates++
		}
	}
	if validates != 1 {
		t.Errorf("Savings left %d validate records, want 1 (the schedule's run)", validates)
	}
}

// TestSimulateGraphSimulatesNothing checks that executing a solved,
// non-degenerate graph schedule whose profiles are resolved adds no manifest
// record and borrows no machine: every task's run is a profile fact.
func TestSimulateGraphSimulatesNothing(t *testing.T) {
	c := testConfig()
	gs, _ := workloads.Graph("fork-join-2w")
	gw, err := c.BuildGraph(gs, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.OptimizeGraph(gw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degenerate {
		t.Fatal("fork-join-2w solved through the degenerate path")
	}
	// A second Config over the same runner: its machine pool has lent
	// nothing yet, so any simulation shows in its pool statistics.
	exec := testConfig()
	exec.Pipeline = c.Pipeline
	before := len(c.Pipeline.Manifest().Records())
	run, err := exec.SimulateGraph(gw, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if after := len(c.Pipeline.Manifest().Records()); after != before {
		t.Errorf("SimulateGraph added %d manifest records", after-before)
	}
	if _, peak := exec.PoolStats(); peak != 0 {
		t.Errorf("SimulateGraph borrowed %d machines", peak)
	}
	if run.EnergyUJ != res.PredictedEnergyUJ || run.MakespanUS != res.PredictedMakespanUS {
		t.Errorf("executed (%v µJ, %v µs) != predicted (%v µJ, %v µs)",
			run.EnergyUJ, run.MakespanUS, res.PredictedEnergyUJ, res.PredictedMakespanUS)
	}

	// The profiles price only their own mode set.
	foreign := *res.Schedule
	if foreign.Modes, err = volt.Levels(7); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.SimulateGraph(gw, &foreign); err == nil {
		t.Error("SimulateGraph planned a 7-mode schedule from 3-level profiles")
	}
}
