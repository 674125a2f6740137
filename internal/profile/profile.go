// Package profile assembles the profiling data that drives both the analytic
// model and the MILP optimizer (paper Section 5.1):
//
//   - per-block, per-mode execution time T_jm and energy E_jm (averaged per
//     invocation, as the paper's formulation assumes);
//   - edge traversal counts G_ij and local-path counts D_hij (gathered once:
//     control flow is frequency-independent, paper assumption 1);
//   - whole-run time and energy per mode (Table 4's columns, and the
//     single-frequency baselines energy savings are normalized against);
//   - the aggregate analytic-model parameters (Table 7), measured at the
//     fastest mode.
//
// Collect obtains the per-mode numbers from a single simulation: one
// instrumented run at the reference (fastest) mode records the mode-invariant
// event stream (sim.Recording), which is then replayed — pure arithmetic, no
// re-simulation — at every other mode, bit-identical to what per-mode runs
// would measure. Programs or configurations outside the recorder's invariance
// envelope fall back to CollectPerMode automatically, so answers never
// change, only the amount of work.
package profile

import (
	"errors"
	"fmt"

	"ctdvs/internal/cfg"
	"ctdvs/internal/ir"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
)

// Profile is the complete profiling record of one program on one input
// across all modes of a mode set.
type Profile struct {
	Program *ir.Program
	Input   ir.Input
	Graph   *cfg.Graph
	Modes   *volt.ModeSet

	// TimeUS[j][m] / EnergyUJ[j][m]: per-invocation time/energy of block j
	// at mode m. Zero for blocks that never executed.
	TimeUS   [][]float64
	EnergyUJ [][]float64
	// Invocations[j]: times block j executed.
	Invocations []int64

	// EdgeCounts[e]: traversals of Graph.Edges[e] (G_ij; entry edge = 1).
	EdgeCounts []int64
	// PathCounts[p]: traversals of Graph.Paths[p] (D_hij).
	PathCounts []int64

	// TotalTimeUS[m] / TotalEnergyUJ[m]: whole-run figures at fixed mode m.
	TotalTimeUS   []float64
	TotalEnergyUJ []float64

	// Params are the analytic-model aggregates measured at the fastest mode.
	Params sim.Params
}

// Collect profiles the program at every mode of the set: one recorded
// simulation at the reference mode plus a batched replay for the rest. When
// the run is outside the recording envelope (sim.ErrUnrecordable) it falls
// back to CollectPerMode; either way the result is bit-identical to per-mode
// simulation.
func Collect(m *sim.Machine, p *ir.Program, in ir.Input, modes *volt.ModeSet) (*Profile, error) {
	g, err := graphOf(p)
	if err != nil {
		return nil, err
	}
	ref, err := referenceModeIndex(modes)
	if err != nil {
		return nil, err
	}
	rec, refRes, err := m.Record(p, in, modes.Mode(ref))
	if err != nil {
		if errors.Is(err, sim.ErrUnrecordable) {
			return CollectPerMode(m, p, in, modes)
		}
		return nil, err
	}
	others := make([]volt.Mode, 0, modes.Len()-1)
	for mi := 0; mi < modes.Len(); mi++ {
		if mi != ref {
			others = append(others, modes.Mode(mi))
		}
	}
	replayed, err := rec.ReplayAll(others)
	if err != nil {
		return nil, err
	}
	results := make([]*sim.Result, 0, modes.Len())
	results = append(results, replayed[:ref]...)
	results = append(results, refRes)
	results = append(results, replayed[ref:]...)
	return assemble(g, p, in, modes, results)
}

// CollectPerMode profiles by running the full simulation once per mode — the
// original implementation. It remains as the fallback for runs outside the
// recording envelope (sim.Config.RecordBudgetEvents) and as the baseline the
// replay path is benchmarked and property-tested against.
func CollectPerMode(m *sim.Machine, p *ir.Program, in ir.Input, modes *volt.ModeSet) (*Profile, error) {
	g, err := graphOf(p)
	if err != nil {
		return nil, err
	}
	results := make([]*sim.Result, modes.Len())
	for mi := range results {
		if results[mi], err = m.Run(p, in, modes.Mode(mi)); err != nil {
			return nil, err
		}
	}
	return assemble(g, p, in, modes, results)
}

// FromRecording assembles a profile by replaying a recorded event stream at
// every mode of the set; no simulator is needed. The recording must be of
// this program and input (see sim.Recording.Bind and the schedfile codec).
func FromRecording(rec *sim.Recording, p *ir.Program, in ir.Input, modes *volt.ModeSet) (*Profile, error) {
	g, err := graphOf(p)
	if err != nil {
		return nil, err
	}
	if rec.Program != p.Name || rec.Input != in.Name {
		return nil, fmt.Errorf("profile: recording is of %s/%s, want %s/%s", rec.Program, rec.Input, p.Name, in.Name)
	}
	if _, err := referenceModeIndex(modes); err != nil {
		return nil, err
	}
	results, err := rec.ReplayAll(modes.Modes())
	if err != nil {
		return nil, err
	}
	return assemble(g, p, in, modes, results)
}

func graphOf(p *ir.Program) (*cfg.Graph, error) {
	g, err := cfg.FromProgram(p)
	if err != nil {
		return nil, err
	}
	if err := g.CheckConnected(); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return g, nil
}

// referenceModeIndex returns the index of the fastest mode — where the
// paper's Table-7 aggregates are measured and where Collect records — after
// verifying the set is in ascending frequency order. volt.NewModeSet sorts
// by construction, but the aggregates silently coming from the wrong run if
// that invariant ever changed is exactly the failure this guards against.
func referenceModeIndex(modes *volt.ModeSet) (int, error) {
	nm := modes.Len()
	for i := 1; i < nm; i++ {
		if modes.Mode(i).F <= modes.Mode(i-1).F {
			return 0, fmt.Errorf("profile: mode set out of ascending frequency order at index %d (%v after %v)",
				i, modes.Mode(i), modes.Mode(i-1))
		}
	}
	return nm - 1, nil
}

// assemble builds the Profile from one fixed-mode Result per mode (simulated
// or replayed — the two are bit-identical). Control-flow facts come from the
// dense, graph-numbered counts of the mode-0 result; the other results
// cross-check invocations (paper assumption 1); the analytic parameters come
// from the reference (fastest) mode.
func assemble(g *cfg.Graph, p *ir.Program, in ir.Input, modes *volt.ModeSet, results []*sim.Result) (*Profile, error) {
	nb := g.NumBlocks
	nm := modes.Len()
	ref, err := referenceModeIndex(modes)
	if err != nil {
		return nil, err
	}
	first := results[0]
	if len(first.EdgeCountsByID) != g.NumEdges() || len(first.PathCountsByID) != len(g.Paths) {
		return nil, fmt.Errorf("profile: run produced %d edge and %d path counts, graph has %d and %d",
			len(first.EdgeCountsByID), len(first.PathCountsByID), g.NumEdges(), len(g.Paths))
	}
	pr := &Profile{
		Program:       p,
		Input:         in,
		Graph:         g,
		Modes:         modes,
		TimeUS:        make([][]float64, nb),
		EnergyUJ:      make([][]float64, nb),
		Invocations:   make([]int64, nb),
		EdgeCounts:    append([]int64(nil), first.EdgeCountsByID...),
		PathCounts:    append([]int64(nil), first.PathCountsByID...),
		TotalTimeUS:   make([]float64, nm),
		TotalEnergyUJ: make([]float64, nm),
		Params:        results[ref].Params,
	}
	if pr.PathCounts == nil {
		pr.PathCounts = []int64{}
	}
	for j := 0; j < nb; j++ {
		pr.TimeUS[j] = make([]float64, nm)
		pr.EnergyUJ[j] = make([]float64, nm)
		pr.Invocations[j] = first.Blocks[j].Invocations
	}
	for mi, res := range results {
		pr.TotalTimeUS[mi] = res.TimeUS
		pr.TotalEnergyUJ[mi] = res.EnergyUJ
		for j := 0; j < nb; j++ {
			bs := res.Blocks[j]
			if bs.Invocations != pr.Invocations[j] {
				return nil, fmt.Errorf("profile: block %d executed %d times at mode %d but %d at mode 0",
					j, bs.Invocations, mi, pr.Invocations[j])
			}
			if bs.Invocations == 0 {
				continue
			}
			pr.TimeUS[j][mi] = bs.TimeUS / float64(bs.Invocations)
			pr.EnergyUJ[j][mi] = bs.EnergyUJ / float64(bs.Invocations)
		}
	}
	return pr, nil
}

// BestSingleMode returns the index of the slowest mode whose fixed-mode run
// meets the deadline, and that run's energy; this is the paper's
// normalization baseline ("best single frequency that meets the deadline").
// It returns ok=false when even the fastest mode misses the deadline.
func (pr *Profile) BestSingleMode(deadlineUS float64) (mode int, energyUJ float64, ok bool) {
	idx := pr.Modes.SlowestMeeting(deadlineUS, func(i int) float64 { return pr.TotalTimeUS[i] })
	if idx < 0 {
		return 0, 0, false
	}
	return idx, pr.TotalEnergyUJ[idx], true
}

// EdgeEnergy returns the total energy attributable to edge e at mode m:
// G_ij · E_{j m} where j is the destination block. This drives the paper's
// 2 %-tail edge filtering (Section 5.2).
func (pr *Profile) EdgeEnergy(e int, m int) float64 {
	dst := pr.Graph.Edges[e].To
	return float64(pr.EdgeCounts[e]) * pr.EnergyUJ[dst][m]
}
