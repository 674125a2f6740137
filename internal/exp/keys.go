package exp

import (
	"sort"

	"ctdvs/internal/core"
	"ctdvs/internal/milp"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/sim"
)

// This file centralizes cache-key construction for the pipeline stages. A key
// covers everything that can influence the artifact — workload spec name and
// scale, the full simulator configuration, voltage levels, regulator and MILP
// options — so equal configurations hash identically across processes and any
// option change produces a different key.

// addSimConfig hashes every field of the machine configuration.
func addSimConfig(b *pipeline.KeyBuilder, mc sim.Config) {
	cache := func(name string, cc sim.CacheConfig) {
		b.Int(name+".size", int64(cc.SizeBytes))
		b.Int(name+".assoc", int64(cc.Assoc))
		b.Int(name+".line", int64(cc.LineBytes))
		b.Int(name+".latency", int64(cc.LatencyCycles))
	}
	cache("l1", mc.L1)
	cache("l2", mc.L2)
	b.Float("mem_latency_us", mc.MemLatencyUS)
	b.Int("mem_channels", int64(mc.MemChannels))
	b.Float("static_power_mw", mc.StaticPowerMW)
	b.Int("predictor_entries", int64(mc.PredictorEntries))
	b.Int("mispredict_penalty", int64(mc.MispredictPenaltyCycles))
	b.Int("record_budget_events", int64(mc.RecordBudgetEvents))
	b.Float("ceff_compute_nf", mc.CeffComputeNF)
	b.Float("ceff_l1_nf", mc.CeffL1NF)
	b.Float("ceff_l2_nf", mc.CeffL2NF)
}

// addMILPOptions hashes the branch-and-bound options as configured (defaults
// are resolved inside the solver; distinct spellings of the same search are
// conservatively distinct keys). Workers changes neither the objective nor
// the incumbent, but it is hashed so a cache entry always records exactly the
// search that produced it.
func addMILPOptions(b *pipeline.KeyBuilder, o *milp.Options) {
	if o == nil {
		b.Bool("milp", false)
		return
	}
	b.Bool("milp", true)
	b.Int("milp.time_limit_ns", o.TimeLimit.Nanoseconds())
	b.Int("milp.max_nodes", int64(o.MaxNodes))
	b.Float("milp.gap", o.Gap)
	b.Float("milp.int_tol", o.IntTol)
	b.Int("milp.workers", int64(o.Workers))
	b.Int("milp.parallel_threshold", int64(o.ParallelThreshold))
	if o.LP != nil {
		b.Int("milp.lp.max_iters", int64(o.LP.MaxIters))
		b.Float("milp.lp.tol", o.LP.Tol)
	}
}

// recordKey addresses one event-stream recording. It deliberately omits the
// mode-set levels: the stream is mode-invariant, so one recording per
// (workload, input, scale, machine) serves every mode set replayed from it.
func (c *Config) recordKey(bench string, input int) pipeline.Key {
	b := pipeline.NewKey(pipeline.StageRecording)
	b.Str("bench", bench)
	b.Int("input", int64(input))
	b.Float("scale", c.Scale)
	addSimConfig(b, c.Machine.Config())
	return b.Sum()
}

// profileKey addresses one profile-collection run.
func (c *Config) profileKey(bench string, input, levels int) pipeline.Key {
	b := pipeline.NewKey(pipeline.StageProfile)
	b.Str("bench", bench)
	b.Int("input", int64(input))
	b.Int("levels", int64(levels))
	b.Float("scale", c.Scale)
	addSimConfig(b, c.Machine.Config())
	return b.Sum()
}

// solveKey addresses one MILP solve: the canonicalized options plus, per
// category, the content fingerprint of the profile it optimizes (which covers
// the program, input, mode set and every measured number) with its weight and
// deadline.
func solveKey(prep *core.Prepared, fingerprints []string) pipeline.Key {
	b := pipeline.NewKey(pipeline.StageSolve)
	o := prep.Opts
	b.Float("regulator.c", o.Regulator.C)
	b.Float("regulator.u", o.Regulator.U)
	b.Float("regulator.imax", o.Regulator.IMax)
	b.Float("filter_tail", o.FilterTail)
	b.Bool("no_transition_costs", o.NoTransitionCosts)
	b.Bool("block_based", o.BlockBased)
	if o.KeepIndependent != nil {
		edges := make([][2]int, 0, len(o.KeepIndependent))
		for e, keep := range o.KeepIndependent {
			if keep {
				edges = append(edges, [2]int{e.From, e.To})
			}
		}
		sort.Slice(edges, func(a, z int) bool {
			if edges[a][0] != edges[z][0] {
				return edges[a][0] < edges[z][0]
			}
			return edges[a][1] < edges[z][1]
		})
		b.Bool("keep_independent", true)
		for _, e := range edges {
			b.Int("keep.from", int64(e[0]))
			b.Int("keep.to", int64(e[1]))
		}
	}
	addMILPOptions(b, o.MILP)
	for i, cat := range prep.Cats {
		b.Int("cat", int64(i))
		b.Str("cat.profile", fingerprints[i])
		b.Float("cat.weight", cat.Weight)
		b.Float("cat.deadline_us", cat.DeadlineUS)
	}
	return b.Sum()
}

// validateKey addresses one schedule re-simulation: the profile fingerprint
// pins the exact program/input/measurement context, the schedule fingerprint
// the exact mode placement, and the machine configuration the simulator.
func validateKey(profileFP, scheduleFP string, mc sim.Config) pipeline.Key {
	b := pipeline.NewKey(pipeline.StageValidate)
	b.Str("profile", profileFP)
	b.Str("schedule", scheduleFP)
	addSimConfig(b, mc)
	return b.Sum()
}

// addGraphStructure hashes everything that identifies the task-graph instance
// itself: per task, the profile fingerprint (which pins the program, input,
// mode set and every measured number) plus its release and per-task deadline;
// then the edge list.
func addGraphStructure(b *pipeline.KeyBuilder, gw *GraphWorkload, fingerprints []string) {
	for t, task := range gw.Graph.Tasks {
		b.Int("task", int64(t))
		b.Str("task.profile", fingerprints[t])
		b.Float("task.release_us", task.ReleaseUS)
		b.Float("task.deadline_us", task.DeadlineUS)
	}
	for _, e := range gw.Graph.Edges {
		b.Int("edge.from", int64(e[0]))
		b.Int("edge.to", int64(e[1]))
	}
}

// graphSolveKey addresses one task-graph solve: the graph structure, the core
// count and deadline, the regulator and the canonicalized MILP options.
func graphSolveKey(gw *GraphWorkload, fingerprints []string, o *core.Options) pipeline.Key {
	b := pipeline.NewKey(pipeline.StageGraphSolve)
	addGraphStructure(b, gw, fingerprints)
	b.Int("cores", int64(gw.Cores))
	b.Float("deadline_us", gw.DeadlineUS)
	b.Float("regulator.c", o.Regulator.C)
	b.Float("regulator.u", o.Regulator.U)
	b.Float("regulator.imax", o.Regulator.IMax)
	b.Bool("no_transition_costs", o.NoTransitionCosts)
	addMILPOptions(b, o.MILP)
	return b.Sum()
}
