package main

import (
	"sort"

	"ctdvs/internal/core"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/sim"
)

// The traced run addresses artifacts by the same keys exp derives, so the
// artifacts it writes and reads are the ones the untraced run writes and
// reads (TestComposedKeysMatchExp pins this). Only the solve artifact, whose
// codec is internal to exp, gets keys of its own.

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

func recordKey(mc sim.Config, bench string, input int) pipeline.Key {
	b := pipeline.NewKey(pipeline.StageRecording)
	b.Str("bench", bench)
	b.Int("input", int64(input))
	b.Float("scale", scale)
	addSimConfig(b, mc)
	return b.Sum()
}

func profileKey(mc sim.Config, bench string, input, levels int) pipeline.Key {
	b := pipeline.NewKey(pipeline.StageProfile)
	b.Str("bench", bench)
	b.Int("input", int64(input))
	b.Int("levels", int64(levels))
	b.Float("scale", scale)
	addSimConfig(b, mc)
	return b.Sum()
}

func validateKey(profileFP, scheduleFP string, mc sim.Config) pipeline.Key {
	b := pipeline.NewKey(pipeline.StageValidate)
	b.Str("profile", profileFP)
	b.Str("schedule", scheduleFP)
	addSimConfig(b, mc)
	return b.Sum()
}

// solveKey is exp's solve key plus a codec field, so the traced run's
// JSON-coded solve artifacts never collide with exp's binary ones.
func solveKey(prep *core.Prepared, fingerprints []string) pipeline.Key {
	b := pipeline.NewKey(pipeline.StageSolve)
	b.Str("codec", "perfbench-json")
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
	if m := o.MILP; m != nil {
		b.Bool("milp", true)
		b.Int("milp.time_limit_ns", m.TimeLimit.Nanoseconds())
		b.Int("milp.max_nodes", int64(m.MaxNodes))
		b.Float("milp.gap", m.Gap)
		b.Float("milp.int_tol", m.IntTol)
		b.Int("milp.workers", int64(m.Workers))
		b.Int("milp.parallel_threshold", int64(m.ParallelThreshold))
		if m.LP != nil {
			b.Int("milp.lp.max_iters", int64(m.LP.MaxIters))
			b.Float("milp.lp.tol", m.LP.Tol)
		}
	} else {
		b.Bool("milp", false)
	}
	for i, cat := range prep.Cats {
		b.Int("cat", int64(i))
		b.Str("cat.profile", fingerprints[i])
		b.Float("cat.weight", cat.Weight)
		b.Float("cat.deadline_us", cat.DeadlineUS)
	}
	return b.Sum()
}
