package analytic

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the exact continuous-voltage optimum for arbitrary
// multi-region instances — the third rung of the package's rigor ladder,
// between the §3 closed-form two-phase bound and the discrete MILP.
//
// The model follows Li, Yao and Yuan ("An O(n²) Algorithm for Computing
// Optimal Continuous Voltage Schedules", and Yao–Demers–Shenker before
// them): n jobs, each with a release time, a deadline and a cycle demand,
// run on one continuously-scalable processor under a convex power law.
// The optimum is characterized by critical intervals: repeatedly find the
// interval [a, b] of maximum intensity
//
//	g(a, b) = Σ{cycles of jobs with a ≤ release, deadline ≤ b} / (b − a),
//
// run exactly those jobs at frequency g(a, b), collapse [a, b] to a point,
// and recurse on the rest. Each extraction is a dense O(m²) scan over the
// remaining release/deadline points and removes at least one job, giving
// the Li–Yao–Yuan quadratic bound for the bounded-critical-interval
// instances this repository generates (program regions and task windows
// produce a handful of distinct levels); the fully adversarial case adds
// one more factor that their incremental bookkeeping removes.
//
// Frequencies are clamped to the voltage range: intensities above FHi make
// the instance infeasible (ErrDeadlineInfeasible), intensities below FLo
// run at the range floor and idle — exactly how the §3 optimizer treats
// extra slack — so the reported energy remains a valid lower bound on any
// schedule restricted to voltages in [vr.Lo, vr.Hi].

// Job is one region (or task) of a continuous-schedule instance: Cycles of
// work that may only run inside the window [ReleaseUS, DeadlineUS].
type Job struct {
	ReleaseUS  float64
	DeadlineUS float64
	Cycles     float64
}

// CriticalInterval is one extraction of the Li–Yao–Yuan loop, reported in
// the original (uncollapsed) timeline: the jobs of the critical set run at
// FreqMHz (before clamping) between StartUS and EndUS.
type CriticalInterval struct {
	StartUS, EndUS float64
	// FreqMHz is the interval's intensity g = cycles/width; the executed
	// frequency is max(FreqMHz, vr.FLo()).
	FreqMHz float64
	// Jobs are indices into the input slice, ascending.
	Jobs []int
}

// ExactSolution is the output of OptimizeContinuousExact.
type ExactSolution struct {
	// EnergyVC is the optimal energy in volts²·cycles.
	EnergyVC float64
	// FreqMHz[i] is job i's execution frequency after clamping to the
	// voltage range; VoltV[i] is the corresponding voltage.
	FreqMHz []float64
	VoltV   []float64
	// Intervals lists the critical intervals in extraction order, i.e. by
	// non-increasing intensity.
	Intervals []CriticalInterval
}

// validateJobs rejects malformed instances.
func validateJobs(jobs []Job) error {
	if len(jobs) == 0 {
		return fmt.Errorf("analytic: no jobs")
	}
	for i, j := range jobs {
		if !(j.Cycles >= 0) || math.IsInf(j.Cycles, 1) {
			return fmt.Errorf("analytic: job %d has invalid cycle demand %v", i, j.Cycles)
		}
		if !(j.ReleaseUS >= 0 && j.DeadlineUS > j.ReleaseUS) || math.IsInf(j.DeadlineUS, 1) {
			return fmt.Errorf("analytic: job %d has empty or unbounded window [%v, %v]", i, j.ReleaseUS, j.DeadlineUS)
		}
	}
	return nil
}

// OptimizeContinuousExact computes the provably optimal continuous voltage
// schedule for a multi-region instance via Li–Yao–Yuan critical-interval
// extraction. It returns ErrDeadlineInfeasible when some interval's
// intensity exceeds the fastest frequency of the range.
func OptimizeContinuousExact(jobs []Job, vr VRange) (*ExactSolution, error) {
	if err := validateJobs(jobs); err != nil {
		return nil, err
	}
	if err := vr.Validate(); err != nil {
		return nil, err
	}
	fLo, fHi := vr.FLo(), vr.FHi()

	type live struct {
		r, d   float64 // collapsed window
		cycles float64
		idx    int // original index
	}
	rem := make([]live, 0, len(jobs))
	for i, j := range jobs {
		rem = append(rem, live{r: j.ReleaseUS, d: j.DeadlineUS, cycles: j.Cycles, idx: i})
	}

	sol := &ExactSolution{
		FreqMHz: make([]float64, len(jobs)),
		VoltV:   make([]float64, len(jobs)),
	}
	// shift[i] tracks how much collapsed time precedes job i's critical
	// interval, so intervals can be reported in the original timeline.
	collapsed := 0.0

	for len(rem) > 0 {
		// Candidate endpoints: every remaining release (interval starts)
		// and every remaining deadline (interval ends).
		starts := make([]float64, 0, len(rem))
		ends := make([]float64, 0, len(rem))
		for _, j := range rem {
			starts = append(starts, j.r)
			ends = append(ends, j.d)
		}
		sort.Float64s(starts)
		sort.Float64s(ends)

		// Dense scan for the maximum-intensity interval. Ties break toward
		// the earliest, narrowest interval so extraction order — and
		// through it the reported schedule — is deterministic.
		bestG, bestA, bestB := -1.0, 0.0, 0.0
		for _, a := range starts {
			for _, b := range ends {
				if b <= a {
					continue
				}
				var work float64
				for _, j := range rem {
					if j.r >= a && j.d <= b {
						work += j.cycles
					}
				}
				g := work / (b - a)
				if g > bestG*(1+1e-12) {
					bestG, bestA, bestB = g, a, b
				}
			}
		}
		if bestG < 0 {
			// Cannot happen: every job's own window is a candidate.
			return nil, fmt.Errorf("analytic: no critical interval found")
		}

		if bestG > fHi*(1+1e-9) {
			// The critical set needs more speed than the range offers. Report
			// the shortfall in time units of the critical window.
			width := bestB - bestA
			return nil, &ErrDeadlineInfeasible{NeedUS: bestG / fHi * width, HaveUS: width}
		}

		f := math.Max(bestG, fLo)
		v := vr.Scaling.Voltage(f)

		ci := CriticalInterval{
			StartUS: bestA + collapsed,
			EndUS:   bestB + collapsed,
			FreqMHz: bestG,
		}
		width := bestB - bestA
		next := rem[:0]
		for _, j := range rem {
			if j.r >= bestA && j.d <= bestB {
				sol.FreqMHz[j.idx] = f
				sol.VoltV[j.idx] = v
				sol.EnergyVC += j.cycles * v * v
				ci.Jobs = append(ci.Jobs, j.idx)
				continue
			}
			// Collapse [a, b] to a point: φ(t) = t for t ≤ a, a for t in
			// [a, b], t − (b − a) for t ≥ b.
			if j.r > bestA {
				if j.r < bestB {
					j.r = bestA
				} else {
					j.r -= width
				}
			}
			if j.d > bestA {
				if j.d < bestB {
					j.d = bestA
				} else {
					j.d -= width
				}
			}
			next = append(next, j)
		}
		sort.Ints(ci.Jobs)
		sol.Intervals = append(sol.Intervals, ci)
		rem = next
		// Intervals extracted later sit in the collapsed timeline; restoring
		// the exact original offsets of later intervals would require
		// replaying the collapse history, so we track only the cumulative
		// collapsed width for a stable (if approximate) display position.
		collapsed += width
	}
	return sol, nil
}

// TwoPhaseJobs encodes a §3 parameter set as a Li–Yao–Yuan instance: the
// overlapped region's active cycles R1 = max(NOverlap, NCache) in the full
// window, and the dependent computation released once the frequency-
// invariant memory time has elapsed. Dropping the cache-stream coupling
// makes the encoding a relaxation of the §3 timing model, so
// OptimizeContinuousExact on these jobs never exceeds the §3 closed-form
// optimum — and matches it exactly when TInvariant is zero (a pure
// two-phase instance).
func TwoPhaseJobs(p Params) []Job {
	jobs := []Job{{ReleaseUS: 0, DeadlineUS: p.DeadlineUS, Cycles: p.R1()}}
	if p.NDependent > 0 {
		rel := math.Min(p.TInvariant, p.DeadlineUS*(1-1e-9))
		jobs = append(jobs, Job{ReleaseUS: rel, DeadlineUS: p.DeadlineUS, Cycles: p.NDependent})
	}
	return jobs
}

// AggregateClosedForm lumps an arbitrary instance into the paper's
// two-phase closed form: all cycles dependent, one global deadline, no
// memory invariance. Every schedule of the original instance finishes the
// aggregate work by the latest deadline, so the aggregate optimum is a
// lower bound on the exact continuous optimum — the loosest rung of the
// rigor ladder.
func AggregateClosedForm(jobs []Job, vr VRange) (*ContinuousSolution, error) {
	if err := validateJobs(jobs); err != nil {
		return nil, err
	}
	var cycles, dmax float64
	for _, j := range jobs {
		cycles += j.Cycles
		dmax = math.Max(dmax, j.DeadlineUS)
	}
	p := Params{NDependent: cycles, DeadlineUS: dmax}
	return OptimizeContinuous(p, vr)
}
