package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ctdvs/internal/milp"
	"ctdvs/internal/volt"
)

// This file exposes Optimize's phases as explicit pipeline stages —
// Prepare → Filter → Formulate → Solve — so the pipeline layer can time and
// cache them independently: package exp keys solve artifacts off a Prepared
// value (canonical options, profile fingerprints) and records Filter/Formulate
// in the run manifest, while Optimize below remains the one-call composition.

// Prepared is the validated, canonical input of one optimization run: weights
// normalized to probabilities, the regulator and filter tail defaulted. Two
// Optimize calls with the same Prepared value produce the same schedule, which
// is what makes Prepared the right basis for cache keys.
type Prepared struct {
	Cats []Category
	Opts Options
}

// Prepare validates categories and options and canonicalizes them.
func Prepare(cats []Category, opts *Options) (*Prepared, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.Regulator == (volt.Regulator{}) {
		o.Regulator = volt.DefaultRegulator()
	}
	if err := o.Regulator.Validate(); err != nil {
		return nil, err
	}
	if o.FilterTail == 0 {
		o.FilterTail = 0.02
	}
	if len(cats) == 0 {
		return nil, errors.New("core: no categories")
	}
	for i, c := range cats {
		if c.Profile == nil {
			return nil, fmt.Errorf("core: category %d has nil profile", i)
		}
	}
	g := cats[0].Profile.Graph
	modes := cats[0].Profile.Modes
	wsum := 0.0
	for i, c := range cats {
		if c.Profile.Graph.NumEdges() != g.NumEdges() || c.Profile.Graph.NumBlocks != g.NumBlocks {
			return nil, fmt.Errorf("core: category %d profiles a different program", i)
		}
		if c.Profile.Modes.Len() != modes.Len() {
			return nil, fmt.Errorf("core: category %d uses a different mode set", i)
		}
		if !(c.Weight > 0) || math.IsInf(c.Weight, 1) {
			return nil, fmt.Errorf("core: category %d has weight %v, want positive and finite", i, c.Weight)
		}
		if !(c.DeadlineUS > 0) || math.IsInf(c.DeadlineUS, 1) {
			return nil, fmt.Errorf("core: category %d has deadline %v µs, want positive and finite", i, c.DeadlineUS)
		}
		wsum += c.Weight
	}
	norm := make([]Category, len(cats))
	copy(norm, cats)
	for i := range norm {
		norm[i].Weight /= wsum
	}
	return &Prepared{Cats: norm, Opts: o}, nil
}

// Grouping is the output of the filter stage: the union-find partition of
// edges into independent mode-decision groups (paper Section 5.2).
type Grouping struct {
	uf *unionFind
	// IndependentEdges is the number of groups with their own mode variables;
	// TotalEdges counts all control-flow edges (incl. the virtual entry).
	IndependentEdges int
	TotalEdges       int
}

// Filter runs the edge-filtering stage selected by the options: block-based
// grouping, an explicit keep-set, or the cumulative-energy tail filter.
func (p *Prepared) Filter() *Grouping {
	var uf *unionFind
	switch {
	case p.Opts.BlockBased:
		uf = blockBasedGroups(p.Cats[0].Profile)
	case p.Opts.KeepIndependent != nil:
		uf = filterKeep(p.Cats, p.Opts.KeepIndependent)
	default:
		uf = filterEdges(p.Cats, p.Opts.FilterTail)
	}
	return &Grouping{
		uf:               uf,
		IndependentEdges: uf.groups(),
		TotalEdges:       p.Cats[0].Profile.Graph.NumEdges(),
	}
}

// Formulation is the output of the formulate stage: the MILP ready to solve.
type Formulation struct {
	prep *Prepared
	f    *formulation
}

// Formulate builds the MILP over the given edge grouping.
func (p *Prepared) Formulate(g *Grouping) *Formulation {
	return &Formulation{
		prep: p,
		f:    buildFormulation(p.Cats, p.Cats[0].Profile.Modes, g.uf, p.Opts),
	}
}

// Solve runs branch-and-bound and extracts the schedule and predictions.
func (fm *Formulation) Solve() (*Result, error) {
	return fm.SolveContext(context.Background())
}

// SolveContext is Solve under a context: a cancelled context aborts the
// branch-and-bound search and surfaces ctx's error (never a partial result),
// so a disconnected client stops burning solver time.
func (fm *Formulation) SolveContext(ctx context.Context) (*Result, error) {
	// Hand the search the formulation's analytic dual bound (a copy of the
	// caller's options, so shared Options values are never mutated) unless
	// the caller brought its own; a callback that always declines switches
	// the bound off.
	mo := milp.Options{}
	if fm.prep.Opts.MILP != nil {
		mo = *fm.prep.Opts.MILP
	}
	if mo.AnalyticBound == nil {
		mo.AnalyticBound = fm.f.bounder.Bound
	}
	res, err := milp.SolveContext(ctx, fm.f.problem, &mo)
	if err != nil {
		return nil, err
	}
	switch res.Status {
	case milp.Optimal, milp.Feasible:
	case milp.Infeasible:
		return nil, ErrInfeasible
	default:
		return nil, fmt.Errorf("core: solver stopped with status %v and no incumbent", res.Status)
	}
	return fm.f.extract(res, fm.prep.Cats, fm.prep.Opts)
}
