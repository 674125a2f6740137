// Package core implements the paper's primary contribution: a profile-driven
// mixed-integer linear program that chooses compile-time DVS mode settings on
// control-flow-graph edges so program energy is minimized subject to a
// deadline (paper Sections 4 and 5).
//
// The formulation extends Saputra et al.'s loop-nest ILP with:
//
//   - mode-transition energy and time costs (Burd–Brodersen regulator model),
//     linearized with the paper's absolute-value trick;
//   - edge-grained control: a mode decision per control-flow edge, so a block
//     may run at different settings depending on its entry path;
//   - multiple input-data categories: the objective is the weighted average
//     energy over categories, with a deadline constraint per category;
//   - the 2 %-energy-tail edge filtering of Section 5.2, which collapses
//     cold edges onto their source block's hottest incoming edge and brings
//     MILP solve times from hours to seconds at essentially no energy cost.
//
// Decision variables are binary k_ijm ("edge (i,j) sets mode m", one per
// independent edge group and mode, with Σ_m k_ijm = 1) plus continuous
// e/t variables bounding |V²| and |V| differences across local paths
// (h → i → j). See DESIGN.md for the experiment index this package drives.
package core

import (
	"errors"
	"math"
	"sort"

	"ctdvs/internal/cfg"
	"ctdvs/internal/lp"
	"ctdvs/internal/milp"
	"ctdvs/internal/profile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
)

// Category couples one input-data category's profile with its weight
// (the paper's p_g, the probability of seeing inputs of this category) and
// its deadline.
type Category struct {
	Profile    *profile.Profile
	Weight     float64
	DeadlineUS float64
}

// Options tunes the optimizer. The zero value uses the paper's defaults:
// transition costs on, 2 % filtering, the default regulator.
type Options struct {
	// Regulator prices transitions; zero value selects volt.DefaultRegulator.
	Regulator volt.Regulator
	// FilterTail is the cumulative-energy fraction below which edges lose
	// independent mode variables. Negative disables filtering; 0 selects the
	// paper's 0.02.
	FilterTail float64
	// NoTransitionCosts drops the e/t terms from the formulation (Saputra
	// et al.'s model); the simulator still charges real transition costs
	// when the resulting schedule runs. Ablation only.
	NoTransitionCosts bool
	// BlockBased collapses each block's incoming edges to one decision,
	// reducing the formulation to block (region) granularity. Ablation only.
	BlockBased bool
	// KeepIndependent, when non-nil, replaces tail filtering with an
	// explicit policy: exactly these edges (plus the virtual entry edge and
	// any aliasing-chain roots) keep independent mode variables; all other
	// edges follow their source block's hottest incoming edge. Package exp
	// derives keep-sets from Ball–Larus hot-path coverage.
	KeepIndependent map[cfg.Edge]bool
	// MILP tunes the branch-and-bound search.
	MILP *milp.Options
}

// Result is the outcome of an optimization.
type Result struct {
	// Schedule is the mode-set placement to execute (nil if infeasible).
	Schedule *sim.Schedule
	// PredictedEnergyUJ is the objective value: weighted average program
	// energy including predicted transition energies.
	PredictedEnergyUJ float64
	// PredictedTimeUS is the predicted execution time per category,
	// including predicted transition times.
	PredictedTimeUS []float64
	// IndependentEdges is the number of edge groups with their own mode
	// variables (equals TotalEdges when filtering is off).
	IndependentEdges int
	// TotalEdges is the number of control-flow edges (incl. virtual entry).
	TotalEdges int
	// Solver reports branch-and-bound statistics.
	Solver *milp.Result
}

// ErrInfeasible reports that no mode assignment meets the deadline(s).
var ErrInfeasible = errors.New("core: no schedule meets the deadline")

// Optimize builds and solves the MILP for the given categories and returns
// the optimal compile-time DVS schedule. It is the one-call composition of
// the staged API in stages.go: Prepare → Filter → Formulate → Solve.
func Optimize(cats []Category, opts *Options) (*Result, error) {
	prep, err := Prepare(cats, opts)
	if err != nil {
		return nil, err
	}
	return prep.Formulate(prep.Filter()).Solve()
}

// OptimizeSingle is Optimize for the common single-profile case.
func OptimizeSingle(pr *profile.Profile, deadlineUS float64, opts *Options) (*Result, error) {
	return Optimize([]Category{{Profile: pr, Weight: 1, DeadlineUS: deadlineUS}}, opts)
}

// formulation carries the variable layout of one MILP build.
type formulation struct {
	problem *milp.Problem
	modes   *volt.ModeSet
	graph   *cfg.Graph
	uf      *unionFind

	// kvar[root] = first variable index of that group's mode binaries
	// (modes.Len() consecutive variables).
	kvar map[int]int
	// evar/tvar per unordered group pair.
	evar map[[2]int]int
	tvar map[[2]int]int
	// pathD[pair][cat] aggregates D_hij per category for that group pair.
	pathD map[[2]int][]float64
	// pairs lists pathD's keys in ascending (group index, group index)
	// order, the order in which every sum over pairs runs, so that sums are
	// bit-identical run to run (pathD and evar are maps).
	pairs [][2]int

	energyScale float64 // objective was divided by this
	timeScale   []float64

	// bounder evaluates the analytic dual bound for branch-and-bound node
	// boxes (see analytic_bound.go); Solve wires it into milp.Options.
	bounder *analyticBounder
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func buildFormulation(cats []Category, modes *volt.ModeSet, uf *unionFind, o Options) *formulation {
	g := cats[0].Profile.Graph
	nm := modes.Len()
	f := &formulation{
		problem: &milp.Problem{LP: lp.NewProblem()},
		modes:   modes,
		graph:   g,
		uf:      uf,
		kvar:    make(map[int]int),
		evar:    make(map[[2]int]int),
		tvar:    make(map[[2]int]int),
		pathD:   make(map[[2]int][]float64),
	}
	p := f.problem.LP

	// Aggregate weighted edge energies and per-category edge times per group.
	// groupE[root][m] — objective coefficients; groupT[cat][root][m].
	groupE := make(map[int][]float64)
	groupT := make([]map[int][]float64, len(cats))
	for ci := range cats {
		groupT[ci] = make(map[int][]float64)
	}
	for e := 0; e < g.NumEdges(); e++ {
		root := uf.find(e)
		dst := g.Edges[e].To
		if groupE[root] == nil {
			groupE[root] = make([]float64, nm)
		}
		for ci, c := range cats {
			gcount := float64(c.Profile.EdgeCounts[e])
			if gcount == 0 {
				continue
			}
			if groupT[ci][root] == nil {
				groupT[ci][root] = make([]float64, nm)
			}
			for m := 0; m < nm; m++ {
				groupE[root][m] += c.Weight * gcount * c.Profile.EnergyUJ[dst][m]
				groupT[ci][root][m] += gcount * c.Profile.TimeUS[dst][m]
			}
		}
	}

	// Scaling for conditioning: energies by the weighted fastest-mode
	// program energy, times by each category's deadline.
	f.energyScale = 0
	for _, c := range cats {
		f.energyScale += c.Weight * c.Profile.TotalEnergyUJ[nm-1]
	}
	if f.energyScale <= 0 {
		f.energyScale = 1
	}
	f.timeScale = make([]float64, len(cats))
	for ci, c := range cats {
		f.timeScale[ci] = c.DeadlineUS
	}

	// Mode binaries per group, with SOS1 rows.
	var sos [][]int
	var ints []int
	for e := 0; e < g.NumEdges(); e++ {
		root := uf.find(e)
		if _, ok := f.kvar[root]; !ok {
			base := -1
			row := make([]lp.Term, nm)
			group := make([]int, nm)
			for m := 0; m < nm; m++ {
				v := p.AddVariable(groupE[root][m]/f.energyScale, 0, 1)
				if m == 0 {
					base = v
				}
				row[m] = lp.Term{Var: v, Coef: 1}
				group[m] = v
				ints = append(ints, v)
			}
			p.MustAddConstraint(row, lp.EQ, 1)
			f.kvar[root] = base
			sos = append(sos, group)
		}
	}
	f.problem.Integers = ints
	f.problem.SOS1 = sos

	// Transition variables per unordered group pair with any path traffic.
	vmax, vmin := modes.Max().V, modes.Min().V
	eHi := vmax*vmax - vmin*vmin
	tHi := vmax - vmin
	for pi, path := range g.Paths {
		gin := uf.find(g.EdgeID(path.InEdge()))
		gout := uf.find(g.EdgeID(path.OutEdge()))
		if gin == gout {
			continue
		}
		// Paths never traversed in any category contribute nothing to
		// energy or time; give them no transition variables.
		traversed := false
		for _, c := range cats {
			if c.Profile.PathCounts[pi] > 0 {
				traversed = true
				break
			}
		}
		if !traversed {
			continue
		}
		key := pairKey(gin, gout)
		if f.pathD[key] == nil {
			f.pathD[key] = make([]float64, len(cats))
		}
		for ci, c := range cats {
			f.pathD[key][ci] += float64(c.Profile.PathCounts[pi])
		}
		if o.NoTransitionCosts {
			continue
		}
		if _, ok := f.evar[key]; !ok {
			ev := p.AddVariable(0, 0, eHi) // objective set below
			tv := p.AddVariable(0, 0, tHi)
			f.evar[key] = ev
			f.tvar[key] = tv
			// |Σ_m k_am·Vm² − Σ_m k_bm·Vm²| ≤ e, same with Vm for t.
			addAbs(p, f.kvar[key[0]], f.kvar[key[1]], nm, func(m int) float64 {
				vm := modes.Mode(m).V
				return vm * vm
			}, ev)
			addAbs(p, f.kvar[key[0]], f.kvar[key[1]], nm, func(m int) float64 {
				return modes.Mode(m).V
			}, tv)
		}
	}

	f.pairs = make([][2]int, 0, len(f.pathD))
	for key := range f.pathD {
		f.pairs = append(f.pairs, key)
	}
	sort.Slice(f.pairs, func(i, j int) bool {
		a, b := f.pairs[i], f.pairs[j]
		if f.kvar[a[0]] != f.kvar[b[0]] {
			return f.kvar[a[0]] < f.kvar[b[0]]
		}
		return f.kvar[a[1]] < f.kvar[b[1]]
	})

	// Transition objective coefficients: CE · Σ_g p_g · D (skipped entirely
	// in the no-transition-cost ablation).
	if !o.NoTransitionCosts {
		ce := o.Regulator.CE()
		for key, ev := range f.evar {
			wd := 0.0
			for ci, c := range cats {
				wd += c.Weight * f.pathD[key][ci]
			}
			p.SetObjective(ev, ce*wd/f.energyScale)
		}
	}

	// Deadline constraint per category.
	ct := o.Regulator.CT()
	for ci, c := range cats {
		var terms []lp.Term
		for root, times := range groupT[ci] {
			base := f.kvar[root]
			for m := 0; m < nm; m++ {
				if times[m] != 0 {
					terms = append(terms, lp.Term{Var: base + m, Coef: times[m] / f.timeScale[ci]})
				}
			}
		}
		if !o.NoTransitionCosts {
			for key, tv := range f.tvar {
				if d := f.pathD[key][ci]; d > 0 {
					terms = append(terms, lp.Term{Var: tv, Coef: ct * d / f.timeScale[ci]})
				}
			}
		}
		p.MustAddConstraint(terms, lp.LE, c.DeadlineUS/f.timeScale[ci])
	}

	// Analytic dual bound data: the same coefficients the LP rows carry,
	// laid out densely. Mode binaries are the first G·nm variables in group
	// creation order, so group g's block starts at variable g·nm and the
	// dense index of a union-find root is kvar[root]/nm.
	numGroups := len(f.kvar)
	be := make([][]float64, numGroups)
	for root, base := range f.kvar {
		em := make([]float64, nm)
		for m := 0; m < nm; m++ {
			em[m] = groupE[root][m] / f.energyScale
		}
		be[base/nm] = em
	}
	vsq := make([]float64, nm)
	for m := 0; m < nm; m++ {
		v := modes.Mode(m).V
		vsq[m] = v * v
	}
	specs := make([]abCatSpec, len(cats))
	for ci, c := range cats {
		bt := make([][]float64, numGroups)
		for root, times := range groupT[ci] {
			tm := make([]float64, nm)
			for m := 0; m < nm; m++ {
				tm[m] = times[m] / f.timeScale[ci]
			}
			bt[f.kvar[root]/nm] = tm
		}
		specs[ci] = abCatSpec{budget: c.DeadlineUS / f.timeScale[ci], t: bt}
	}
	var pairs []abPair
	if !o.NoTransitionCosts {
		// Every pair with path traffic has transition variables, so the
		// bound's pairs are f.pairs, in f.pairs' order.
		ce := o.Regulator.CE()
		for _, key := range f.pairs {
			wd := 0.0
			for ci, c := range cats {
				wd += c.Weight * f.pathD[key][ci]
			}
			pairs = append(pairs, abPair{
				a: f.kvar[key[0]] / nm,
				b: f.kvar[key[1]] / nm,
				w: ce * wd / f.energyScale,
			})
		}
	}
	f.bounder = newAnalyticBounder(nm, be, vsq, specs, pairs, false)

	return f
}

// addAbs emits the two rows −e ≤ Σ_m w(m)(k_am − k_bm) ≤ e.
func addAbs(p *lp.Problem, baseA, baseB, nm int, w func(int) float64, e int) {
	terms := make([]lp.Term, 0, 2*nm+1)
	for m := 0; m < nm; m++ {
		terms = append(terms,
			lp.Term{Var: baseA + m, Coef: w(m)},
			lp.Term{Var: baseB + m, Coef: -w(m)})
	}
	upper := append(append([]lp.Term(nil), terms...), lp.Term{Var: e, Coef: -1})
	p.MustAddConstraint(upper, lp.LE, 0)
	lower := append(terms, lp.Term{Var: e, Coef: 1})
	p.MustAddConstraint(lower, lp.GE, 0)
}

// extract converts a solver incumbent into a Schedule and predictions.
func (f *formulation) extract(res *milp.Result, cats []Category, o Options) (*Result, error) {
	g := f.graph
	nm := f.modes.Len()
	assign := make(map[cfg.Edge]int, g.NumEdges())
	groupMode := make(map[int]int)
	for root, base := range f.kvar {
		best, bestV := 0, -1.0
		for m := 0; m < nm; m++ {
			if v := res.X[base+m]; v > bestV {
				best, bestV = m, v
			}
		}
		groupMode[root] = best
	}
	for e := 0; e < g.NumEdges(); e++ {
		assign[g.Edges[e]] = groupMode[f.uf.find(e)]
	}
	entryMode := assign[cfg.Edge{From: cfg.Entry, To: 0}]

	out := &Result{
		Schedule: &sim.Schedule{
			Modes:      f.modes,
			Assignment: assign,
			Initial:    entryMode,
			Regulator:  o.Regulator,
		},
		PredictedEnergyUJ: res.Objective * f.energyScale,
		PredictedTimeUS:   make([]float64, len(cats)),
		IndependentEdges:  f.uf.groups(),
		TotalEdges:        g.NumEdges(),
		Solver:            res,
	}

	// Predicted per-category times: recompute from the incumbent.
	ct := o.Regulator.CT()
	for ci, c := range cats {
		t := 0.0
		for e := 0; e < g.NumEdges(); e++ {
			dst := g.Edges[e].To
			m := groupMode[f.uf.find(e)]
			t += float64(c.Profile.EdgeCounts[e]) * c.Profile.TimeUS[dst][m]
		}
		for _, key := range f.pairs {
			d := f.pathD[key]
			if d[ci] == 0 {
				continue
			}
			va := f.modes.Mode(groupMode[key[0]]).V
			vb := f.modes.Mode(groupMode[key[1]]).V
			t += ct * d[ci] * math.Abs(va-vb)
		}
		out.PredictedTimeUS[ci] = t
	}
	return out, nil
}
