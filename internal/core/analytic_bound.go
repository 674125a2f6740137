package core

import (
	"math"
	"sort"

	"ctdvs/internal/lp"
)

// This file builds the analytic dual bound the MILP search consults before
// paying for dual-simplex node solves (milp.Options.AnalyticBound). It is
// the discrete-mode counterpart of the Li–Yao–Yuan continuous optimum in
// internal/analytic: where the continuous backend minimizes over a smooth
// convex power curve, the bound here minimizes over the lower convex hull
// of each group's actual (time, energy) mode points — the continuous bound
// plus the discrete quantization gap, evaluated in closed form.
//
// The relaxation keeps, per deadline constraint, only the mode variables:
//
//	minimize   Σ_g e_g(m_g)         (the k-variable objective terms)
//	subject to Σ_g t_g(m_g) ≤ B     (one budget per category/core)
//
// with each group's choice relaxed onto the convex hull of its allowed
// (t, e) points. That separable convex program is solved by the classic
// fractional multiple-choice-knapsack greedy: start every group at its
// cheapest-energy point and buy back time along hull segments in order of
// increasing energy-per-microsecond until the budget holds. Transition
// objective terms are non-negative, so dropping them keeps the bound
// valid; for node boxes that force two adjacent groups onto disjoint mode
// sets, the minimum |ΔV²| transition cost over the allowed product is
// added back. Branch-and-bound overrides only ever touch mode binaries,
// so a node's box maps exactly onto per-group allowed-mode sets — and the
// bound holds for every integer point of the subtree, which is what lets
// the search discard a child before solving its LP.
//
// Categories either share every group (the multi-category single-program
// formulation: the bound is the max over per-category values) or partition
// them (the task-graph formulation, one budget per core: the per-core
// repairs add). Bound is a pure function of the override map and is called
// only from the branch-and-bound coordinator, so its scratch state needs
// no locking and solves stay bit-for-bit reproducible.

// abSeg is one hull segment: spending seg.dt more microseconds in group
// seg.group saves seg.rate energy per microsecond less — walked in
// increasing rate order by the repair greedy.
type abSeg struct {
	group int
	dt    float64
	rate  float64
}

// abSegs is a list of hull segments, sorted by (rate, group) with sort.Sort
// through a pointer, which allocates nothing.
type abSegs []abSeg

func (s abSegs) Len() int { return len(s) }
func (s abSegs) Less(i, j int) bool {
	if s[i].rate != s[j].rate {
		return s[i].rate < s[j].rate
	}
	return s[i].group < s[j].group
}
func (s abSegs) Swap(i, j int) { s[i], s[j] = s[j], s[i] }

// abHull summarizes one group's lower convex hull for one budget: the
// fastest allowed time (feasibility floor), the time at the cheapest-energy
// point and that cheapest energy. computeHull appends the hull's
// buy-time-back segments to a list the caller owns.
type abHull struct {
	minT, t0, eMin float64
}

// abCat is one budget constraint: scaled per-group per-mode times (nil for
// groups absent from the constraint) with the root-box hulls precomputed.
type abCat struct {
	budget   float64
	t        [][]float64
	root     []abHull
	rootSegs abSegs // all groups' segments merged, ascending (rate, group)
	rootT0   float64
	rootMinT float64
}

// abPair is a transition-priced adjacency: groups a and b are coupled by an
// |ΔV²| objective term with weight w (scaled objective units).
type abPair struct {
	a, b int
	w    float64
}

// analyticBounder evaluates the dual bound for arbitrary node boxes.
type analyticBounder struct {
	nm      int
	groups  int
	e       [][]float64 // per group per mode, scaled objective units
	eMin    []float64   // per group, min over all modes
	vsq     []float64   // per mode, V²
	cats    []abCat
	sumCats bool // disjoint per-core budgets add; shared-category budgets max
	pairs   []abPair
	pairsOf [][]int32

	base float64 // Σ_g eMin[g]

	// Per-call scratch. Bound is coordinator-only, so one set suffices, and
	// once it has grown a call allocates nothing.
	keys       []int
	restricted []int
	forced     []int
	masks      [][]bool
	slotOf     []int32 // group → index into restricted, -1 otherwise
	newSegs    abSegs
}

// abCatSpec is a constructor input: one budget with its per-group times.
type abCatSpec struct {
	budget float64
	t      [][]float64
}

func newAnalyticBounder(nm int, e [][]float64, vsq []float64, cats []abCatSpec, pairs []abPair, sumCats bool) *analyticBounder {
	ab := &analyticBounder{
		nm:      nm,
		groups:  len(e),
		e:       e,
		eMin:    make([]float64, len(e)),
		vsq:     vsq,
		sumCats: sumCats,
		pairs:   pairs,
		pairsOf: make([][]int32, len(e)),
		slotOf:  make([]int32, len(e)),
	}
	fullMask := make([]bool, nm)
	for m := range fullMask {
		fullMask[m] = true
	}
	for g := range e {
		ab.slotOf[g] = -1
		m := math.Inf(1)
		for _, v := range e[g] {
			m = math.Min(m, v)
		}
		ab.eMin[g] = m
		ab.base += m
	}
	for i, pr := range pairs {
		ab.pairsOf[pr.a] = append(ab.pairsOf[pr.a], int32(i))
		ab.pairsOf[pr.b] = append(ab.pairsOf[pr.b], int32(i))
	}
	for _, spec := range cats {
		cat := abCat{budget: spec.budget, t: spec.t, root: make([]abHull, len(e))}
		for g := range e {
			if spec.t[g] == nil {
				continue
			}
			h, segs, ok := computeHull(cat.rootSegs, g, spec.t[g], e[g], fullMask)
			if !ok {
				continue // unreachable: the full mask is never empty
			}
			cat.root[g] = h
			cat.rootT0 += h.t0
			cat.rootMinT += h.minT
			cat.rootSegs = segs
		}
		sort.Sort(&cat.rootSegs)
		ab.cats = append(ab.cats, cat)
	}
	return ab
}

// The merged segment lists are ordered by (rate, group). Rates are strictly
// increasing within a group (hull convexity), so per-group order — which
// the repair walk relies on — survives the sort. Two segments of one group
// whose rates round to the same value tie, and the repair sum depends on
// their order; sort.Sort keeps the order the pdqsort of sort.Slice gives
// (TestSegmentSortMatchesSortSlice), which the recorded solver results
// were computed with.

// computeHull builds the lower convex hull of a group's allowed (t, e)
// points and appends its segments, in descending-time order, to dst. ok is
// false when no mode is allowed.
func computeHull(dst abSegs, group int, t, e []float64, allowed []bool) (abHull, abSegs, bool) {
	type pt struct{ t, e float64 }
	var pts [13]pt // volt.ModeSet tops out at 13 levels
	n := 0
	for m := range t {
		if allowed[m] {
			pts[n] = pt{t[m], e[m]}
			n++
		}
	}
	if n == 0 {
		return abHull{}, dst, false
	}
	sub := pts[:n]
	// Insertion sort by (t, e). Equal keys are equal points, so any correct
	// sort yields the same sequence.
	for i := 1; i < n; i++ {
		p := sub[i]
		k := i
		for ; k > 0 && (sub[k-1].t > p.t || sub[k-1].t == p.t && sub[k-1].e > p.e); k-- {
			sub[k] = sub[k-1]
		}
		sub[k] = p
	}
	// Pareto staircase: keep strictly cheaper points as t grows …
	k := 0
	bestE := math.Inf(1)
	for _, p := range sub {
		if p.e < bestE {
			sub[k] = p
			k++
			bestE = p.e
		}
	}
	sub = sub[:k]
	// … then the convex lower hull: pop the middle point whenever slopes
	// stop increasing (collinear points pop too — same hull, fewer segs).
	h := 0
	for _, p := range sub {
		for h >= 2 {
			a, b := sub[h-2], sub[h-1]
			if (b.e-a.e)*(p.t-b.t) >= (p.e-b.e)*(b.t-a.t) {
				h--
			} else {
				break
			}
		}
		sub[h] = p
		h++
	}
	sub = sub[:h]

	out := abHull{minT: sub[0].t, t0: sub[h-1].t, eMin: sub[h-1].e}
	for k := h - 1; k >= 1; k-- {
		dt := sub[k].t - sub[k-1].t
		dst = append(dst, abSeg{
			group: group,
			dt:    dt,
			rate:  (sub[k-1].e - sub[k].e) / dt,
		})
	}
	return out, dst, true
}

// Bound is the milp.Options.AnalyticBound callback: a proven lower bound on
// the integer optimum of the subproblem whose boxes are the root bounds
// composed with ov (nil = the root box). +Inf means the box is provably
// integer-infeasible. The second return is always true: the bound exists
// for every box this formulation can produce.
func (ab *analyticBounder) Bound(ov map[int]lp.Bound) (float64, bool) {
	// Decode the override box into per-group allowed-mode masks. Only mode
	// binaries matter; overrides on continuous variables (none today) are
	// ignored, which can only loosen the bound, never invalidate it.
	ab.restricted = ab.restricted[:0]
	ab.forced = ab.forced[:0]
	nk := ab.groups * ab.nm
	infeasible := false
	// Map iteration order is randomized; sort the keys so every float sum
	// below happens in one fixed order and the bound is bit-reproducible.
	ab.keys = ab.keys[:0]
	for v := range ov {
		if v >= 0 && v < nk {
			ab.keys = append(ab.keys, v)
		}
	}
	sort.Ints(ab.keys)
	for _, v := range ab.keys {
		b := ov[v]
		g, m := v/ab.nm, v%ab.nm
		slot := ab.slotOf[g]
		if slot < 0 {
			slot = int32(len(ab.restricted))
			ab.slotOf[g] = slot
			ab.restricted = append(ab.restricted, g)
			ab.forced = append(ab.forced, -1)
			if int(slot) == len(ab.masks) {
				ab.masks = append(ab.masks, make([]bool, ab.nm))
			}
			for i := range ab.masks[slot] {
				ab.masks[slot][i] = true
			}
		}
		if b.Hi < 0.5 {
			ab.masks[slot][m] = false
		}
		if b.Lo > 0.5 {
			if f := ab.forced[slot]; f >= 0 && f != m {
				infeasible = true
			}
			ab.forced[slot] = m
		}
	}
	defer func() {
		for _, g := range ab.restricted {
			ab.slotOf[g] = -1
		}
	}()

	// Finalize masks: a forced mode excludes its siblings (the SOS1 row);
	// an empty mask means no mode fits the box.
	for slot := range ab.restricted {
		mask := ab.masks[slot]
		if f := ab.forced[slot]; f >= 0 {
			if !mask[f] {
				infeasible = true
			}
			for m := range mask {
				mask[m] = m == f
			}
		}
		any := false
		for m := range mask {
			any = any || mask[m]
		}
		if !any {
			infeasible = true
		}
	}
	if infeasible {
		return math.Inf(1), true
	}

	// Base energy: every group at its cheapest allowed mode.
	base := ab.base
	for slot, g := range ab.restricted {
		m := math.Inf(1)
		for mi, v := range ab.e[g] {
			if ab.masks[slot][mi] {
				m = math.Min(m, v)
			}
		}
		base += m - ab.eMin[g]
	}

	// Deadline repairs: per budget, buy time back along the cheapest hull
	// segments until the fastest feasible total fits.
	repairTotal := 0.0
	for ci := range ab.cats {
		cat := &ab.cats[ci]
		t0, minT := cat.rootT0, cat.rootMinT
		ab.newSegs = ab.newSegs[:0]
		for slot, g := range ab.restricted {
			if cat.t[g] == nil {
				continue
			}
			h, segs, ok := computeHull(ab.newSegs, g, cat.t[g], ab.e[g], ab.masks[slot])
			if !ok {
				return math.Inf(1), true
			}
			t0 += h.t0 - cat.root[g].t0
			minT += h.minT - cat.root[g].minT
			ab.newSegs = segs
		}
		if minT > cat.budget*(1+1e-9)+1e-12 {
			return math.Inf(1), true
		}
		repair := 0.0
		if need := t0 - cat.budget; need > 0 {
			sort.Sort(&ab.newSegs)
			repair = ab.walkRepair(cat.rootSegs, ab.newSegs, need)
		}
		if ab.sumCats {
			repairTotal += repair
		} else {
			repairTotal = math.Max(repairTotal, repair)
		}
	}

	// Transition floor: a pair of groups forced onto mode sets that share
	// no V² value must pay at least the cheapest |ΔV²| over the product.
	// Pairs with an unrestricted endpoint can always match voltages for
	// free, so only pairs with both endpoints restricted contribute.
	trans := 0.0
	for slot, g := range ab.restricted {
		for _, pi := range ab.pairsOf[g] {
			pr := ab.pairs[pi]
			if pr.a != g {
				continue // count each pair once, from its first endpoint
			}
			other := ab.slotOf[pr.b]
			if other < 0 {
				continue
			}
			best := math.Inf(1)
			for ma, okA := range ab.masks[slot] {
				if !okA {
					continue
				}
				for mb, okB := range ab.masks[other] {
					if okB {
						best = math.Min(best, math.Abs(ab.vsq[ma]-ab.vsq[mb]))
					}
				}
			}
			trans += pr.w * best
		}
	}

	return base + repairTotal + trans, true
}

// walkRepair consumes hull segments in ascending rate order — the root-box
// stream minus restricted groups, merged with the restricted groups' fresh
// segments — until need microseconds of time have been bought back, and
// returns the energy that cost. Running out of segments can only happen by
// float noise once minT fits the budget; the partial sum is still a valid
// lower bound.
func (ab *analyticBounder) walkRepair(rootSegs, extra []abSeg, need float64) float64 {
	cost := 0.0
	i, j := 0, 0
	for need > 1e-15 {
		for i < len(rootSegs) && ab.slotOf[rootSegs[i].group] >= 0 {
			i++
		}
		var s abSeg
		switch {
		case i < len(rootSegs) && (j >= len(extra) ||
			rootSegs[i].rate < extra[j].rate ||
			(rootSegs[i].rate == extra[j].rate && rootSegs[i].group <= extra[j].group)):
			s = rootSegs[i]
			i++
		case j < len(extra):
			s = extra[j]
			j++
		default:
			return cost
		}
		take := math.Min(s.dt, need)
		cost += take * s.rate
		need -= take
	}
	return cost
}
