// Warm-started re-solves. A branch-and-bound child differs from its parent
// by one tightened variable bound, and bounds never enter the tableau: the
// parent's optimal basis B is still a valid (and dual-feasible) basis for the
// child, because reduced costs depend only on B and the objective. Restoring
// that basis and running a few dual simplex pivots to repair the primal
// infeasibility the moved bound introduced replaces a full phase-1 + phase-2
// solve. Whenever restoration or the dual phase cannot be completed cleanly,
// the solver falls back to the cold path, so warm-starting is purely an
// optimization and never changes what is returned beyond the choice among
// equally-optimal bases.
package lp

import "math"

// Basis is a compact snapshot of an optimal simplex basis: the set of basic
// columns (one per row) and the bound at which every nonbasic structural or
// slack column rests. It is immutable after creation and safe to share
// across goroutines; restoring it copies into per-solve state.
type Basis struct {
	n, m  int
	basis []int       // column basic in each row
	stat  []varStatus // status per structural+slack column
}

// WarmStart carries optional acceleration state into SolveBoundedWarm: a
// starting basis from a related solve and/or reusable scratch buffers.
// Either field may be nil.
type WarmStart struct {
	// Basis is the starting basis, typically Solution.Basis of a parent
	// solve of the same Problem under looser bounds.
	Basis *Basis
	// Scratch is the working storage to (re)use. One scratch per goroutine.
	Scratch *Scratch
}

// snapshot captures the current (optimal) basis. Rows whose basic column is
// an artificial (redundant constraints left over from phase 1, basic at
// zero) are recorded through the row's slack instead — the artificial column
// equals ±that slack column. When even that substitution is unavailable the
// snapshot is abandoned and nil is returned; callers then solve cold.
func (s *simplex) snapshot() *Basis {
	nm := s.n + s.m
	b := &Basis{n: s.n, m: s.m, basis: make([]int, s.m), stat: make([]varStatus, nm)}
	copy(b.stat, s.stat[:nm])
	for i := 0; i < s.m; i++ {
		col := s.basis[i]
		if col >= nm {
			// Artificial: find its home row (the row it was created for; it
			// may be basic in a different row after pivots) and substitute
			// that row's slack.
			home := -1
			for r := 0; r < s.m; r++ {
				if s.artOf[r] == col {
					home = r
					break
				}
			}
			if home < 0 {
				return nil
			}
			slack := s.n + home
			if b.stat[slack] == basic {
				return nil // slack already basic elsewhere; give up
			}
			col = slack
			b.stat[slack] = basic
		}
		b.basis[i] = col
	}
	return b
}

// restoreBasis rebuilds the tableau in the given basis: statuses are copied,
// the basis columns are eliminated to identity (slack basis columns pair
// with their home rows for free; structural basis columns are pivoted in
// with greedy partial pivoting), basic values are recomputed from the
// transformed right-hand side, and the reduced-cost row is rebuilt and
// checked for dual feasibility. It reports false when the basis does not fit
// the problem, a pivot would be numerically unsafe, or dual feasibility does
// not hold — the caller then falls back to a cold solve.
func (s *simplex) restoreBasis(b *Basis) bool {
	n, m := s.n, s.m
	if b == nil || b.n != n || b.m != m {
		return false
	}
	// Adopt statuses and validate them against the child bounds.
	nbasic := 0
	for j := 0; j < n+m; j++ {
		st := b.stat[j]
		switch st {
		case basic:
			nbasic++
		case atUpper:
			if math.IsInf(s.hi[j], 1) {
				return false // cannot rest at an infinite bound
			}
		}
		s.stat[j] = st
	}
	if nbasic != m {
		return false
	}

	// Columns the elimination must keep exact: everything that can move
	// (lo < hi), every basis column, and every frozen column resting at a
	// nonzero value (its contribution to xb is read after elimination).
	// Columns fixed at value zero stay stale and are never read.
	elim := ints(&s.scr.elim, 0, n+2*m)
	for j := 0; j < n+m; j++ {
		switch {
		case s.lo[j] < s.hi[j], b.stat[j] == basic:
			elim = append(elim, j)
		case b.stat[j] == atLower && s.lo[j] != 0:
			elim = append(elim, j)
		case b.stat[j] == atUpper && s.hi[j] != 0:
			elim = append(elim, j)
		}
	}

	// Slack basis columns pair with their home rows: a slack's raw column is
	// the home row's identity column, and no structural pivot below ever
	// introduces that slack into another row (pivot rows are never slack
	// homes, and only the home row carries the slack's nonzero). Rows left
	// over take the structural basis columns.
	taken := bools(&s.scr.taken, m)
	for i := range taken {
		taken[i] = false
	}
	for j := n; j < n+m; j++ {
		if b.stat[j] == basic {
			taken[j-n] = true
		}
	}
	const pivTol = 1e-8
	for j := 0; j < n; j++ {
		if b.stat[j] != basic {
			continue
		}
		// Greedy partial pivoting: the largest entry of column j among the
		// rows still unassigned. Nonsingularity of the basis guarantees a
		// nonzero exists in exact arithmetic; near-zero means the basis is
		// numerically unusable here.
		best, row := pivTol, -1
		for i := 0; i < m; i++ {
			if !taken[i] {
				if v := math.Abs(s.tab[i][j]); v > best {
					best, row = v, i
				}
			}
		}
		if row < 0 {
			return false
		}
		s.elimPivot(row, j, elim)
		taken[row] = true
		s.setBasic(row, j)
	}
	for i := 0; i < m; i++ {
		if b.stat[n+i] == basic {
			s.setBasic(i, n+i)
		}
	}
	// nbasic == m with disjoint slack-home and structural assignments means
	// every row now has exactly one basic column.

	// Basic values: xb = B⁻¹b − Σ_{nonbasic j} (B⁻¹A)_j · x_j.
	copy(s.xb, s.rhs)
	for _, j := range elim {
		if s.stat[j] == basic {
			continue
		}
		v := s.lo[j]
		if s.stat[j] == atUpper {
			v = s.hi[j]
		}
		if v == 0 {
			continue
		}
		for i := 0; i < m; i++ {
			if a := s.tab[i][j]; a != 0 {
				s.xb[i] -= a * v
			}
		}
	}

	// Reduced costs for the real objective; the parent's optimality makes
	// them dual feasible up to tolerance slop, which is what the dual phase
	// relies on.
	s.initCostRow(s.cost)
	const dualTol = 1e-7
	for _, j := range s.active {
		switch s.stat[j] {
		case atLower:
			if s.d[j] < -dualTol {
				return false
			}
		case atUpper:
			if s.d[j] > dualTol {
				return false
			}
		}
	}
	return true
}

// elimPivot is the restoration pivot: the same sparse row operations as
// pivot but over the elimination column set, with the right-hand side
// transformed alongside and no reduced-cost row yet.
func (s *simplex) elimPivot(r, enter int, elim []int) {
	if k := s.scr.kernel; k != nil {
		k.elimPivot(s, r, enter, elim)
		return
	}
	s.pivots++
	nz, inv := s.scaleRow(r, enter, elim)
	s.rhs[r] *= inv
	s.eliminate(r, enter, nz, s.rhs)
}

// dualSimplex repairs primal feasibility while preserving dual feasibility:
// each iteration picks the most-violated basic variable, drives it out at
// the bound it violates, and brings in the nonbasic column whose reduced
// cost survives the smallest dual ratio. With the objective unchanged from
// the parent solve this terminates in a handful of pivots for a single
// tightened bound. Returns Optimal when no row is violated, Infeasible when
// a violated row has no eligible entering column (a dual ray — the
// tightened problem has no feasible point), or IterationLimit when the
// degeneracy guard trips (callers fall back to a cold solve).
func (s *simplex) dualSimplex() Status {
	tol := s.opt.Tol
	maxIter := 4*(s.m+s.n) + 100
	for it := 0; ; it++ {
		if it >= maxIter || s.iters >= s.opt.MaxIters {
			return IterationLimit
		}
		// Leaving row: worst bound violation among basic variables.
		r, worst, below := -1, tol, false
		for i := 0; i < s.m; i++ {
			bvar := s.basis[i]
			if v := s.lo[bvar] - s.xb[i]; v > worst {
				worst, r, below = v, i, true
			}
			if v := s.xb[i] - s.hi[bvar]; v > worst {
				worst, r, below = v, i, false
			}
		}
		if r < 0 {
			return Optimal
		}
		s.iters++

		leave := s.basis[r]
		target := s.hi[leave]
		if below {
			target = s.lo[leave]
		}

		// Dual ratio test: θ = d[j]/t[r][j] must carry the sign that keeps
		// the leaving variable's new reduced cost feasible at the bound it
		// exits on; among eligible columns the smallest |θ| preserves dual
		// feasibility everywhere else. Ties prefer the larger pivot.
		row := s.tab[r]
		enter, bestRatio, bestA := -1, math.Inf(1), 0.0
		for _, j := range s.active {
			if s.stat[j] == basic {
				continue
			}
			a := row[j]
			if math.Abs(a) <= tol {
				continue
			}
			// Eligibility: moving j within its feasible direction must move
			// xb[r] toward the violated bound.
			if below {
				if !(s.stat[j] == atLower && a < 0 || s.stat[j] == atUpper && a > 0) {
					continue
				}
			} else {
				if !(s.stat[j] == atLower && a > 0 || s.stat[j] == atUpper && a < 0) {
					continue
				}
			}
			ratio := math.Abs(s.d[j]) / math.Abs(a)
			switch {
			case ratio < bestRatio-tol:
				enter, bestRatio, bestA = j, ratio, math.Abs(a)
			case ratio <= bestRatio+tol && math.Abs(a) > bestA:
				enter, bestA = j, math.Abs(a)
				if ratio < bestRatio {
					bestRatio = ratio
				}
			}
		}
		if enter < 0 {
			// No column can move xb[r] toward its bound: the transformed row
			// proves the tightened problem infeasible.
			return Infeasible
		}

		// Entering step so the leaving variable lands exactly on its bound.
		delta := (s.xb[r] - target) / row[enter]
		col := s.columnOf(enter)
		for i := 0; i < s.m; i++ {
			if i != r && col[i] != 0 {
				s.xb[i] -= delta * col[i]
			}
		}
		enterVal := s.value(enter) + delta
		if below {
			s.stat[leave] = atLower
		} else {
			s.stat[leave] = atUpper
		}
		s.basicRow[leave] = -1
		s.pivot(r, enter)
		s.setBasic(r, enter)
		s.xb[r] = enterVal
	}
}

// solveWarm runs the warm-started path: restore the basis, repair primal
// feasibility with dual simplex, then let the primal iteration confirm
// optimality (and mop up any residual reduced-cost slop). ok=false means the
// warm attempt was abandoned and the caller must solve cold; a non-nil
// solution with ok=true is final.
func (s *simplex) solveWarm(b *Basis) (*Solution, bool) {
	if !s.restoreBasis(b) {
		return nil, false
	}
	switch s.dualSimplex() {
	case Infeasible:
		return &Solution{Status: Infeasible, Pivots: s.pivots, Warm: true}, true
	case IterationLimit:
		return nil, false
	}
	s.bland = false
	switch s.iterate(s.cost) {
	case IterationLimit, Unbounded:
		// A bound tightening cannot unbound a bounded parent; treat both as
		// numerical trouble and fall back.
		return nil, false
	}
	sol := s.extractSolution()
	sol.Warm = true
	return sol, true
}
