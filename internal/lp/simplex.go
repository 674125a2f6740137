package lp

import "math"

// varStatus records where a nonbasic variable currently rests.
type varStatus int8

const (
	atLower varStatus = iota
	atUpper
	basic
)

// simplex is the working state of one solve: a dense tableau whose rows have
// been transformed so that the basic columns form an identity, a reduced-cost
// row maintained by the same pivots, and the current values of the basic
// variables. It lives in the Scratch, which every solve reuses.
type simplex struct {
	opt Options
	scr *Scratch

	n     int // structural variables
	m     int // rows
	ncols int // structural + slacks + artificials

	lo, hi []float64 // bounds per column
	cost   []float64 // phase-2 cost per column (artificials 0)

	tab      [][]float64 // m rows × ncols, kept as B⁻¹A
	rhs      []float64   // unused after cold init; warm restore keeps B⁻¹b here
	d        []float64   // reduced-cost row for the active phase
	xb       []float64   // value of the basic variable of each row
	basis    []int       // column basic in each row
	basicRow []int       // row in which a column is basic, -1 otherwise
	stat     []varStatus // per-column status

	nart  int   // number of artificial columns
	artOf []int // artificial column index per row, -1 if none

	// active lists the columns that can change value (lo < hi) in the
	// current phase; frozen columns — variables fixed by branch-and-bound
	// and artificials frozen after phase 1 — are skipped by the pivot and
	// cost-row loops. A frozen column's tableau entries go stale, which is
	// safe because no loop reads them: pricing and the ratio test only
	// touch active columns, and basic columns are implicit identity.
	active []int

	iters  int
	pivots int  // tableau pivot operations (all phases, incl. basis restore)
	bland  bool // anti-cycling mode
}

// newSimplex builds the per-solve working state, in the scratch, from the
// scratch's raw-row template (a memcpy per row; the caller has made it
// current with ensureTemplate) and the solve's effective bounds. The
// returned state has no basis yet: cold solves call initColdBasis, warm
// solves call restoreBasis.
//
// Column layout: [0,n) structural, [n, n+m) slacks, artificials appended
// after construction for rows whose slack start is infeasible. GE rows are
// normalized to LE by negation so every slack has bounds [0, +inf) (or [0,0]
// for equalities).
func newSimplex(p *Problem, o Options, overrides map[int]Bound, sc *Scratch) *simplex {
	n, m := sc.n, sc.m
	s := &sc.sx
	*s = simplex{opt: o, scr: sc, n: n, m: m}

	nmax := n + 2*m // artificials never exceed one per row
	s.lo = f64(&sc.lo, n+m, nmax)
	s.hi = f64(&sc.hi, n+m, nmax)
	s.cost = f64(&sc.cost, n+m, nmax)
	copy(s.lo, p.lo)
	copy(s.hi, p.hi)
	copy(s.cost, p.obj)
	for i := 0; i < m; i++ {
		s.lo[n+i] = 0
		s.hi[n+i] = sc.slackHi[i]
		s.cost[n+i] = 0
	}
	for v, b := range overrides {
		s.lo[v], s.hi[v] = b.Lo, b.Hi
	}

	// Working tableau rows slice the scratch slab with artificial headroom;
	// append in addArtificial stays inside the slab.
	w := n + m
	sc.slab = growF(sc.slab, m*nmax)
	if cap(sc.rows) < m {
		sc.rows = make([][]float64, m)
	}
	s.tab = sc.rows[:m]
	for i := 0; i < m; i++ {
		row := sc.slab[i*nmax : i*nmax+w : (i+1)*nmax]
		copy(row, sc.tslab[i*w:(i+1)*w])
		s.tab[i] = row
	}
	s.rhs = f64(&sc.rhs, m, m)
	copy(s.rhs, sc.trhs)

	s.stat = stats(&sc.stat, n+m, nmax)
	for j := 0; j < n+m; j++ {
		s.stat[j] = atLower
	}
	s.basis = ints(&sc.basis, m, m)
	s.basicRow = ints(&sc.basicRow, n+m, nmax)
	for j := range s.basicRow {
		s.basicRow[j] = -1
	}
	s.xb = f64(&sc.xb, m, m)
	s.artOf = ints(&sc.artOf, m, m)
	s.active = ints(&sc.active, 0, nmax)
	sc.nz = ints(&sc.nz, 0, nmax)
	return s
}

// initColdBasis starts all structural variables at their (finite) lower
// bound and computes row residuals to decide which rows need an artificial
// basic — the classical phase-1 starting point.
func (s *simplex) initColdBasis() {
	n, m := s.n, s.m
	for i := 0; i < m; i++ {
		r := s.rhs[i]
		for j := 0; j < n; j++ {
			if s.tab[i][j] != 0 {
				r -= s.tab[i][j] * s.lo[j]
			}
		}
		s.artOf[i] = -1
		slack := n + i
		if r >= 0 && r <= s.hi[slack] {
			// Slack basic with feasible value.
			s.setBasic(i, slack)
			s.xb[i] = r
			continue
		}
		// Need an artificial with coefficient sign(r) so its value is |r|.
		art := s.addArtificial(i, r)
		s.setBasic(i, art)
		s.xb[i] = math.Abs(r)
	}
}

// setBasic records column j as the basic variable of row i.
func (s *simplex) setBasic(i, j int) {
	s.basis[i] = j
	s.basicRow[j] = i
	s.stat[j] = basic
}

// addArtificial appends an artificial column for row i with residual r and
// rescales row i so the artificial's tableau coefficient is +1.
func (s *simplex) addArtificial(i int, r float64) int {
	col := s.ncolsTotal()
	s.nart++
	s.lo = append(s.lo, 0)
	s.hi = append(s.hi, math.Inf(1))
	s.cost = append(s.cost, 0)
	s.stat = append(s.stat, atLower)
	s.basicRow = append(s.basicRow, -1)
	for k := range s.tab {
		s.tab[k] = append(s.tab[k], 0)
	}
	if r < 0 {
		// Scale the row by -1 so the artificial enters with +1 and the
		// basis stays an identity over the basic columns.
		for j := range s.tab[i] {
			s.tab[i][j] = -s.tab[i][j]
		}
	}
	s.tab[i][col] = 1
	s.artOf[i] = col
	return col
}

func (s *simplex) ncolsTotal() int { return s.n + s.m + s.nart }

// value returns the current value of column j.
func (s *simplex) value(j int) float64 {
	switch s.stat[j] {
	case atLower:
		return s.lo[j]
	case atUpper:
		return s.hi[j]
	}
	return s.xb[s.basicRow[j]]
}

// initCostRow computes the reduced-cost row d = c − c_B·T for the cost
// vector c (phase 1 or phase 2) and rebuilds the active-column list.
func (s *simplex) initCostRow(c []float64) {
	nc := s.ncolsTotal()
	s.active = s.active[:0]
	for j := 0; j < nc; j++ {
		if s.lo[j] < s.hi[j] {
			s.active = append(s.active, j)
		}
	}
	s.d = f64(&s.scr.d, nc, s.n+2*s.m)
	copy(s.d, c)
	for i := 0; i < s.m; i++ {
		cb := c[s.basis[i]]
		if cb == 0 {
			continue
		}
		row := s.tab[i]
		for _, j := range s.active {
			s.d[j] -= cb * row[j]
		}
	}
	// Basic columns must read exactly zero.
	for _, b := range s.basis {
		s.d[b] = 0
	}
}

// solve runs phase 1 (if artificials were needed) and phase 2.
func (s *simplex) solve() (*Solution, error) {
	tol := s.opt.Tol
	if s.nart > 0 {
		phase1 := f64(&s.scr.phase1, s.ncolsTotal(), s.n+2*s.m)
		for j := range phase1 {
			phase1[j] = 0
		}
		for i := 0; i < s.m; i++ {
			if a := s.artOf[i]; a >= 0 {
				phase1[a] = 1
			}
		}
		s.initCostRow(phase1)
		st := s.iterate(phase1)
		if st == IterationLimit {
			return &Solution{Status: IterationLimit, Pivots: s.pivots}, nil
		}
		// Total infeasibility = sum of artificial values.
		infeas := 0.0
		for i := 0; i < s.m; i++ {
			if a := s.artOf[i]; a >= 0 {
				infeas += s.value(a)
			}
		}
		if infeas > 1e-7 {
			return &Solution{Status: Infeasible, Pivots: s.pivots}, nil
		}
		s.evictArtificials(tol)
		// Freeze artificials at zero for phase 2.
		for i := 0; i < s.m; i++ {
			if a := s.artOf[i]; a >= 0 {
				s.hi[a] = 0
			}
		}
	}

	s.initCostRow(s.cost)
	s.bland = false
	st := s.iterate(s.cost)
	switch st {
	case IterationLimit:
		return &Solution{Status: IterationLimit, Pivots: s.pivots}, nil
	case Unbounded:
		return &Solution{Status: Unbounded, Pivots: s.pivots}, nil
	}
	return s.extractSolution(), nil
}

// extractSolution reads the optimal point out of the final tableau and
// snapshots the basis for warm-starting related solves.
func (s *simplex) extractSolution() *Solution {
	x := make([]float64, s.n)
	for j := 0; j < s.n; j++ {
		x[j] = s.value(j)
	}
	obj := 0.0
	for j := 0; j < s.n; j++ {
		obj += s.cost[j] * x[j]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj, Pivots: s.pivots, Basis: s.snapshot()}
}

// evictArtificials pivots basic artificials (necessarily at value ~0 after a
// feasible phase 1) out of the basis where possible. Rows whose non-artificial
// entries are all zero are redundant constraints; their artificials stay
// basic at zero and are frozen by the [0,0] bounds.
func (s *simplex) evictArtificials(tol float64) {
	for k := 0; k < s.m; k++ {
		a := s.artOf[k]
		if a < 0 || s.stat[a] != basic {
			continue
		}
		i := s.basicRow[a] // the row the artificial currently occupies
		row := s.tab[i]
		pivot := -1
		best := tol
		for j := 0; j < s.n+s.m; j++ {
			if s.stat[j] == basic || s.lo[j] == s.hi[j] {
				continue
			}
			if v := math.Abs(row[j]); v > best {
				best = v
				pivot = j
			}
		}
		if pivot < 0 {
			continue
		}
		// Degenerate pivot: the artificial leaves at value 0, the entering
		// variable stays at its current bound value.
		enterVal := s.value(pivot)
		s.pivot(i, pivot)
		s.stat[a] = atLower
		s.basicRow[a] = -1
		s.setBasic(i, pivot)
		s.xb[i] = enterVal
	}
}

// iterate runs primal simplex iterations for the active cost row until
// optimality, unboundedness, or the iteration limit.
func (s *simplex) iterate(c []float64) Status {
	tol := s.opt.Tol
	stall := 0
	lastObj := math.Inf(1)
	for {
		if s.iters >= s.opt.MaxIters {
			return IterationLimit
		}
		s.iters++

		enter, dir := s.price(tol)
		if enter < 0 {
			return Optimal
		}

		leaveRow, limit, flip := s.ratioTest(enter, dir, tol)
		if math.IsInf(limit, 1) {
			return Unbounded
		}

		if flip {
			// The entering variable traverses its whole range and rests at
			// the opposite bound; the basis is unchanged.
			col := s.columnOf(enter)
			for i := 0; i < s.m; i++ {
				if col[i] != 0 {
					s.xb[i] -= limit * float64(dir) * col[i]
				}
			}
			if dir > 0 {
				s.stat[enter] = atUpper
			} else {
				s.stat[enter] = atLower
			}
		} else {
			s.step(enter, dir, leaveRow, limit)
		}

		// Anti-cycling: if the phase objective has not improved for a long
		// run of (necessarily degenerate) iterations, fall back to Bland's
		// rule, which guarantees termination.
		if obj := s.phaseObjective(c); obj < lastObj-tol {
			lastObj = obj
			stall = 0
			s.bland = false
		} else {
			stall++
			if stall > 2*(s.m+s.n) {
				s.bland = true
			}
		}
	}
}

// phaseObjective evaluates the active cost vector at the current point.
func (s *simplex) phaseObjective(c []float64) float64 {
	obj := 0.0
	for j := 0; j < s.ncolsTotal(); j++ {
		if cj := c[j]; cj != 0 {
			obj += cj * s.value(j)
		}
	}
	return obj
}

// price selects the entering column and its direction (+1 to increase from
// its lower bound, −1 to decrease from its upper bound), or (-1, 0) when the
// current basis is optimal.
func (s *simplex) price(tol float64) (enter, dir int) {
	enter, dir = -1, 0
	best := tol
	for _, j := range s.active {
		if s.stat[j] == basic {
			continue
		}
		dj := s.d[j]
		switch {
		case s.stat[j] == atLower && dj < -best:
			enter, dir = j, 1
			if s.bland {
				return
			}
			best = -dj
		case s.stat[j] == atUpper && dj > best:
			enter, dir = j, -1
			if s.bland {
				return
			}
			best = dj
		}
	}
	return
}

// columnOf gathers column j of the tableau into the scratch column buffer.
// (The tableau is row-major; the ratio test and updates both need the
// column, so collect it once.)
func (s *simplex) columnOf(j int) []float64 {
	col := f64(&s.scr.col, s.m, s.m)
	for i := range s.tab {
		col[i] = s.tab[i][j]
	}
	return col
}

// ratioTest computes how far the entering variable can move. It returns the
// blocking row (−1 when the entering variable's own opposite bound is the
// binding limit), the step length, and whether the move is a bound flip.
func (s *simplex) ratioTest(enter, dir int, tol float64) (leaveRow int, limit float64, flip bool) {
	limit = s.hi[enter] - s.lo[enter] // own-range limit (may be +inf)
	leaveRow = -1
	flip = true
	bestPivot := 0.0
	for i := 0; i < s.m; i++ {
		a := s.tab[i][enter]
		if math.Abs(a) <= tol {
			continue
		}
		delta := float64(dir) * a // xb[i] changes by −t·delta
		b := s.basis[i]
		var t float64
		if delta > 0 {
			// Basic variable decreases toward its lower bound.
			t = (s.xb[i] - s.lo[b]) / delta
		} else {
			// Basic variable increases toward its upper bound.
			if math.IsInf(s.hi[b], 1) {
				continue
			}
			t = (s.xb[i] - s.hi[b]) / delta
		}
		if t < 0 {
			t = 0
		}
		switch {
		case t < limit-tol:
			limit = t
			leaveRow = i
			flip = false
			bestPivot = math.Abs(a)
		case t <= limit+tol && !flip:
			// Tie: prefer the larger pivot element for stability (or the
			// lowest basic index under Bland's rule).
			if s.bland {
				if s.basis[i] < s.basis[leaveRow] {
					leaveRow = i
				}
			} else if math.Abs(a) > bestPivot {
				leaveRow = i
				bestPivot = math.Abs(a)
			}
		}
	}
	return leaveRow, limit, flip
}

// step executes a pivot: the entering variable moves by limit·dir, the basic
// variable of leaveRow exits at the bound it reached.
func (s *simplex) step(enter, dir, leaveRow int, limit float64) {
	col := s.columnOf(enter)
	for i := 0; i < s.m; i++ {
		if col[i] != 0 {
			s.xb[i] -= limit * float64(dir) * col[i]
		}
	}
	leave := s.basis[leaveRow]
	// Classify which bound the leaving variable reached.
	delta := float64(dir) * col[leaveRow]
	if delta > 0 {
		s.stat[leave] = atLower
	} else {
		s.stat[leave] = atUpper
	}
	s.basicRow[leave] = -1

	enterVal := s.value(enter) + limit*float64(dir)
	s.pivot(leaveRow, enter)
	s.setBasic(leaveRow, enter)
	s.xb[leaveRow] = enterVal
}

// pivot performs Gaussian elimination to make column enter the identity
// column of row r, updating the reduced-cost row alongside. Only the active
// columns (see the active field) on which the scaled pivot row is nonzero
// are updated: elsewhere a row operation would subtract f·(±0), which leaves
// every finite nonzero entry as it is and can change only the sign of a
// zero, and no part of the solver reads the sign of a zero (DESIGN.md,
// "Sparse row updates").
func (s *simplex) pivot(r, enter int) {
	if k := s.scr.kernel; k != nil {
		k.pivot(s, r, enter)
		return
	}
	s.pivots++
	nz, _ := s.scaleRow(r, enter, s.active)
	s.eliminate(r, enter, nz, nil)
	if s.d != nil {
		if f := s.d[enter]; f != 0 {
			prow := s.tab[r]
			for _, j := range nz {
				s.d[j] -= f * prow[j]
			}
			s.d[enter] = 0
		}
	}
	s.basis[r] = enter
}

// scaleRow divides row r by its entry in column enter over the columns
// cols, sets that entry to exactly 1, and returns the columns of cols where
// the scaled row is nonzero (in the scratch's buffer, in the order of cols)
// together with the reciprocal it scaled by.
func (s *simplex) scaleRow(r, enter int, cols []int) (nz []int, inv float64) {
	prow := s.tab[r]
	inv = 1 / prow[enter]
	nz = s.scr.nz[:0]
	for _, j := range cols {
		if v := prow[j]; v != 0 {
			prow[j] = v * inv
			nz = append(nz, j)
		}
	}
	prow[enter] = 1 // exact
	s.scr.nz = nz
	return nz, inv
}

// eliminate clears column enter from every row but the scaled pivot row r
// by subtracting the multiple of row r that does it, on the columns nz
// only. A non-nil rhs (the restoration pivot's right-hand side) is
// transformed alongside.
func (s *simplex) eliminate(r, enter int, nz []int, rhs []float64) {
	prow := s.tab[r]
	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		f := s.tab[i][enter]
		if f == 0 {
			continue
		}
		row := s.tab[i]
		for _, j := range nz {
			row[j] -= f * prow[j]
		}
		row[enter] = 0 // exact
		if rhs != nil {
			rhs[i] -= f * rhs[r]
		}
	}
}
