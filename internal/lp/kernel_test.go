package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// denseKernel is the dense row-update kernel the sparse one replaced, kept
// verbatim as the oracle: every row operation runs over every active (or
// elimination) column, zero pivot-row entries included. Tests install it
// through Scratch.kernel.
type denseKernel struct{}

// pivot is the dense form of simplex.pivot.
func (denseKernel) pivot(s *simplex, r, enter int) {
	s.pivots++
	prow := s.tab[r]
	p := prow[enter]
	inv := 1 / p
	for _, j := range s.active {
		prow[j] *= inv
	}
	prow[enter] = 1 // exact
	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		f := s.tab[i][enter]
		if f == 0 {
			continue
		}
		row := s.tab[i]
		for _, j := range s.active {
			row[j] -= f * prow[j]
		}
		row[enter] = 0 // exact
	}
	if s.d != nil {
		f := s.d[enter]
		if f != 0 {
			for _, j := range s.active {
				s.d[j] -= f * prow[j]
			}
			s.d[enter] = 0
		}
	}
	s.basis[r] = enter
}

// elimPivot is the dense form of simplex.elimPivot.
func (denseKernel) elimPivot(s *simplex, r, enter int, elim []int) {
	s.pivots++
	prow := s.tab[r]
	inv := 1 / prow[enter]
	for _, j := range elim {
		prow[j] *= inv
	}
	prow[enter] = 1 // exact
	s.rhs[r] *= inv
	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		f := s.tab[i][enter]
		if f == 0 {
			continue
		}
		row := s.tab[i]
		for _, j := range elim {
			row[j] -= f * prow[j]
		}
		row[enter] = 0 // exact
		s.rhs[i] -= f * s.rhs[r]
	}
}

// denseScratch returns a Scratch that solves with the dense oracle kernel.
func denseScratch() *Scratch {
	sc := NewScratch()
	sc.kernel = denseKernel{}
	return sc
}

// sameSolution reports how two solves differ, or "" when they are the same
// bits: status, X and objective (Float64bits), basis, pivot count and the
// warm/fallback flags.
func sameSolution(a, b *Solution) string {
	switch {
	case a.Status != b.Status:
		return "status"
	case a.Pivots != b.Pivots:
		return "pivots"
	case a.Warm != b.Warm || a.FellBack != b.FellBack:
		return "warm/fallback flags"
	case math.Float64bits(a.Objective) != math.Float64bits(b.Objective):
		return "objective bits"
	case len(a.X) != len(b.X):
		return "len(X)"
	}
	for j := range a.X {
		if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
			return "X bits"
		}
	}
	if (a.Basis == nil) != (b.Basis == nil) {
		return "basis presence"
	}
	if a.Basis != nil && (!slices.Equal(a.Basis.basis, b.Basis.basis) || !slices.Equal(a.Basis.stat, b.Basis.stat)) {
		return "basis"
	}
	return ""
}

// kernelChain solves p at the root and then along a chain of tightening
// bound overrides, each step warm-started from the previous step's basis,
// once with the production kernel and once with the dense oracle, and
// reports the first step at which the two differ (-1 when they never do).
// It returns the number of warm-started steps as well.
func kernelChain(t testing.TB, p *Problem, rng *rand.Rand, steps int) (bad int, why string, warm int) {
	t.Helper()
	prod, dense := NewScratch(), denseScratch()
	a, errA := p.SolveBoundedWarm(nil, nil, &WarmStart{Scratch: prod})
	b, errB := p.SolveBoundedWarm(nil, nil, &WarmStart{Scratch: dense})
	if (errA == nil) != (errB == nil) {
		return 0, "error", 0
	}
	if errA != nil {
		return -1, "", 0
	}
	if d := sameSolution(a, b); d != "" {
		return 0, d, 0
	}
	if a.Status != Optimal {
		return -1, "", 0
	}
	ov := map[int]Bound{}
	for step := 1; step <= steps; step++ {
		ov = tighten(rng, p, ov, a.X)
		na, errA := p.SolveBoundedWarm(nil, ov, &WarmStart{Basis: a.Basis, Scratch: prod})
		nb, errB := p.SolveBoundedWarm(nil, ov, &WarmStart{Basis: b.Basis, Scratch: dense})
		if (errA == nil) != (errB == nil) {
			return step, "error", warm
		}
		if errA != nil {
			return -1, "", warm
		}
		if d := sameSolution(na, nb); d != "" {
			return step, d, warm
		}
		if na.Warm {
			warm++
		}
		if na.Status != Optimal {
			break
		}
		a, b = na, nb
	}
	return -1, "", warm
}

// TestSparseKernelMatchesDense is the sparse kernel's exactness property:
// on random LPs (mixed operators, equality rows, redundant rows, fixed and
// unbounded variables) and on SOS1-shaped LPs like the DVS formulation,
// each followed by a chain of branch-and-bound-style bound tightenings,
// every solve with the sparse row updates returns the same bits as the
// dense oracle: status, X, objective, basis, pivots and warm/fallback
// flags.
func TestSparseKernelMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	warm := 0
	for trial := 0; trial < 600; trial++ {
		var p *Problem
		if trial%3 == 2 {
			p = randomSOS1LP(rng)
		} else {
			p = randomLP(rng)
		}
		bad, why, w := kernelChain(t, p, rng, 8)
		if bad >= 0 {
			t.Fatalf("trial %d: sparse and dense kernels differ at step %d: %s", trial, bad, why)
		}
		warm += w
	}
	if warm < 200 {
		t.Fatalf("only %d warm-started steps; the restore path is undertested", warm)
	}
}

// randomSOS1LP builds a DVS-shaped LP: groups of mode variables with one
// equality row each, a budget row over all of them, and a few |Δ|-style
// coupling rows with a continuous variable, so pivot rows are sparse.
func randomSOS1LP(rng *rand.Rand) *Problem {
	p := NewProblem()
	groups, modes := 2+rng.Intn(5), 2+rng.Intn(4)
	var budget []Term
	for g := 0; g < groups; g++ {
		row := make([]Term, modes)
		for m := 0; m < modes; m++ {
			v := p.AddVariable(rng.Float64()*9+1, 0, 1)
			row[m] = Term{Var: v, Coef: 1}
			budget = append(budget, Term{Var: v, Coef: float64(m+1) * (0.5 + rng.Float64())})
		}
		p.MustAddConstraint(row, EQ, 1)
	}
	p.MustAddConstraint(budget, LE, float64(groups)*(1+rng.Float64()*float64(modes-1)))
	for k := 0; k < rng.Intn(groups); k++ {
		a, b := rng.Intn(groups), rng.Intn(groups)
		if a == b {
			continue
		}
		e := p.AddVariable(rng.Float64(), 0, math.Inf(1))
		var terms []Term
		for m := 0; m < modes; m++ {
			w := float64(m * m)
			terms = append(terms, Term{Var: a*modes + m, Coef: w}, Term{Var: b*modes + m, Coef: -w})
		}
		p.MustAddConstraint(append(append([]Term(nil), terms...), Term{Var: e, Coef: -1}), LE, 0)
		p.MustAddConstraint(append(terms, Term{Var: e, Coef: 1}), GE, 0)
	}
	return p
}

// FuzzSimplexKernel holds the sparse kernel to the dense oracle on
// fuzzer-built LPs: the input bytes seed the LP generator and the
// tightening chain, and every solve along the chain must match the
// oracle bit for bit.
func FuzzSimplexKernel(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 99, 2024, 31337} {
		f.Add(seed, uint8(6), false)
		f.Add(seed, uint8(3), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8, sos1 bool) {
		rng := rand.New(rand.NewSource(seed))
		var p *Problem
		if sos1 {
			p = randomSOS1LP(rng)
		} else {
			p = randomLP(rng)
		}
		if bad, why, _ := kernelChain(t, p, rng, int(steps%16)); bad >= 0 {
			t.Fatalf("sparse and dense kernels differ at step %d: %s", bad, why)
		}
	})
}

// TestWarmResolveAllocs pins what a warm node re-solve allocates once its
// Scratch has grown: the Solution, its X and its Basis (the snapshot and
// its two slices), nothing else — no solver state, no restoration buffers.
func TestWarmResolveAllocs(t *testing.T) {
	p := randomSOS1LP(rand.New(rand.NewSource(3)))
	root, err := p.Solve(nil)
	if err != nil || root.Status != Optimal {
		t.Fatalf("root: %v %v", err, root)
	}
	ov := map[int]Bound{0: {Lo: 0, Hi: 0}}
	ws := &WarmStart{Basis: root.Basis, Scratch: NewScratch()}
	var sol *Solution
	allocs := testing.AllocsPerRun(50, func() {
		sol, err = p.SolveBoundedWarm(nil, ov, ws)
	})
	if err != nil || !sol.Warm || sol.Status != Optimal {
		t.Fatalf("re-solve: err %v, warm %v, status %v", err, sol.Warm, sol.Status)
	}
	if sol.Pivots == 0 {
		t.Fatal("re-solve made no pivots; the restore path is not exercised")
	}
	const ceiling = 5 // Solution, X, Basis{basis, stat}
	if allocs > ceiling {
		t.Errorf("warm re-solve made %v allocations, ceiling %d", allocs, ceiling)
	}
}
