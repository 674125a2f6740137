package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

const tol = 1e-6

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func TestTrivialBounds(t *testing.T) {
	// min x, 1 <= x <= 5 → x = 1.
	p := NewProblem()
	p.AddVariable(1, 1, 5)
	sol := solveOK(t, p)
	if math.Abs(sol.X[0]-1) > tol || math.Abs(sol.Objective-1) > tol {
		t.Errorf("got x=%v obj=%v", sol.X, sol.Objective)
	}
	// max x (min -x) → x = 5.
	p.SetObjective(0, -1)
	sol = solveOK(t, p)
	if math.Abs(sol.X[0]-5) > tol {
		t.Errorf("got x=%v", sol.X)
	}
}

func TestClassicTwoVar(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
	// Optimum: x=2, y=6, obj=36. (Dantzig's example.)
	p := NewProblem()
	x := p.AddVariable(-3, 0, math.Inf(1))
	y := p.AddVariable(-5, 0, math.Inf(1))
	p.MustAddConstraint([]Term{{x, 1}}, LE, 4)
	p.MustAddConstraint([]Term{{y, 2}}, LE, 12)
	p.MustAddConstraint([]Term{{x, 3}, {y, 2}}, LE, 18)
	sol := solveOK(t, p)
	if math.Abs(sol.X[x]-2) > tol || math.Abs(sol.X[y]-6) > tol {
		t.Errorf("got x=%v", sol.X)
	}
	if math.Abs(sol.Objective+36) > tol {
		t.Errorf("obj = %v, want -36", sol.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min 2x + 3y s.t. x + y = 10, x,y >= 0 → x=10, y=0, obj=20.
	p := NewProblem()
	x := p.AddVariable(2, 0, math.Inf(1))
	y := p.AddVariable(3, 0, math.Inf(1))
	p.MustAddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 10)
	sol := solveOK(t, p)
	if math.Abs(sol.X[x]-10) > tol || math.Abs(sol.X[y]) > tol {
		t.Errorf("got %v", sol.X)
	}
	if math.Abs(sol.Objective-20) > tol {
		t.Errorf("obj = %v", sol.Objective)
	}
}

func TestGEConstraint(t *testing.T) {
	// min x + y s.t. x + 2y >= 6, 2x + y >= 6 → x=y=2, obj=4.
	p := NewProblem()
	x := p.AddVariable(1, 0, math.Inf(1))
	y := p.AddVariable(1, 0, math.Inf(1))
	p.MustAddConstraint([]Term{{x, 1}, {y, 2}}, GE, 6)
	p.MustAddConstraint([]Term{{x, 2}, {y, 1}}, GE, 6)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-4) > tol {
		t.Errorf("obj = %v, want 4 (x=%v)", sol.Objective, sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	// x >= 5 and x <= 3 via constraints.
	p := NewProblem()
	x := p.AddVariable(1, 0, math.Inf(1))
	p.MustAddConstraint([]Term{{x, 1}}, GE, 5)
	p.MustAddConstraint([]Term{{x, 1}}, LE, 3)
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleBounds(t *testing.T) {
	p := NewProblem()
	p.AddVariable(1, 5, 3)
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x, x >= 0, no upper limit.
	p := NewProblem()
	p.AddVariable(-1, 0, math.Inf(1))
	sol, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestBoundFlip(t *testing.T) {
	// max x + y with 0<=x<=1, 0<=y<=1, x + y <= 10 (slack constraint):
	// optimum by pure bound flips, x=y=1.
	p := NewProblem()
	x := p.AddVariable(-1, 0, 1)
	y := p.AddVariable(-1, 0, 1)
	p.MustAddConstraint([]Term{{x, 1}, {y, 1}}, LE, 10)
	sol := solveOK(t, p)
	if math.Abs(sol.X[x]-1) > tol || math.Abs(sol.X[y]-1) > tol {
		t.Errorf("got %v", sol.X)
	}
}

func TestNonzeroLowerBounds(t *testing.T) {
	// min x + y, x >= 2, y >= 3, x + y >= 7 → obj 7.
	p := NewProblem()
	x := p.AddVariable(1, 2, math.Inf(1))
	y := p.AddVariable(1, 3, math.Inf(1))
	p.MustAddConstraint([]Term{{x, 1}, {y, 1}}, GE, 7)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-7) > tol {
		t.Errorf("obj = %v", sol.Objective)
	}
	if sol.X[x] < 2-tol || sol.X[y] < 3-tol {
		t.Errorf("bounds violated: %v", sol.X)
	}
}

func TestNegativeLowerBound(t *testing.T) {
	// min x, -5 <= x <= 5, x >= -3 → x = -3.
	p := NewProblem()
	x := p.AddVariable(1, -5, 5)
	p.MustAddConstraint([]Term{{x, 1}}, GE, -3)
	sol := solveOK(t, p)
	if math.Abs(sol.X[x]+3) > tol {
		t.Errorf("x = %v, want -3", sol.X[x])
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Duplicated equalities exercise the redundant-row path in phase 1.
	p := NewProblem()
	x := p.AddVariable(1, 0, math.Inf(1))
	y := p.AddVariable(2, 0, math.Inf(1))
	p.MustAddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 4)
	p.MustAddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 4)
	p.MustAddConstraint([]Term{{x, 2}, {y, 2}}, EQ, 8)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-4) > tol {
		t.Errorf("obj = %v, want 4", sol.Objective)
	}
}

func TestDegenerate(t *testing.T) {
	// A classic degenerate LP (multiple constraints active at the origin).
	p := NewProblem()
	x := p.AddVariable(-0.75, 0, math.Inf(1))
	y := p.AddVariable(150, 0, math.Inf(1))
	z := p.AddVariable(-0.02, 0, math.Inf(1))
	w := p.AddVariable(6, 0, math.Inf(1))
	p.MustAddConstraint([]Term{{x, 0.25}, {y, -60}, {z, -0.04}, {w, 9}}, LE, 0)
	p.MustAddConstraint([]Term{{x, 0.5}, {y, -90}, {z, -0.02}, {w, 3}}, LE, 0)
	p.MustAddConstraint([]Term{{z, 1}}, LE, 1)
	// Beale's cycling example: optimum -0.05 at z=1.
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-(-0.05)) > 1e-4 {
		t.Errorf("obj = %v, want -0.05", sol.Objective)
	}
}

func TestMergedDuplicateTerms(t *testing.T) {
	// Terms referencing the same variable must be summed: x + x <= 4 ⇒ x <= 2.
	p := NewProblem()
	x := p.AddVariable(-1, 0, math.Inf(1))
	p.MustAddConstraint([]Term{{x, 1}, {x, 1}}, LE, 4)
	sol := solveOK(t, p)
	if math.Abs(sol.X[x]-2) > tol {
		t.Errorf("x = %v, want 2", sol.X[x])
	}
}

func TestBadVariableIndex(t *testing.T) {
	p := NewProblem()
	p.AddVariable(1, 0, 1)
	if _, err := p.AddConstraint([]Term{{5, 1}}, LE, 1); err == nil {
		t.Error("expected error for unknown variable")
	}
}

func TestEmptyProblem(t *testing.T) {
	p := NewProblem()
	if _, err := p.Solve(nil); err == nil {
		t.Error("expected error for empty problem")
	}
}

func TestNonFiniteLowerBound(t *testing.T) {
	p := NewProblem()
	p.AddVariable(1, math.Inf(-1), 1)
	if _, err := p.Solve(nil); err == nil {
		t.Error("expected error for -inf lower bound")
	}
}

// TestNonFiniteModelRejected checks that NaN or infinite model data ends in
// ErrBadModel instead of an "optimal" answer: objective coefficients,
// constraint coefficients and right-hand sides (checked once per problem
// revision, when a Scratch builds its row template), and NaN upper bounds,
// stored or overridden. A repaired model solves again on the same Scratch.
func TestNonFiniteModelRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		obj  float64 // objective coefficient of x
		coef float64 // coefficient of x in x·coef + y ≥ rhs
		rhs  float64
		hi   float64 // upper bound of x
		ov   map[int]Bound
	}{
		{"NaN objective", nan, 1, 1, 10, nil},
		{"+Inf objective", inf, 1, 1, 10, nil},
		{"-Inf objective", -inf, 1, 1, 10, nil},
		{"NaN coefficient", 1, nan, 1, 10, nil},
		{"+Inf coefficient", 1, inf, 1, 10, nil},
		{"-Inf coefficient", 1, -inf, 1, 10, nil},
		{"NaN rhs", 1, 1, nan, 10, nil},
		{"+Inf rhs", 1, 1, inf, 10, nil},
		{"NaN upper bound", 1, 1, 1, nan, nil},
		{"NaN upper bound override", 1, 1, 1, 10, map[int]Bound{0: {Lo: 0, Hi: nan}}},
	}
	for _, tc := range cases {
		p := NewProblem()
		x := p.AddVariable(tc.obj, 0, tc.hi)
		y := p.AddVariable(1, 0, 10)
		p.MustAddConstraint([]Term{{x, tc.coef}, {y, 1}}, GE, tc.rhs)
		sc := NewScratch()
		for attempt := 0; attempt < 2; attempt++ {
			sol, err := p.SolveBoundedWarm(nil, tc.ov, &WarmStart{Scratch: sc})
			if !errors.Is(err, ErrBadModel) {
				t.Errorf("%s (attempt %d): got %v, %+v; want ErrBadModel", tc.name, attempt, err, sol)
			}
		}
		if tc.ov == nil {
			if _, err := p.Solve(nil); !errors.Is(err, ErrBadModel) {
				t.Errorf("%s: Solve without a scratch: got %v, want ErrBadModel", tc.name, err)
			}
		}
	}

	// The template check follows the problem's revisions.
	p := NewProblem()
	x := p.AddVariable(nan, 0, 10)
	y := p.AddVariable(1, 0, 10)
	p.MustAddConstraint([]Term{{x, 1}, {y, 1}}, GE, 1)
	sc := NewScratch()
	if _, err := p.SolveBoundedWarm(nil, nil, &WarmStart{Scratch: sc}); !errors.Is(err, ErrBadModel) {
		t.Fatalf("NaN objective: got %v, want ErrBadModel", err)
	}
	p.SetObjective(x, 2)
	sol, err := p.SolveBoundedWarm(nil, nil, &WarmStart{Scratch: sc})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-1) > tol {
		t.Fatalf("repaired model: %v %+v, want optimal objective 1", err, sol)
	}
}

func TestClone(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(1, 0, 10)
	p.MustAddConstraint([]Term{{x, 1}}, GE, 4)
	q := p.Clone()
	q.SetBounds(x, 7, 10)
	sol := solveOK(t, p)
	if math.Abs(sol.X[x]-4) > tol {
		t.Errorf("original affected by clone mutation: %v", sol.X)
	}
	sol2 := solveOK(t, q)
	if math.Abs(sol2.X[x]-7) > tol {
		t.Errorf("clone solution wrong: %v", sol2.X)
	}
}

func TestEqualityWithBoundedVars(t *testing.T) {
	// Assignment-like structure as in the DVS MILP relaxation:
	// k1 + k2 + k3 = 1 with 0<=ki<=1, min 3k1 + 2k2 + 5k3 → k2 = 1.
	p := NewProblem()
	k1 := p.AddVariable(3, 0, 1)
	k2 := p.AddVariable(2, 0, 1)
	k3 := p.AddVariable(5, 0, 1)
	p.MustAddConstraint([]Term{{k1, 1}, {k2, 1}, {k3, 1}}, EQ, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.X[k2]-1) > tol || math.Abs(sol.Objective-2) > tol {
		t.Errorf("got %v obj=%v", sol.X, sol.Objective)
	}
}

func TestAbsValueLinearization(t *testing.T) {
	// The paper's |x| trick: minimize e with -e <= x <= e, x fixed by
	// an equality to -7 → e = 7.
	p := NewProblem()
	x := p.AddVariable(0, -100, 100)
	e := p.AddVariable(1, 0, math.Inf(1))
	p.MustAddConstraint([]Term{{x, 1}}, EQ, -7)
	p.MustAddConstraint([]Term{{x, 1}, {e, 1}}, GE, 0)  // -e <= x
	p.MustAddConstraint([]Term{{x, 1}, {e, -1}}, LE, 0) // x <= e
	sol := solveOK(t, p)
	if math.Abs(sol.X[e]-7) > tol {
		t.Errorf("e = %v, want 7", sol.X[e])
	}
}

// TestRandomVersusBruteForce cross-checks the simplex against brute-force
// vertex enumeration on small random LPs with bounded variables.
func TestRandomVersusBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(2) // 2-3 vars
		m := 1 + rng.Intn(3) // 1-3 constraints
		p := NewProblem()
		for j := 0; j < n; j++ {
			p.AddVariable(rng.Float64()*4-2, 0, 1+rng.Float64()*3)
		}
		type consRec struct {
			coefs []float64
			op    Op
			rhs   float64
		}
		var recs []consRec
		for i := 0; i < m; i++ {
			terms := make([]Term, n)
			coefs := make([]float64, n)
			for j := 0; j < n; j++ {
				coefs[j] = rng.Float64()*4 - 2
				terms[j] = Term{j, coefs[j]}
			}
			op := Op(rng.Intn(3))
			rhs := rng.Float64()*6 - 1
			recs = append(recs, consRec{coefs, op, rhs})
			p.MustAddConstraint(terms, op, rhs)
		}
		sol, err := p.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}

		// Brute force on a fine grid (coarse check: grid optimum cannot be
		// much better than simplex optimum, and simplex point must be
		// feasible).
		if sol.Status == Optimal {
			feasible := func(x []float64) bool {
				for _, r := range recs {
					v := 0.0
					for j := range x {
						v += r.coefs[j] * x[j]
					}
					switch r.op {
					case LE:
						if v > r.rhs+1e-7 {
							return false
						}
					case GE:
						if v < r.rhs-1e-7 {
							return false
						}
					case EQ:
						if math.Abs(v-r.rhs) > 1e-7 {
							return false
						}
					}
				}
				return true
			}
			if !feasible(sol.X) {
				t.Fatalf("trial %d: simplex point infeasible: %v", trial, sol.X)
			}
			// Random feasible sampling must never beat the optimum.
			for s := 0; s < 300; s++ {
				x := make([]float64, n)
				for j := 0; j < n; j++ {
					lo, hi := p.Bounds(j)
					x[j] = lo + rng.Float64()*(hi-lo)
				}
				if !feasible(x) {
					continue
				}
				obj := 0.0
				for j := 0; j < n; j++ {
					obj += p.Objective(j) * x[j]
				}
				if obj < sol.Objective-1e-5 {
					t.Fatalf("trial %d: sampled point %v beats simplex: %v < %v",
						trial, x, obj, sol.Objective)
				}
			}
		}
	}
}

// TestModeratelyLarge exercises a few hundred variables/constraints of the
// shape used by the DVS formulation (SOS1 rows + a budget row).
func TestModeratelyLarge(t *testing.T) {
	const groups = 120
	const modes = 3
	p := NewProblem()
	var vars [][]int
	rng := rand.New(rand.NewSource(7))
	energies := make([][]float64, groups)
	times := make([][]float64, groups)
	for g := 0; g < groups; g++ {
		row := make([]Term, modes)
		vs := make([]int, modes)
		energies[g] = make([]float64, modes)
		times[g] = make([]float64, modes)
		for m := 0; m < modes; m++ {
			e := rng.Float64()*10 + float64(modes-m) // slower mode cheaper
			energies[g][m] = e
			times[g][m] = float64(m+1) * (rng.Float64() + 0.5)
			v := p.AddVariable(e, 0, 1)
			vs[m] = v
			row[m] = Term{v, 1}
		}
		vars = append(vars, vs)
		p.MustAddConstraint(row, EQ, 1)
	}
	var budget []Term
	for g := 0; g < groups; g++ {
		for m := 0; m < modes; m++ {
			budget = append(budget, Term{vars[g][m], times[g][m]})
		}
	}
	p.MustAddConstraint(budget, LE, float64(groups)*1.2)
	sol := solveOK(t, p)
	// Every SOS1 row must sum to 1.
	for g := 0; g < groups; g++ {
		sum := 0.0
		for m := 0; m < modes; m++ {
			sum += sol.X[vars[g][m]]
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("group %d sums to %v", g, sum)
		}
	}
}
