package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomLP builds a random bounded-variable LP with mixed operators,
// including equality rows (phase-1 artificials), infinite upper bounds,
// fixed variables, and occasionally duplicated (redundant) rows — the
// degenerate shapes the warm-start path has to survive.
func randomLP(rng *rand.Rand) *Problem {
	n := 3 + rng.Intn(8)
	p := NewProblem()
	for j := 0; j < n; j++ {
		lo := 0.0
		if rng.Intn(3) == 0 {
			lo = -rng.Float64() * 2
		}
		hi := lo + rng.Float64()*4
		switch rng.Intn(5) {
		case 0:
			hi = math.Inf(1)
		case 1:
			hi = lo // fixed variable
		}
		p.AddVariable(rng.NormFloat64(), lo, hi)
	}
	rows := 2 + rng.Intn(6)
	var prev []Term
	var prevOp Op
	var prevRHS float64
	for i := 0; i < rows; i++ {
		if prev != nil && rng.Intn(6) == 0 {
			// Redundant duplicate row: keeps an artificial basic at zero.
			p.MustAddConstraint(prev, prevOp, prevRHS)
			continue
		}
		nt := 1 + rng.Intn(n)
		terms := make([]Term, 0, nt)
		for k := 0; k < nt; k++ {
			terms = append(terms, Term{Var: rng.Intn(n), Coef: rng.NormFloat64()})
		}
		op := Op(rng.Intn(3))
		// Bias the rhs so feasible problems are common but not guaranteed.
		rhs := rng.NormFloat64() * 3
		if op == LE {
			rhs += 2
		}
		if op == GE {
			rhs -= 2
		}
		p.MustAddConstraint(terms, op, rhs)
		prev, prevOp, prevRHS = terms, op, rhs
	}
	return p
}

// checkFeasible verifies that x satisfies the problem's constraints and the
// effective bounds within tolerance.
func checkFeasible(t *testing.T, p *Problem, overrides map[int]Bound, x []float64, tag string) {
	t.Helper()
	const tol = 1e-6
	for j := 0; j < p.NumVars(); j++ {
		lo, hi := p.Bounds(j)
		if b, ok := overrides[j]; ok {
			lo, hi = b.Lo, b.Hi
		}
		if x[j] < lo-tol || x[j] > hi+tol {
			t.Errorf("%s: x[%d]=%v outside [%v, %v]", tag, j, x[j], lo, hi)
		}
	}
	for i, c := range p.cons {
		lhs := 0.0
		for _, tm := range c.terms {
			lhs += tm.Coef * x[tm.Var]
		}
		switch c.op {
		case LE:
			if lhs > c.rhs+tol {
				t.Errorf("%s: row %d: %v > %v", tag, i, lhs, c.rhs)
			}
		case GE:
			if lhs < c.rhs-tol {
				t.Errorf("%s: row %d: %v < %v", tag, i, lhs, c.rhs)
			}
		case EQ:
			if math.Abs(lhs-c.rhs) > tol {
				t.Errorf("%s: row %d: %v != %v", tag, i, lhs, c.rhs)
			}
		}
	}
}

// tighten draws a random branching-style bound override for one variable:
// fix to a value, raise the lower bound, or cut the upper bound — sometimes
// past what the constraints allow, so infeasible children occur.
func tighten(rng *rand.Rand, p *Problem, ov map[int]Bound, x []float64) map[int]Bound {
	out := make(map[int]Bound, len(ov)+1)
	for k, v := range ov {
		out[k] = v
	}
	j := rng.Intn(p.NumVars())
	lo, hi := p.Bounds(j)
	if b, ok := out[j]; ok {
		lo, hi = b.Lo, b.Hi
	}
	ref := x[j]
	switch rng.Intn(4) {
	case 0: // branch down: cap at floor-like split
		out[j] = Bound{Lo: lo, Hi: ref - rng.Float64()*0.5}
	case 1: // branch up
		out[j] = Bound{Lo: ref + rng.Float64()*0.5, Hi: hi}
	case 2: // fix at the relaxation value
		out[j] = Bound{Lo: ref, Hi: ref}
	default: // aggressive tightening, often infeasible
		out[j] = Bound{Lo: ref + 1 + rng.Float64()*3, Hi: math.Max(hi, ref+10)}
	}
	if out[j].Hi < out[j].Lo {
		out[j] = Bound{Lo: out[j].Lo, Hi: out[j].Lo}
	}
	return out
}

// TestWarmMatchesCold is the warm-start property test: on randomized LPs and
// random bound-override sequences, the warm-started solve must agree with
// the cold solve on status and objective, and its point must be feasible —
// including degenerate bases and infeasible-after-tightening children. The
// warm chain threads each solve's basis into the next solve, like a
// branch-and-bound dive, reusing one scratch throughout.
func TestWarmMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sc := NewScratch()
	const tol = 1e-6
	solved, warmUsed := 0, 0
	for trial := 0; trial < 400; trial++ {
		p := randomLP(rng)
		root, err := p.Solve(nil)
		if err != nil || root.Status != Optimal {
			continue
		}
		solved++
		basis := root.Basis
		ov := map[int]Bound{}
		x := root.X
		for step := 0; step < 6; step++ {
			ov = tighten(rng, p, ov, x)
			cold, err := p.SolveBounded(nil, ov)
			if err != nil {
				t.Fatalf("trial %d step %d: cold: %v", trial, step, err)
			}
			warm, err := p.SolveBoundedWarm(nil, ov, &WarmStart{Basis: basis, Scratch: sc})
			if err != nil {
				t.Fatalf("trial %d step %d: warm: %v", trial, step, err)
			}
			if cold.Status != warm.Status {
				t.Fatalf("trial %d step %d: status cold=%v warm=%v (warm used: %v)",
					trial, step, cold.Status, warm.Status, warm.Warm)
			}
			if cold.Status != Optimal {
				break
			}
			if warm.Warm {
				warmUsed++
			}
			rel := math.Abs(cold.Objective-warm.Objective) / math.Max(1, math.Abs(cold.Objective))
			if rel > tol {
				t.Fatalf("trial %d step %d: objective cold=%v warm=%v",
					trial, step, cold.Objective, warm.Objective)
			}
			checkFeasible(t, p, ov, warm.X, "warm")
			basis = warm.Basis
			x = warm.X
		}
	}
	if solved < 50 {
		t.Fatalf("generator too weak: only %d/400 roots solved", solved)
	}
	if warmUsed == 0 {
		t.Fatal("warm start never engaged; the fast path is untested")
	}
	t.Logf("solved %d roots, %d warm-started child solves", solved, warmUsed)
}

// TestWarmAfterBranchFix exercises the exact branch-and-bound pattern on an
// SOS1-style LP: fix binaries of the relaxation one group at a time and
// warm-start each child from its parent's basis.
func TestWarmAfterBranchFix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := NewScratch()
	for trial := 0; trial < 30; trial++ {
		groups := 3 + rng.Intn(4)
		modes := 3
		p := NewProblem()
		var budget []Term
		for g := 0; g < groups; g++ {
			row := make([]Term, modes)
			for m := 0; m < modes; m++ {
				v := p.AddVariable(rng.Float64()*9+1, 0, 1)
				row[m] = Term{Var: v, Coef: 1}
				budget = append(budget, Term{Var: v, Coef: float64(m + 1)})
			}
			p.MustAddConstraint(row, EQ, 1)
		}
		p.MustAddConstraint(budget, LE, float64(groups)*1.8)
		parent, err := p.Solve(nil)
		if err != nil || parent.Status != Optimal {
			t.Fatalf("trial %d: root %v %v", trial, err, parent)
		}
		basis := parent.Basis
		ov := map[int]Bound{}
		for g := 0; g < groups; g++ {
			// Fix group g to its largest relaxation member.
			best, bestV := -1, -1.0
			for m := 0; m < modes; m++ {
				if v := parent.X[g*modes+m]; v > bestV {
					best, bestV = g*modes+m, v
				}
			}
			for m := 0; m < modes; m++ {
				v := g*modes + m
				if v == best {
					ov[v] = Bound{Lo: 1, Hi: 1}
				} else {
					ov[v] = Bound{Lo: 0, Hi: 0}
				}
			}
			warm, err := p.SolveBoundedWarm(nil, ov, &WarmStart{Basis: basis, Scratch: sc})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := p.SolveBounded(nil, ov)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("trial %d group %d: status warm=%v cold=%v", trial, g, warm.Status, cold.Status)
			}
			if cold.Status != Optimal {
				break
			}
			if d := math.Abs(warm.Objective - cold.Objective); d > 1e-7 {
				t.Fatalf("trial %d group %d: objective warm=%v cold=%v", trial, g, warm.Objective, cold.Objective)
			}
			checkFeasible(t, p, ov, warm.X, "warm")
			basis = warm.Basis
		}
	}
}

// TestScratchReuseIsolation checks that a scratch carries no state between
// solves of different problems: interleaving two problems through one
// scratch returns the same answers as fresh solves.
func TestScratchReuseIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sc := NewScratch()
	for trial := 0; trial < 60; trial++ {
		a, b := randomLP(rng), randomLP(rng)
		fa, _ := a.Solve(nil)
		fb, _ := b.Solve(nil)
		sa, err := a.SolveBoundedWarm(nil, nil, &WarmStart{Scratch: sc})
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.SolveBoundedWarm(nil, nil, &WarmStart{Scratch: sc})
		if err != nil {
			t.Fatal(err)
		}
		if sa.Status != fa.Status || sb.Status != fb.Status {
			t.Fatalf("trial %d: scratch changed status: %v/%v vs %v/%v",
				trial, sa.Status, sb.Status, fa.Status, fb.Status)
		}
		if fa.Status == Optimal && math.Abs(sa.Objective-fa.Objective) > 1e-9 {
			t.Fatalf("trial %d: scratch changed objective %v vs %v", trial, sa.Objective, fa.Objective)
		}
		if fb.Status == Optimal && math.Abs(sb.Objective-fb.Objective) > 1e-9 {
			t.Fatalf("trial %d: scratch changed objective %v vs %v", trial, sb.Objective, fb.Objective)
		}
	}
}

// TestWarmBasisRejected checks the fallback path: a basis from a different
// problem shape must be rejected and the solve must still answer correctly.
func TestWarmBasisRejected(t *testing.T) {
	small := NewProblem()
	small.AddVariable(1, 0, 10)
	small.MustAddConstraint([]Term{{Var: 0, Coef: 1}}, GE, 2)
	ssol, err := small.Solve(nil)
	if err != nil || ssol.Status != Optimal {
		t.Fatal(err, ssol)
	}

	big := NewProblem()
	for j := 0; j < 4; j++ {
		big.AddVariable(float64(j+1), 0, 5)
	}
	big.MustAddConstraint([]Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, GE, 3)
	sol, err := big.SolveBoundedWarm(nil, nil, &WarmStart{Basis: ssol.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if !sol.FellBack || sol.Warm {
		t.Fatalf("mismatched basis must fall back: Warm=%v FellBack=%v", sol.Warm, sol.FellBack)
	}
	if math.Abs(sol.Objective-3) > 1e-9 {
		t.Fatalf("objective %v, want 3", sol.Objective)
	}
}
