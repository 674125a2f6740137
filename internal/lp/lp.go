// Package lp implements a two-phase, bounded-variable primal simplex solver
// for linear programs. It is the relaxation engine underneath the
// MILP branch-and-bound in package milp, standing in for the CPLEX solver the
// paper used (the reproduction is offline and stdlib-only, so the solver is
// built from scratch).
//
// Problems are expressed as
//
//	minimize    cᵀx
//	subject to  aᵢᵀx  {≤, =, ≥}  bᵢ        for each constraint i
//	            loⱼ ≤ xⱼ ≤ hiⱼ             for each variable j
//
// Lower bounds must be finite (the DVS formulations only use non-negative
// variables); upper bounds may be +Inf. Maximization is expressed by negating
// the objective. Objective coefficients, constraint coefficients and
// right-hand sides must be finite.
//
// The implementation stores a full dense tableau (B⁻¹A plus a reduced-cost
// row) but updates it sparsely: a pivot touches only the columns where the
// pivot row is nonzero, which on the DVS formulations' rows is a small
// fraction, and which changes no bit of any result (DESIGN.md, "Sparse row
// updates"). It handles variable bounds natively (nonbasic variables rest at
// either bound; bound flips avoid pivots), obtains an initial feasible basis
// with per-row artificial variables in phase 1, and guards against cycling
// by switching from Dantzig pricing to Bland's rule when the objective
// stalls.
//
// # Concurrency
//
// Solving never mutates the Problem: every call to Solve or SolveBounded
// builds the tableau state it works on from scratch, so any number of
// goroutines may solve the same Problem simultaneously. Construction and
// mutation (AddVariable, AddConstraint, SetBounds, SetObjective) are not
// synchronized and must not race with solves; the intended pattern is
// build-once, solve-many. Branch-and-bound style per-call bound
// restrictions go through SolveBounded, which applies them to the private
// per-call state only.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota // aᵀx ≤ b
	GE           // aᵀx ≥ b
	EQ           // aᵀx = b
)

// String returns the conventional symbol for the operator.
func (op Op) String() string {
	switch op {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// Term is one coefficient of a linear constraint: Coef · x[Var].
type Term struct {
	Var  int
	Coef float64
}

type constraint struct {
	terms []Term
	op    Op
	rhs   float64
}

// Problem is a linear program under construction. The zero value is not
// usable; create problems with NewProblem.
type Problem struct {
	obj    []float64
	lo, hi []float64
	cons   []constraint
	// rev counts mutations; Scratch uses it to invalidate its cached
	// raw-row template when the problem changed between solves.
	rev int
}

// NewProblem returns an empty linear program.
func NewProblem() *Problem { return &Problem{} }

// AddVariable appends a variable with the given objective coefficient and
// bounds, returning its index. Pass math.Inf(1) for an unbounded-above
// variable. The lower bound must be finite.
func (p *Problem) AddVariable(obj, lo, hi float64) int {
	p.rev++
	p.obj = append(p.obj, obj)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	return len(p.obj) - 1
}

// SetObjective replaces the objective coefficient of variable v.
func (p *Problem) SetObjective(v int, c float64) {
	p.rev++
	p.obj[v] = c
}

// Objective returns the objective coefficient of variable v.
func (p *Problem) Objective(v int) float64 { return p.obj[v] }

// SetBounds replaces the bounds of variable v. Branch-and-bound uses this to
// fix binaries.
func (p *Problem) SetBounds(v int, lo, hi float64) {
	p.rev++
	p.lo[v] = lo
	p.hi[v] = hi
}

// Bounds returns the bounds of variable v.
func (p *Problem) Bounds(v int) (lo, hi float64) { return p.lo[v], p.hi[v] }

// AddConstraint appends the constraint Σ terms {op} rhs and returns its
// index. Terms referencing the same variable are summed. Variable indices
// must already exist.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs float64) (int, error) {
	merged := make(map[int]float64, len(terms))
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.obj) {
			return 0, fmt.Errorf("lp: constraint references unknown variable %d", t.Var)
		}
		merged[t.Var] += t.Coef
	}
	compact := make([]Term, 0, len(merged))
	for v, c := range merged {
		if c != 0 {
			compact = append(compact, Term{Var: v, Coef: c})
		}
	}
	p.rev++
	p.cons = append(p.cons, constraint{terms: compact, op: op, rhs: rhs})
	return len(p.cons) - 1, nil
}

// MustAddConstraint is AddConstraint but panics on error; convenient when the
// caller has just created the variables itself.
func (p *Problem) MustAddConstraint(terms []Term, op Op, rhs float64) int {
	i, err := p.AddConstraint(terms, op, rhs)
	if err != nil {
		panic(err)
	}
	return i
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumConstraints returns the number of constraints.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// Clone returns a deep copy of the problem. Branch-and-bound clones the root
// problem once and then mutates bounds per node.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		obj:  append([]float64(nil), p.obj...),
		lo:   append([]float64(nil), p.lo...),
		hi:   append([]float64(nil), p.hi...),
		cons: make([]constraint, len(p.cons)),
	}
	for i, c := range p.cons {
		q.cons[i] = constraint{
			terms: append([]Term(nil), c.terms...),
			op:    c.op,
			rhs:   c.rhs,
		}
	}
	return q
}

// Status describes the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	X         []float64 // variable values (valid when Status == Optimal)
	Objective float64   // cᵀx at X

	// Basis snapshots the optimal basis for warm-starting related solves
	// (nil unless Status == Optimal, or when the basis could not be
	// captured cleanly). It is immutable and safe to share.
	Basis *Basis
	// Pivots counts tableau pivot operations this solve performed across
	// all phases, including basis-restoration pivots on warm starts.
	Pivots int
	// Warm reports that the solve ran from the supplied starting basis.
	Warm bool
	// FellBack reports that a starting basis was supplied but rejected
	// (validation or the dual phase failed) and the solve completed cold.
	FellBack bool
}

// Options tunes the solver. The zero value selects defaults.
type Options struct {
	// MaxIters bounds the total number of simplex iterations across both
	// phases. 0 selects 50·(m+n)+10000.
	MaxIters int
	// Tol is the feasibility/optimality tolerance. 0 selects 1e-9.
	Tol float64
}

// ErrBadModel reports an invalid problem: no variables, a non-finite lower
// bound or a NaN upper bound, or a NaN or infinite objective coefficient,
// constraint coefficient or right-hand side.
var ErrBadModel = errors.New("lp: invalid model")

// Bound is a [Lo, Hi] variable box, used by SolveBounded to restrict
// variables for one solve without mutating the Problem.
type Bound struct {
	Lo, Hi float64
}

// Solve optimizes the problem and returns the solution. The problem itself
// is not modified, so concurrent Solve calls on one Problem are safe. A nil
// opts selects defaults.
func (p *Problem) Solve(opts *Options) (*Solution, error) {
	return p.SolveBounded(opts, nil)
}

// SolveBounded optimizes the problem as if every variable v listed in
// overrides had bounds overrides[v] instead of its stored bounds. The
// Problem is not mutated — the overrides live only in the per-call solver
// state — which makes SolveBounded safe to call from many goroutines on a
// shared Problem; branch-and-bound workers use it to fix binaries per node.
func (p *Problem) SolveBounded(opts *Options, overrides map[int]Bound) (*Solution, error) {
	return p.SolveBoundedWarm(opts, overrides, nil)
}

// SolveBoundedWarm is SolveBounded with optional warm-start state. When
// warm.Basis is set (typically Solution.Basis from a solve of the same
// Problem under looser bounds) the solver restores that basis and re-solves
// with a dual simplex phase instead of the two-phase cold start; when the
// restoration or the dual phase fails validation it transparently falls back
// to the cold solve, so the answer is never at risk. When warm.Scratch is
// set the solve reuses its buffers and cached row template, so repeated
// solves allocate only the Solution they return; a Scratch must not be
// shared between concurrent solves.
func (p *Problem) SolveBoundedWarm(opts *Options, overrides map[int]Bound, warm *WarmStart) (*Solution, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	n := len(p.obj)
	m := len(p.cons)
	if n == 0 {
		return nil, fmt.Errorf("%w: no variables", ErrBadModel)
	}
	if o.MaxIters == 0 {
		o.MaxIters = 50*(m+n) + 10000
	}
	var basis *Basis
	var sc *Scratch
	if warm != nil {
		basis, sc = warm.Basis, warm.Scratch
	}
	if sc == nil {
		sc = NewScratch()
	}
	if err := sc.ensureTemplate(p); err != nil {
		return nil, err
	}
	for v := range overrides {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("%w: bound override for unknown variable %d", ErrBadModel, v)
		}
	}
	for j := 0; j < n; j++ {
		lo, hi := p.lo[j], p.hi[j]
		if b, ok := overrides[j]; ok {
			lo, hi = b.Lo, b.Hi
		}
		if math.IsInf(lo, 0) || math.IsNaN(lo) || math.IsNaN(hi) {
			return nil, fmt.Errorf("%w: variable %d has bounds [%v, %v]", ErrBadModel, j, lo, hi)
		}
		if hi < lo {
			// An empty box is an infeasible model, not a structural error.
			return &Solution{Status: Infeasible}, nil
		}
	}

	pivots := 0
	if basis != nil {
		s := newSimplex(p, o, overrides, sc)
		if sol, ok := s.solveWarm(basis); ok {
			return sol, nil
		}
		// The warm attempt mutated the tableau; rebuild from the template
		// (a memcpy) and solve cold, carrying the wasted pivots into the
		// solve's count so the work is not under-reported.
		pivots = s.pivots
	}
	s := newSimplex(p, o, overrides, sc)
	s.pivots = pivots
	s.initColdBasis()
	sol, err := s.solve()
	if sol != nil && basis != nil {
		sol.FellBack = true
	}
	return sol, err
}
