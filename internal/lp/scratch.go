package lp

import (
	"fmt"
	"math"
)

// Scratch is reusable working storage for the simplex engine. A solver that
// performs many solves over the same Problem — the branch-and-bound search in
// package milp solves thousands of re-bounded relaxations — hands the same
// Scratch to every call, and the solver state, the tableau slab,
// bound/cost/status arrays and pivot buffers are all recycled: once the
// buffers have grown, a solve allocates only what it returns (the Solution,
// its X and its Basis).
//
// A Scratch also caches the raw constraint rows of the Problem it last saw
// (the coefficient matrix with GE rows normalized and slack columns placed),
// so repeat solves start from a memcpy instead of re-walking every
// constraint's term list. The cache is keyed on the Problem pointer and its
// mutation revision; touching the Problem invalidates it. Building it is
// also where the model's data is checked for NaN and infinities, once per
// revision.
//
// A Scratch must not be shared between concurrent solves. Each goroutine of a
// parallel search owns one.
type Scratch struct {
	prob *Problem
	rev  int
	n, m int

	// Template: raw rows (m × (n+m)), normalized rhs, and per-row slack
	// upper bounds, valid for (prob, rev).
	tslab   []float64
	trhs    []float64
	slackHi []float64

	// sx is the solver state of the current solve; newSimplex resets it.
	sx simplex

	// Per-solve working buffers, resized on demand and reused across solves.
	slab         []float64
	rows         [][]float64
	lo, hi, cost []float64
	stat         []varStatus
	basicRow     []int
	basis, artOf []int
	xb, rhs      []float64
	d, col       []float64
	phase1       []float64
	active, elim []int
	nz           []int // the current pivot row's nonzero columns
	taken        []bool

	// kernel, when non-nil, performs the row operations of every pivot
	// instead of the sparse kernel. Only tests set it, to install the
	// dense reference kernel (kernel_test.go), the oracle the sparse
	// kernel is held to bit for bit.
	kernel rowKernel
}

// rowKernel is the row-operation seam of pivot and elimPivot; see
// Scratch.kernel.
type rowKernel interface {
	pivot(s *simplex, r, enter int)
	elimPivot(s *simplex, r, enter int, elim []int)
}

// NewScratch returns an empty Scratch ready for its first solve.
func NewScratch() *Scratch { return &Scratch{} }

// ensureTemplate (re)builds the raw-row template if the scratch has not seen
// this (Problem, revision) before. It rejects a model whose objective,
// constraint coefficients or right-hand sides are NaN or infinite with
// ErrBadModel: the simplex needs a finite tableau, and its sparse row
// updates rely on one. (Bounds, which per-call overrides replace, are
// checked on every solve.)
func (sc *Scratch) ensureTemplate(p *Problem) error {
	if sc.prob == p && sc.rev == p.rev {
		return nil
	}
	sc.prob = nil // until the template is complete
	if err := p.checkFinite(); err != nil {
		return err
	}
	n, m := len(p.obj), len(p.cons)
	sc.prob, sc.rev, sc.n, sc.m = p, p.rev, n, m
	w := n + m
	sc.tslab = growF(sc.tslab, m*w)
	sc.trhs = growF(sc.trhs, m)
	sc.slackHi = growF(sc.slackHi, m)
	for i := range sc.tslab[:m*w] {
		sc.tslab[i] = 0
	}
	for i, c := range p.cons {
		row := sc.tslab[i*w : (i+1)*w]
		sign := 1.0
		if c.op == GE {
			sign = -1
		}
		for _, t := range c.terms {
			row[t.Var] += sign * t.Coef
		}
		row[n+i] = 1 // slack
		sc.trhs[i] = sign * c.rhs
		if c.op == EQ {
			sc.slackHi[i] = 0
		} else {
			sc.slackHi[i] = math.Inf(1)
		}
	}
	return nil
}

// checkFinite reports the first NaN or infinite objective coefficient,
// constraint coefficient or right-hand side.
func (p *Problem) checkFinite() error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	for j, c := range p.obj {
		if !finite(c) {
			return fmt.Errorf("%w: variable %d has objective coefficient %v", ErrBadModel, j, c)
		}
	}
	for i, c := range p.cons {
		for _, t := range c.terms {
			if !finite(t.Coef) {
				return fmt.Errorf("%w: constraint %d has coefficient %v on variable %d", ErrBadModel, i, t.Coef, t.Var)
			}
		}
		if !finite(c.rhs) {
			return fmt.Errorf("%w: constraint %d has right-hand side %v", ErrBadModel, i, c.rhs)
		}
	}
	return nil
}

// growF returns buf with capacity for at least size float64s (contents
// unspecified beyond what the caller overwrites).
func growF(buf []float64, size int) []float64 {
	if cap(buf) < size {
		return make([]float64, size)
	}
	return buf[:size]
}

// f64 slices a float64 buffer to length with at least capacity capacity,
// reallocating when the backing array is too small. Contents are stale; the
// caller initializes every cell it reads.
func f64(buf *[]float64, length, capacity int) []float64 {
	if cap(*buf) < capacity {
		*buf = make([]float64, capacity)
	}
	return (*buf)[:length]
}

// ints is f64 for []int.
func ints(buf *[]int, length, capacity int) []int {
	if cap(*buf) < capacity {
		*buf = make([]int, capacity)
	}
	return (*buf)[:length]
}

// stats is f64 for []varStatus.
func stats(buf *[]varStatus, length, capacity int) []varStatus {
	if cap(*buf) < capacity {
		*buf = make([]varStatus, capacity)
	}
	return (*buf)[:length]
}

// bools is f64 for []bool, with capacity equal to length.
func bools(buf *[]bool, length int) []bool {
	if cap(*buf) < length {
		*buf = make([]bool, length)
	}
	return (*buf)[:length]
}
