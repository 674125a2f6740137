// Package milp implements a branch-and-bound mixed-integer linear program
// solver on top of the simplex engine in package lp. Together they replace
// the AMPL + CPLEX toolchain of the original paper (Section 5.3) with a
// self-contained, offline, stdlib-only implementation.
//
// The solver supports binary/integer restrictions on a subset of variables,
// optional SOS1 group hints (sets of binaries that sum to one, which is the
// dominant structure of the DVS formulation — one mode variable per
// control-flow edge), best-bound node selection, objective-weighted
// most-fractional branching, an SOS1 rounding heuristic for early incumbents,
// and node/time limits.
//
// Node relaxations warm-start from the parent node's optimal basis via the
// dual simplex phase in package lp (see Result's warm-start statistics and
// Options.DisableWarmStart), falling back to a cold solve whenever a basis
// fails validation.
//
// # Parallel search
//
// Options.Workers > 1 turns on a deterministic parallel tree search: each
// round pops the best (bound, node-id) batch of open nodes from a shared
// priority queue, solves their LP relaxations concurrently on a fixed pool
// of workers, and then commits the results sequentially in the same
// (bound, node-id) order — pruning, incumbent updates, and branching all
// happen in the commit step. Because batch composition and commit order
// depend only on the queue state (never on worker timing), a solve with a
// given worker count is bit-for-bit reproducible, and Workers: 1 reproduces
// the serial algorithm exactly. See DESIGN.md, "Parallel solver".
package milp

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"ctdvs/internal/lp"
)

// Problem is a mixed-integer linear program: an LP plus integrality
// restrictions.
type Problem struct {
	// LP is the relaxation. Solve does not modify it (all per-node bound
	// restrictions go through lp.Problem.SolveBounded), which is what lets
	// workers share it.
	LP *lp.Problem
	// Integers lists the variables restricted to integer values. For the DVS
	// formulation these are the 0/1 mode variables.
	Integers []int
	// SOS1 optionally lists groups of binary variables of which exactly one
	// is 1 (enforced by an equality constraint already present in LP). The
	// groups guide the rounding heuristic; they are hints, not constraints.
	SOS1 [][]int
}

// Status describes the outcome of a MILP solve.
type Status int

// Solve outcomes.
const (
	// Optimal means the incumbent was proven optimal (within Options.Gap).
	Optimal Status = iota
	// Feasible means a limit stopped the search with an incumbent in hand.
	Feasible
	// Infeasible means no integer point satisfies the constraints.
	Infeasible
	// Unbounded means the relaxation is unbounded below.
	Unbounded
	// NoSolution means a limit stopped the search before any incumbent.
	NoSolution
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case NoSolution:
		return "no-solution"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Options tunes the search. The zero value selects defaults.
type Options struct {
	// TimeLimit bounds wall-clock search time; 0 means unlimited.
	TimeLimit time.Duration
	// MaxNodes bounds the number of branch-and-bound nodes; 0 selects 200000.
	MaxNodes int
	// Gap is the relative optimality gap at which the search stops and the
	// incumbent is declared optimal; 0 selects 1e-7.
	Gap float64
	// IntTol is the integrality tolerance; 0 selects 1e-6.
	IntTol float64
	// Workers is the number of concurrent LP relaxation solvers; 0 selects
	// runtime.GOMAXPROCS(0), 1 selects the serial search. Any worker count
	// yields the same objective and, under the deterministic (bound,
	// node-id) tie-break, the same incumbent on problems with a unique
	// optimum; a given worker count is bit-for-bit reproducible run to run.
	Workers int
	// ParallelThreshold gates the worker pool behind tree size: the pool
	// (and with it multi-node batches) starts only once a round begins with
	// at least this many open nodes. Warm-started searches routinely close
	// in ~15 nodes, where pool startup and batch speculation cost more than
	// they recover — such solves now run the serial algorithm verbatim and
	// report AutoSerialized. The gate depends only on queue state, never on
	// worker timing, so solves stay bit-for-bit reproducible; rounds before
	// the gate opens are exactly the Workers == 1 search. 0 selects
	// DefaultParallelThreshold; negative starts the pool immediately
	// (the pre-gating behaviour).
	ParallelThreshold int
	// DisableWarmStart forces every node relaxation to solve cold from a
	// fresh two-phase start instead of warm-starting from the parent's
	// optimal basis. Benchmarking and debugging only; warm starts are on by
	// default and fall back to cold solves automatically when a basis
	// fails validation.
	DisableWarmStart bool
	// AnalyticBound, when set, supplies a proven lower bound (in objective
	// units) on the best integer solution of the subproblem whose variable
	// boxes are the root bounds composed with the given overrides; a nil or
	// empty map means the root box. The second return reports whether a
	// bound is available for that box at all.
	//
	// The search consults it at two points: once at the root, where an
	// SOS1-rounding incumbent within Gap of the bound proves optimality
	// without branching; and at every child-node creation, where a bound
	// that cannot beat the incumbent discards the node before its
	// dual-simplex solve (counted in Result.AnalyticPrunes) and otherwise
	// tightens the node's best-bound priority.
	//
	// The callback must be a pure function of the overrides (plus whatever
	// immutable problem data it closed over): it is called only from the
	// coordinator goroutine, in deterministic order, so any worker count
	// stays bit-for-bit reproducible — but an impure bound would break
	// run-to-run determinism. It must not mutate the map. A callback that
	// always declines (returns false) leaves the search exactly as with no
	// callback.
	AnalyticBound func(overrides map[int]lp.Bound) (float64, bool)
	// LP tunes the relaxation solver.
	LP *lp.Options
}

// Result is the outcome of a MILP solve.
type Result struct {
	Status    Status
	X         []float64 // incumbent point (Optimal or Feasible)
	Objective float64   // incumbent objective
	Bound     float64   // best proven lower bound on the optimum
	Nodes     int       // branch-and-bound nodes committed
	LPIters   int       // total LP solves performed (incl. speculative batch solves)
	Workers   int       // worker count the search ran with
	// AutoSerialized reports that Workers > 1 was requested but the open-node
	// count never reached Options.ParallelThreshold, so the whole search ran
	// serially and no worker goroutine was ever started.
	AutoSerialized bool
	SolveTime      time.Duration

	// Warm-start statistics. Every LP solve lands in exactly one of the
	// three counters: WarmSolves re-solved from a parent basis via the dual
	// simplex, WarmFallbacks attempted a warm start but completed cold
	// after validation failed, and ColdSolves never had a basis (the root,
	// the rounding heuristic, and every node when warm starts are
	// disabled). All three are deterministic for a given worker count.
	WarmSolves    int
	ColdSolves    int
	WarmFallbacks int
	// AnalyticPrunes counts branch-and-bound children discarded by
	// Options.AnalyticBound before any dual-simplex solve was paid for
	// them. Like the warm-start counters it is deterministic for a given
	// worker count; it stays zero when no bound callback is set or the
	// callback declines every box.
	AnalyticPrunes int
	// LPPivots is the total simplex pivot count across all LP solves
	// (including basis-restoration pivots), the search's work metric.
	LPPivots int
	// LPTime is the cumulative wall time spent inside the LP solver summed
	// over all solves; with parallel workers it can exceed SolveTime.
	LPTime time.Duration
}

// WarmHitRate returns the fraction of LP solves that completed from a warm
// start (0 when nothing was solved).
func (r *Result) WarmHitRate() float64 {
	total := r.WarmSolves + r.ColdSolves + r.WarmFallbacks
	if total == 0 {
		return 0
	}
	return float64(r.WarmSolves) / float64(total)
}

// PivotsPerNode returns the mean simplex pivot count per committed node (0
// when no nodes were committed).
func (r *Result) PivotsPerNode() float64 {
	if r.Nodes == 0 {
		return 0
	}
	return float64(r.LPPivots) / float64(r.Nodes)
}

// bound aliases the LP solver's per-call variable box; branch-and-bound
// nodes are sets of these, keyed by variable.
type bound = lp.Bound

// node is one branch-and-bound subproblem: bound overrides relative to the
// root, the parent relaxation value used as its priority, a creation id
// that breaks priority ties deterministically, and the parent's optimal
// basis to warm-start this node's relaxation (nil solves cold). The basis
// is immutable and shared by both children of a branching.
type node struct {
	id        int
	overrides map[int]bound
	lpBound   float64
	basis     *lp.Basis
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].lpBound != h[j].lpBound {
		return h[i].lpBound < h[j].lpBound
	}
	return h[i].id < h[j].id
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Solve runs branch and bound and returns the best integer solution found.
func Solve(p *Problem, opts *Options) (*Result, error) {
	return SolveContext(context.Background(), p, opts)
}

// SolveContext is Solve under a context: the search polls ctx between
// branch-and-bound rounds and, when it is cancelled or its deadline passes,
// abandons the tree and returns ctx's error instead of a result. Callers that
// want the best incumbent found so far should use Options.TimeLimit (which
// returns a Feasible result); the context path is for work whose requester is
// gone — a disconnected client's solve must not be mistaken for a completed
// one, and in particular must never be cached.
func SolveContext(ctx context.Context, p *Problem, opts *Options) (*Result, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 200000
	}
	if o.Gap == 0 {
		o.Gap = 1e-7
	}
	if o.IntTol == 0 {
		o.IntTol = 1e-6
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ParallelThreshold == 0 {
		o.ParallelThreshold = DefaultParallelThreshold
	}
	if p.LP == nil {
		return nil, errors.New("milp: nil LP")
	}
	for _, v := range p.Integers {
		if v < 0 || v >= p.LP.NumVars() {
			return nil, fmt.Errorf("milp: integer variable %d out of range", v)
		}
	}

	s := &search{
		prob:         p,
		opts:         o,
		start:        time.Now(),
		done:         ctx.Done(),
		coordScratch: lp.NewScratch(),
	}
	// Remember root bounds so per-node overrides can be composed with them.
	s.rootLo = make([]float64, p.LP.NumVars())
	s.rootHi = make([]float64, p.LP.NumVars())
	for j := 0; j < p.LP.NumVars(); j++ {
		s.rootLo[j], s.rootHi[j] = p.LP.Bounds(j)
	}
	res := s.run()
	if s.interrupted {
		// The caller is gone; whatever the tree held is abandoned rather
		// than reported as a (partial) solve result.
		return nil, ctx.Err()
	}
	res.Workers = o.Workers
	res.AutoSerialized = o.Workers > 1 && s.jobs == nil
	res.SolveTime = time.Since(s.start)
	res.WarmSolves = s.warm
	res.ColdSolves = s.cold
	res.WarmFallbacks = s.fellBack
	res.AnalyticPrunes = s.analyticPrunes
	res.LPPivots = s.lpPivots
	res.LPTime = s.lpTime
	return res, nil
}

type search struct {
	prob  *Problem
	opts  Options
	start time.Time

	// done is the solve context's cancellation channel, polled once per
	// branch-and-bound round; interrupted records that the search stopped
	// because of it (as opposed to a time or node limit).
	done        <-chan struct{}
	interrupted bool

	rootLo, rootHi []float64

	incumbent    []float64
	incumbentObj float64
	haveInc      bool

	nodes   int
	lpIters int
	nextID  int

	// coordScratch is the coordinator goroutine's reusable simplex state
	// (root solve, rounding heuristic, serial node solves, and the head
	// node of each parallel batch).
	coordScratch *lp.Scratch

	// Warm-start statistics, accumulated on the coordinator only (after
	// each batch joins), so no synchronization is needed and the counts
	// are deterministic for a given worker count.
	warm, cold, fellBack, lpPivots int
	lpTime                         time.Duration

	// analyticPrunes counts children Options.AnalyticBound discarded before
	// their LP solve. Coordinator only, like the warm-start statistics.
	analyticPrunes int

	// Worker pool, started lazily by run() once a round opens with at least
	// Options.ParallelThreshold nodes (nil while gated and always nil when
	// Workers == 1). Jobs are per-node LP solves; the coordinator fans a
	// batch out, waits on the batch WaitGroup, and then commits sequentially.
	jobs chan lpJob
	wg   sync.WaitGroup
}

// DefaultParallelThreshold is the open-node count at which a Workers > 1
// search starts its worker pool when Options.ParallelThreshold is zero. Warm
// starts shrank typical paper-workload trees to ~15 nodes, well under this,
// so those solves auto-serialize.
const DefaultParallelThreshold = 32

// lpJob asks a worker to solve one node's relaxation into sols/errs[idx],
// recording the solve's wall time in durs[idx].
type lpJob struct {
	nd   *node
	idx  int
	sols []*lp.Solution
	errs []error
	durs []time.Duration
	done *sync.WaitGroup
}

// worker owns one lp.Scratch for its lifetime, so every node solve it
// performs reuses the same tableau slab and row template.
func (s *search) worker() {
	defer s.wg.Done()
	sc := lp.NewScratch()
	for jb := range s.jobs {
		start := time.Now()
		jb.sols[jb.idx], jb.errs[jb.idx] = s.solveNode(jb.nd, sc)
		jb.durs[jb.idx] = time.Since(start)
		jb.done.Done()
	}
}

func (s *search) timeUp() bool {
	return s.opts.TimeLimit > 0 && time.Since(s.start) > s.opts.TimeLimit
}

// cancelled polls the solve context (non-blocking) and latches interrupted.
func (s *search) cancelled() bool {
	if s.interrupted {
		return true
	}
	select {
	case <-s.done:
		s.interrupted = true
		return true
	default:
		return false
	}
}

// solveNode solves one node's relaxation, warm-starting from the parent
// basis unless disabled. It does not touch search state: workers call it
// concurrently with worker-local scratches.
func (s *search) solveNode(nd *node, sc *lp.Scratch) (*lp.Solution, error) {
	ws := &lp.WarmStart{Scratch: sc}
	if !s.opts.DisableWarmStart {
		ws.Basis = nd.basis
	}
	return s.prob.LP.SolveBoundedWarm(s.opts.LP, nd.overrides, ws)
}

// countSolve files one finished LP solve into the warm-start statistics.
// Coordinator only.
func (s *search) countSolve(sol *lp.Solution, d time.Duration) {
	s.lpTime += d
	if sol == nil {
		return
	}
	s.lpPivots += sol.Pivots
	switch {
	case sol.Warm:
		s.warm++
	case sol.FellBack:
		s.fellBack++
	default:
		s.cold++
	}
}

// solveWith solves the relaxation under the given bound overrides on the
// coordinator goroutine (the root relaxation and the rounding heuristic),
// always cold: the heuristic fixes every binary at once, far from any
// parent basis.
func (s *search) solveWith(ov map[int]bound) (*lp.Solution, error) {
	s.lpIters++
	start := time.Now()
	sol, err := s.prob.LP.SolveBoundedWarm(s.opts.LP, ov, &lp.WarmStart{Scratch: s.coordScratch})
	s.countSolve(sol, time.Since(start))
	return sol, err
}

// solveBatch solves every node's relaxation, fanning out across the worker
// pool when one exists. Results are indexed like the batch.
func (s *search) solveBatch(batch []*node) ([]*lp.Solution, []error) {
	sols := make([]*lp.Solution, len(batch))
	errs := make([]error, len(batch))
	durs := make([]time.Duration, len(batch))
	s.lpIters += len(batch)
	if s.jobs == nil || len(batch) == 1 {
		for i, nd := range batch {
			start := time.Now()
			sols[i], errs[i] = s.solveNode(nd, s.coordScratch)
			durs[i] = time.Since(start)
		}
	} else {
		var done sync.WaitGroup
		done.Add(len(batch) - 1)
		for i := 1; i < len(batch); i++ {
			s.jobs <- lpJob{nd: batch[i], idx: i, sols: sols, errs: errs, durs: durs, done: &done}
		}
		// The coordinator pulls its weight on the head node while workers run.
		start := time.Now()
		sols[0], errs[0] = s.solveNode(batch[0], s.coordScratch)
		durs[0] = time.Since(start)
		done.Wait()
	}
	for i := range sols {
		s.countSolve(sols[i], durs[i])
	}
	return sols, errs
}

// fractional picks the branching variable: the fractional integer variable
// with the largest objective-weighted fractionality dist·(1+|c_v|), or -1 if
// the point is integral within tolerance. The objective weight steers the
// search toward the high-energy mode variables whose resolution moves the
// bound most; it also makes tree shape far less sensitive to which of many
// alternate optimal vertices the relaxation solver happens to return, which
// matters because warm-started re-solves terminate at different (equally
// optimal) vertices than cold solves on the highly degenerate DVS LPs.
func (s *search) fractional(x []float64) int {
	best, bestScore := -1, 0.0
	for _, v := range s.prob.Integers {
		f := x[v] - math.Floor(x[v])
		dist := math.Min(f, 1-f)
		if dist <= s.opts.IntTol {
			continue
		}
		score := dist * (1 + math.Abs(s.prob.LP.Objective(v)))
		if score > bestScore {
			best, bestScore = v, score
		}
	}
	return best
}

// accept records a new incumbent if it improves on the current one.
func (s *search) accept(x []float64, obj float64) {
	if !s.haveInc || obj < s.incumbentObj-1e-12 {
		s.incumbent = append([]float64(nil), x...)
		s.incumbentObj = obj
		s.haveInc = true
	}
}

// roundingHeuristic tries to convert a fractional relaxation point into an
// integer-feasible incumbent: SOS1 groups pick their argmax member; stray
// integer variables round to nearest. The rounded binaries are fixed and the
// LP re-solved so continuous variables adapt; a feasible integral solve
// becomes an incumbent.
func (s *search) roundingHeuristic(x []float64, ov map[int]bound) {
	fixed := make(map[int]bound, len(s.prob.Integers)+len(ov))
	for v, b := range ov {
		fixed[v] = b
	}
	inGroup := make(map[int]bool)
	for _, g := range s.prob.SOS1 {
		argmax, best := -1, -1.0
		for _, v := range g {
			// Respect existing overrides: a variable fixed to 0 cannot be
			// chosen.
			_, hi := boundsOf(v, fixed, s.rootLo, s.rootHi)
			if hi < 0.5 {
				inGroup[v] = true
				continue
			}
			if x[v] > best {
				argmax, best = v, x[v]
			}
			inGroup[v] = true
		}
		if argmax < 0 {
			return // group fully excluded; heuristic cannot help here
		}
		for _, v := range g {
			if v == argmax {
				fixed[v] = bound{Lo: 1, Hi: 1}
			} else {
				fixed[v] = bound{Lo: 0, Hi: 0}
			}
		}
	}
	for _, v := range s.prob.Integers {
		if inGroup[v] {
			continue
		}
		r := math.Round(x[v])
		lo, hi := boundsOf(v, fixed, s.rootLo, s.rootHi)
		if r < lo || r > hi {
			return
		}
		fixed[v] = bound{Lo: r, Hi: r}
	}
	sol, err := s.solveWith(fixed)
	if err != nil || sol.Status != lp.Optimal {
		return
	}
	if s.fractional(sol.X) >= 0 {
		return
	}
	s.accept(sol.X, sol.Objective)
}

func boundsOf(v int, ov map[int]bound, rootLo, rootHi []float64) (float64, float64) {
	if b, ok := ov[v]; ok {
		return b.Lo, b.Hi
	}
	return rootLo[v], rootHi[v]
}

func (s *search) run() *Result {
	rootSol, err := s.solveWith(nil)
	if err != nil {
		return &Result{Status: NoSolution}
	}
	switch rootSol.Status {
	case lp.Infeasible:
		return &Result{Status: Infeasible, Nodes: 1, LPIters: s.lpIters}
	case lp.Unbounded:
		return &Result{Status: Unbounded, Nodes: 1, LPIters: s.lpIters}
	case lp.IterationLimit:
		return &Result{Status: NoSolution, Nodes: 1, LPIters: s.lpIters}
	}

	// Root dual bound: the analytic (continuous + quantization) bound is a
	// proven lower bound on the integer optimum, so an SOS1-rounding
	// incumbent within Gap of it is optimal before any branching. Even when
	// the check fails, the bound may tighten the root's best-bound priority.
	rootBound := rootSol.Objective
	if s.opts.AnalyticBound != nil {
		if ab, ok := s.opts.AnalyticBound(nil); ok {
			s.roundingHeuristic(rootSol.X, nil)
			if s.haveInc && !better(ab, s.incumbentObj, s.opts.Gap) {
				s.nodes = 1
				return s.finish(Optimal, math.Max(ab, rootBound))
			}
			if ab > rootBound {
				rootBound = ab
			}
		}
	}

	// The worker pool starts lazily: small trees (the warm-started common
	// case) finish before the open-node count ever reaches the threshold and
	// run the serial algorithm verbatim, paying nothing for the unused
	// Workers setting.
	defer func() {
		if s.jobs != nil {
			close(s.jobs)
			s.wg.Wait()
		}
	}()
	spawnIfBig := func(open int) {
		if s.jobs != nil || s.opts.Workers <= 1 || open < s.opts.ParallelThreshold {
			return
		}
		s.jobs = make(chan lpJob)
		for i := 0; i < s.opts.Workers; i++ {
			s.wg.Add(1)
			go s.worker()
		}
	}

	h := &nodeHeap{{id: 0, overrides: map[int]bound{}, lpBound: rootBound, basis: rootSol.Basis}}
	heap.Init(h)
	s.nextID = 1
	bestBound := rootBound

	for h.Len() > 0 {
		if s.nodes >= s.opts.MaxNodes || s.timeUp() || s.cancelled() {
			return s.finish(Feasible, bestBound)
		}
		head := heap.Pop(h).(*node)
		bestBound = head.lpBound
		if s.haveInc && !better(head.lpBound, s.incumbentObj, s.opts.Gap) {
			// Best-bound order: nothing left can improve the incumbent.
			return s.finish(Optimal, head.lpBound)
		}

		// Form this round's batch: the best (bound, id) open nodes that are
		// not already closed by the incumbent, up to one LP per worker and
		// never past the node limit. Until the open-node count crosses the
		// parallel threshold the batch stays a single node, which is exactly
		// the serial search.
		spawnIfBig(h.Len() + 1)
		maxBatch := 1
		if s.jobs != nil {
			maxBatch = s.opts.Workers
		}
		batch := append(make([]*node, 0, maxBatch), head)
		for len(batch) < maxBatch && h.Len() > 0 && s.nodes+len(batch) < s.opts.MaxNodes {
			nd := (*h)[0]
			if s.haveInc && !better(nd.lpBound, s.incumbentObj, s.opts.Gap) {
				break // the search terminates at this node next round
			}
			heap.Pop(h)
			batch = append(batch, nd)
		}

		sols, errs := s.solveBatch(batch)

		// Commit sequentially in (bound, id) order; all search-state
		// decisions are made here, so worker timing never leaks into the
		// result.
		for i, nd := range batch {
			if s.haveInc && !better(nd.lpBound, s.incumbentObj, s.opts.Gap) {
				// An incumbent committed earlier in this batch closed this
				// node's gap: prune it. (Unlike the head-of-round check this
				// cannot end the search — children pushed by earlier batch
				// nodes may carry smaller bounds than nd and are still open.)
				continue
			}
			s.nodes++

			sol, err := sols[i], errs[i]
			if err != nil || sol.Status == lp.IterationLimit {
				continue // treat as unexplorable; bound stays conservative
			}
			if sol.Status != lp.Optimal {
				continue // infeasible subtree
			}
			if s.haveInc && !better(sol.Objective, s.incumbentObj, s.opts.Gap) {
				continue // dominated
			}

			branch := s.fractional(sol.X)
			if branch < 0 {
				s.accept(sol.X, sol.Objective)
				continue
			}

			// Heuristic incumbent from this relaxation point: always at the
			// root and whenever the incumbent is missing, and periodically
			// thereafter so pruning keeps a fresh bound (cheap relative to
			// the dives it prunes).
			if !s.haveInc || s.nodes%64 == 1 {
				s.roundingHeuristic(sol.X, nd.overrides)
			}

			lo, hi := boundsOf(branch, nd.overrides, s.rootLo, s.rootHi)
			f := sol.X[branch]
			down := cloneOverrides(nd.overrides)
			down[branch] = bound{Lo: lo, Hi: math.Floor(f)}
			up := cloneOverrides(nd.overrides)
			up[branch] = bound{Lo: math.Ceil(f), Hi: hi}
			// Both children warm-start from this node's optimal basis: the
			// tightened bound leaves it dual feasible (see lp/warm.go).
			s.pushChild(h, down, sol.Objective, sol.Basis)
			s.pushChild(h, up, sol.Objective, sol.Basis)
		}
	}

	if s.haveInc {
		return s.finish(Optimal, s.incumbentObj)
	}
	return &Result{Status: Infeasible, Nodes: s.nodes, LPIters: s.lpIters}
}

// pushChild files one freshly-branched subproblem into the open-node heap —
// unless the analytic bound for its box already proves it cannot beat the
// incumbent, in which case the child is discarded before any LP solve is
// paid for it. A surviving child's priority is the tighter of the parent
// relaxation value and the analytic bound, so best-bound selection (and the
// head-of-round optimality check) see the strongest proven bound either way.
// Coordinator only: runs inside the sequential commit step.
func (s *search) pushChild(h *nodeHeap, ov map[int]bound, lpBound float64, basis *lp.Basis) {
	if s.opts.AnalyticBound != nil {
		if ab, ok := s.opts.AnalyticBound(ov); ok {
			if s.haveInc && !better(ab, s.incumbentObj, s.opts.Gap) {
				s.analyticPrunes++
				return
			}
			if ab > lpBound {
				lpBound = ab
			}
		}
	}
	heap.Push(h, &node{id: s.nextID, overrides: ov, lpBound: lpBound, basis: basis})
	s.nextID++
}

// better reports whether objective obj improves on the incumbent by more
// than the relative gap.
func better(obj, incumbent, gap float64) bool {
	return obj < incumbent-gap*(1+math.Abs(incumbent))
}

func cloneOverrides(ov map[int]bound) map[int]bound {
	out := make(map[int]bound, len(ov)+1)
	for k, v := range ov {
		out[k] = v
	}
	return out
}

func (s *search) finish(st Status, bnd float64) *Result {
	res := &Result{
		Status:  st,
		Bound:   bnd,
		Nodes:   s.nodes,
		LPIters: s.lpIters,
	}
	if s.haveInc {
		res.X = s.incumbent
		res.Objective = s.incumbentObj
		// When the search stops because the best remaining relaxation
		// crossed the incumbent, the incumbent itself is the tightest
		// proven lower bound on the optimum.
		if res.Bound > res.Objective {
			res.Bound = res.Objective
		}
	} else if st != Infeasible && st != Unbounded {
		res.Status = NoSolution
	}
	return res
}
