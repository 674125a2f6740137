package sim

import (
	"fmt"
	"math/rand"

	"ctdvs/internal/cfg"
	"ctdvs/internal/ir"
	"ctdvs/internal/volt"
)

// BlockStat aggregates one block's activity over a run.
type BlockStat struct {
	Invocations int64
	TimeUS      float64 // wall time attributed to the block (stalls included)
	EnergyUJ    float64 // active energy (gated stall cycles consume nothing)
}

// Params are the aggregate program parameters of the paper's analytic model
// (Section 3.2 / Table 7), as measured by a profiling run.
type Params struct {
	NCache       int64   // cycles of cache-hit memory operations (L1 + L2 hits)
	NOverlap     int64   // computation cycles that may overlap memory
	NDependent   int64   // computation cycles dependent on memory
	TInvariantUS float64 // absolute main-memory service time (cache misses)
}

// Result is the outcome of simulating one program on one input.
type Result struct {
	Program string
	Input   string
	Mode    volt.Mode // the (single or initial) mode of the run

	TimeUS   float64
	EnergyUJ float64

	Blocks []BlockStat

	// EdgeCountsByID and PathCountsByID are dense traversal counters indexed
	// by the canonical cfg.FromProgram numbering: EdgeCountsByID[g.EdgeID(e)]
	// is the traversal count of e (the virtual entry edge is index 0), and
	// PathCountsByID[i] counts g.Paths[i]. Zero entries are present. Every
	// producer and the profiling pipeline deal only in these arrays; callers
	// that want cfg-keyed sparse maps derive them on demand with CountMaps.
	EdgeCountsByID []int64
	PathCountsByID []int64

	Params Params

	L1Hits, L2Hits, MemMisses int64
	Branches, Mispredicts     int64

	// LeakageEnergyUJ is the static-power energy over the whole run
	// (zero under the paper's assumptions); it is included in EnergyUJ but
	// not in per-block stats.
	LeakageEnergyUJ float64

	// DVS accounting (zero for fixed-mode runs).
	Transitions        int64
	TransitionTimeUS   float64
	TransitionEnergyUJ float64
}

// Schedule assigns a DVS mode to each control-flow edge, the paper's
// compile-time mode-set instruction placement. Edges absent from Assignment
// keep the current mode (no mode-set instruction on that edge).
type Schedule struct {
	Modes *volt.ModeSet
	// Assignment maps an edge to the index (into Modes) it sets. The virtual
	// entry edge (cfg.Entry → 0) may also carry an assignment.
	Assignment map[cfg.Edge]int
	// Initial is the mode index the machine is in before the entry edge.
	Initial int
	// Regulator prices mode transitions.
	Regulator volt.Regulator
}

// Machine simulates ir programs under a fixed configuration. A Machine may
// be reused across runs; each run resets microarchitectural state. A Machine
// is NOT safe for concurrent use — the caches and predictor are per-machine
// mutable state — so parallel callers must build (or pool) one Machine per
// goroutine; see exp.Config for an example.
type Machine struct {
	cfg  Config
	pred *predictor

	// rec is non-nil only while Record's instrumented run is in flight;
	// scratch is the reusable recorder buffer it points at, retained across
	// recordings (and across pool borrowers, see exp.Config) so steady-state
	// recording allocates nothing beyond the sealed Recording itself.
	rec     *recorder
	scratch *recorder

	// EdgeHook, when non-nil, is invoked on every control-flow edge
	// traversal (including the virtual entry edge, with from == cfg.Entry)
	// before the destination block executes. It exists for tracing tools —
	// notably the Ball–Larus path profiler in package paths — and must not
	// retain the arguments beyond the call.
	EdgeHook func(from, to int)

	// compiled caches CompileProgram results by program identity; it
	// survives Reset deliberately, so a pooled machine lowers each workload
	// once across all its borrowers. Compilations embed only immutable
	// program/config-derived tables, never run state, so sharing them across
	// resets cannot leak one run into the next.
	compiled map[*ir.Program]*CompiledProgram

	// buf holds the pooled per-run dense counters the compiled kernel
	// executes against; cleared on run entry and by Reset.
	buf runBuffers

	// rng is the per-run pseudorandom source, re-seeded on every run entry so
	// reuse draws exactly the sequence a fresh rand.New(rand.NewSource(seed))
	// would. Like compiled, it survives Reset: a re-seeded generator carries
	// no state between runs, it only spares the allocation.
	rng *rand.Rand

	// interp, when non-nil, runs every simulation instead of the compiled
	// kernel. Only tests set it, to install the reference interpreter (see
	// refMachine in compile_test.go); like the configuration, it survives
	// Reset.
	interp func(p *ir.Program, in ir.Input, sched *Schedule, gov *govRun, initial volt.Mode) (*Result, error)
}

// New builds a machine, validating the configuration.
func New(c Config) (*Machine, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Machine{cfg: c, pred: newPredictor(c.PredictorEntries)}, nil
}

// MustNew is New but panics on error.
func MustNew(c Config) *Machine {
	m, err := New(c)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// rngFor returns the machine's run RNG positioned at the start of seed's
// sequence. rand.Source.Seed resets the generator to the exact state
// rand.NewSource(seed) constructs, so every run still sees the same draws
// regardless of what earlier runs consumed.
func (m *Machine) rngFor(seed int64) *rand.Rand {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(seed))
		return m.rng
	}
	m.rng.Seed(seed)
	return m.rng
}

// Reset returns the machine to its post-New state: cold caches, cold
// predictor, no edge hook. Individual runs already reset microarchitectural
// state on entry; Reset exists for machine pools (see exp.Config), where a
// machine handed back by one experiment must not leak its EdgeHook — or,
// if future state outlives run() — into the next borrower.
func (m *Machine) Reset() {
	m.pred.reset()
	m.EdgeHook = nil
	m.rec = nil
	m.buf.clear()
}

// Run simulates the program on the given input entirely at one DVS mode.
func (m *Machine) Run(p *ir.Program, in ir.Input, mode volt.Mode) (*Result, error) {
	return m.run(p, in, nil, nil, mode)
}

// govRun carries the run-time governor configuration through a run.
type govRun struct {
	modes      *volt.ModeSet
	reg        volt.Regulator
	intervalUS float64
	g          Governor
}

func (m *Machine) runGoverned(p *ir.Program, in ir.Input, modes *volt.ModeSet,
	reg volt.Regulator, initial int, intervalUS float64, g Governor) (*Result, error) {
	gr := &govRun{modes: modes, reg: reg, intervalUS: intervalUS, g: g}
	res, err := m.run(p, in, nil, gr, modes.Mode(initial))
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunDVS simulates the program under a DVS schedule, charging regulator
// time/energy at every dynamic mode change.
func (m *Machine) RunDVS(p *ir.Program, in ir.Input, sched *Schedule) (*Result, error) {
	if sched == nil || sched.Modes == nil {
		return nil, errf("nil schedule")
	}
	if sched.Initial < 0 || sched.Initial >= sched.Modes.Len() {
		return nil, errf("initial mode %d out of range", sched.Initial)
	}
	for e, mi := range sched.Assignment {
		if mi < 0 || mi >= sched.Modes.Len() {
			return nil, errf("edge %v assigned invalid mode %d", e, mi)
		}
	}
	return m.run(p, in, sched, nil, sched.Modes.Mode(sched.Initial))
}

// blockInfo is the precomputed per-block structure used by the interpreter.
type blockInfo struct {
	preds   []int // predecessor block IDs; cfg.Entry included for block 0
	succs   []int // deduplicated successor block IDs, in terminator order
	predIdx map[int]int
	succIdx map[int]int
	// edgeBase is the cfg.FromProgram ID of edge (this block → succs[0]);
	// successor s is edge edgeBase+s (the virtual entry edge is ID 0).
	// pathBase is the index of the block's first local path in cfg's
	// (Mid, In, Out)-sorted path list: the path preds[h] → block → succs[s]
	// has index pathBase + h·len(succs) + succRank[s], where succRank ranks
	// the successors by ascending block ID (preds are already ascending).
	edgeBase int
	pathBase int
	succRank []int
}

// run dispatches a simulation to the compiled kernel, or to the interp hook
// when a test has installed the reference interpreter, the oracle the
// compiled kernel is property-tested against (see compile_test.go).
func (m *Machine) run(p *ir.Program, in ir.Input, sched *Schedule, gov *govRun, initial volt.Mode) (*Result, error) {
	if m.interp != nil {
		return m.interp(p, in, sched, gov, initial)
	}
	cp, err := m.compiledFor(p)
	if err != nil {
		return nil, err
	}
	return m.runCompiled(cp, in, sched, gov, initial)
}

// buildBlockInfo precomputes predecessor/successor indexing and the dense
// edge/path numbering that mirrors cfg.FromProgram (entry edge first, then
// blocks in ID order with successors in terminator order; paths sorted by
// (Mid, In, Out)). It also returns the largest condition ID in use and the
// total edge and path counts.
func buildBlockInfo(p *ir.Program) (info []blockInfo, maxCond, numEdges, numPaths int) {
	n := len(p.Blocks)
	info = make([]blockInfo, n)
	for i := range info {
		info[i].predIdx = make(map[int]int)
		info[i].succIdx = make(map[int]int)
	}
	addPred := func(b, pred int) {
		bi := &info[b]
		if _, ok := bi.predIdx[pred]; ok {
			return
		}
		bi.predIdx[pred] = len(bi.preds)
		bi.preds = append(bi.preds, pred)
	}
	addPred(0, cfg.Entry)
	for _, b := range p.Blocks {
		bi := &info[b.ID]
		for _, t := range b.Term.Targets() {
			if _, ok := bi.succIdx[t]; ok {
				continue
			}
			bi.succIdx[t] = len(bi.succs)
			bi.succs = append(bi.succs, t)
			addPred(t, b.ID)
		}
		if br, ok := b.Term.(ir.Branch); ok {
			switch c := br.Cond.(type) {
			case ir.LoopCond:
				if c.ID > maxCond {
					maxCond = c.ID
				}
			case ir.ProbCond:
				if c.ID > maxCond {
					maxCond = c.ID
				}
			}
		}
	}
	numEdges = 1 // the virtual entry edge
	for i := range info {
		bi := &info[i]
		bi.succRank = make([]int, len(bi.succs))
		for s, to := range bi.succs {
			for _, other := range bi.succs {
				if other < to {
					bi.succRank[s]++
				}
			}
		}
		bi.edgeBase = numEdges
		numEdges += len(bi.succs)
		bi.pathBase = numPaths
		numPaths += len(bi.preds) * len(bi.succs)
	}
	return info, maxCond, numEdges, numPaths
}

// CountMaps derives sparse cfg-keyed edge and path count maps from the
// result's dense counters. p must be the program the result was simulated
// from; the dense arrays must match its numbering. The simulator's hot paths
// deal only in the dense arrays — the maps exist for callers (and tests)
// that want to look counts up by edge or path value.
func (res *Result) CountMaps(p *ir.Program) (map[cfg.Edge]int64, map[cfg.Path]int64, error) {
	info, _, numEdges, numPaths := buildBlockInfo(p)
	if len(res.EdgeCountsByID) != numEdges || len(res.PathCountsByID) != numPaths {
		return nil, nil, errf("result counts (%d edges, %d paths) do not match program %q (%d, %d)",
			len(res.EdgeCountsByID), len(res.PathCountsByID), p.Name, numEdges, numPaths)
	}
	edges, paths := countMaps(info, res.EdgeCountsByID, res.PathCountsByID)
	return edges, paths, nil
}

// countMaps derives sparse edge/path maps from the dense counts.
// Zero counts are omitted, except the entry edge, which is always present.
func countMaps(info []blockInfo, edgesByID, pathsByID []int64) (map[cfg.Edge]int64, map[cfg.Path]int64) {
	edges := make(map[cfg.Edge]int64)
	paths := make(map[cfg.Path]int64)
	edges[cfg.Edge{From: cfg.Entry, To: 0}] = edgesByID[0]
	for i := range info {
		bi := &info[i]
		ns := len(bi.succs)
		for s, to := range bi.succs {
			if c := edgesByID[bi.edgeBase+s]; c > 0 {
				edges[cfg.Edge{From: i, To: to}] = c
			}
		}
		for h, pred := range bi.preds {
			for s, to := range bi.succs {
				if c := pathsByID[bi.pathBase+h*ns+bi.succRank[s]]; c > 0 {
					paths[cfg.Path{In: pred, Mid: i, Out: to}] = c
				}
			}
		}
	}
	return edges, paths
}

// FormatParams renders Params in the units of the paper's Table 7.
func FormatParams(p Params) string {
	return fmt.Sprintf("Ncache=%.1fK cycles, Noverlap=%.1fK cycles, Ndependent=%.1fK cycles, tinvariant=%.1fµs",
		float64(p.NCache)/1e3, float64(p.NOverlap)/1e3, float64(p.NDependent)/1e3, p.TInvariantUS)
}
