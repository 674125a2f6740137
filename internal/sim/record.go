package sim

import (
	"errors"
	"fmt"
	"sync"

	"ctdvs/internal/ir"
	"ctdvs/internal/volt"
)

// ErrUnrecordable reports that a run cannot be captured as a replayable
// event stream: recording is disabled by configuration, or the run's event
// stream would exceed the recording budget. Callers that profile via
// Record/Replay fall back to per-mode simulation when errors.Is reports this
// sentinel; answers never change, only the amount of work.
var ErrUnrecordable = errors.New("sim: run is outside the replay invariance envelope")

// DefaultRecordBudget is the event-stream budget used when
// Config.RecordBudgetEvents is zero. At roughly 4 bytes per event it caps
// the recorder's working memory near a quarter gigabyte — far above every
// paper-scale workload, low enough to refuse runaway traces.
const DefaultRecordBudget = 1 << 26

// copySlice returns an exact-length copy; unlike an append onto nil it keeps
// empty slices non-nil, so replayed Results compare DeepEqual to Run's.
func copySlice[T any](src []T) []T {
	out := make([]T, len(src))
	copy(out, src)
	return out
}

// Memory-access outcomes, 2 bits per access in the recorded stream.
const (
	memL1Hit uint64 = 0
	memL2Hit uint64 = 1
	memMiss  uint64 = 2
)

// recorder accumulates the event stream of one instrumented run. It is
// scratch state owned by a Machine and reused across recordings, so the
// buffers grow once and then serve every later Record call (including calls
// by later borrowers of a pooled machine).
type recorder struct {
	budget   int64
	events   int64
	overflow bool

	trace      []uint32
	memOps     int64
	memBits    []uint64 // 2 bits per access, 32 per word, LSB-first
	branchOps  int64
	branchBits []uint64 // 1 bit per branch, 64 per word, set on mispredict
}

func (r *recorder) reset(budget int64) {
	r.budget = budget
	r.events = 0
	r.overflow = false
	r.trace = r.trace[:0]
	r.memOps = 0
	r.memBits = r.memBits[:0]
	r.branchOps = 0
	r.branchBits = r.branchBits[:0]
}

// addBlock notes one block execution; false means the budget is exhausted
// and the run must abort. The budget is enforced here — at block granularity
// — because every event belongs to some block's execution.
func (r *recorder) addBlock(b uint32) bool {
	if r.events >= r.budget {
		r.overflow = true
		return false
	}
	r.events++
	r.trace = append(r.trace, b)
	return true
}

func (r *recorder) addMem(outcome uint64) {
	r.events++
	i := r.memOps
	r.memOps++
	if int(i>>5) == len(r.memBits) {
		r.memBits = append(r.memBits, 0)
	}
	r.memBits[i>>5] |= outcome << uint((i&31)*2)
}

func (r *recorder) addBranch(mispredict bool) {
	r.events++
	i := r.branchOps
	r.branchOps++
	if int(i>>6) == len(r.branchBits) {
		r.branchBits = append(r.branchBits, 0)
	}
	if mispredict {
		r.branchBits[i>>6] |= 1 << uint(i&63)
	}
}

// Recording is the mode-invariant event stream of one fixed-mode run: the
// executed block sequence, the outcome of every memory access and branch,
// and the run facts that do not depend on the operating point. Under the
// paper's assumptions (control flow, cache behaviour and branch outcomes are
// frequency-independent; memory service time is absolute) the stream is
// identical at every (V, f) mode, so Replay reprices it at any mode with
// pure arithmetic — no IR interpretation, cache/predictor lookups, or RNG —
// and reproduces that mode's Run result bit for bit.
//
// The exported fields are the serializable stream (see package schedfile for
// the artifact codec); treat them as read-only. A bound Recording is
// immutable and safe for concurrent Replay calls.
type Recording struct {
	Program   string
	Input     string
	Config    Config
	NumBlocks int

	// Trace lists every executed block in order; the first entry is block 0
	// and the last is the exiting block.
	Trace []uint32
	// MemOps memory accesses, 2 bits each in MemBits (32 per word,
	// LSB-first), in access order: 0 = L1 hit, 1 = L2 hit, 2 = miss.
	MemOps  int64
	MemBits []uint64
	// BranchOps executed branch terminators, 1 bit each in BranchBits
	// (64 per word, LSB-first), set on mispredict.
	BranchOps  int64
	BranchBits []uint64

	// Mode-invariant run facts, copied verbatim into every replayed Result.
	EdgeCountsByID []int64
	PathCountsByID []int64
	L1Hits         int64
	L2Hits         int64
	MemMisses      int64
	Branches       int64
	Mispredicts    int64
	Params         Params

	layout *replayLayout
}

// Per-op and per-terminator template kinds compiled by Bind.
const (
	opCompute uint8 = iota
	opMem
)

const (
	termJump uint8 = iota
	termBranch
	termExit
)

// replayOp is one instruction template: replay consumes the recorded outcome
// stream for opMem and the precomputed per-mode increments for opCompute.
type replayOp struct {
	kind uint8
	dep  bool    // Compute.DependsOnLoad: drain memory channels first
	fcyc float64 // compute cycles as float64, the value run() scales by 1/f
}

type replayBlock struct {
	opLo, opHi int32
	nMem       int32
	term       uint8
}

// replayLayout is the compiled, program-derived side of a Recording: block
// op templates plus the same dense edge/path numbering the interpreter uses.
type replayLayout struct {
	info     []blockInfo
	blocks   []replayBlock
	ops      []replayOp
	numEdges int
	numPaths int
}

// layoutCache memoizes compiled replay layouts by program identity. A layout
// is derived from the program alone (never from a recording or a machine
// configuration) and is immutable once built, so every Recording of the same
// *ir.Program shares one — a warm sweep binding thousands of decoded
// recordings compiles each workload's templates once. Like Machine.compiled,
// entries live as long as the program pointer does; workloads come from a
// fixed generator registry, not per-request construction.
var layoutCache sync.Map // map[*ir.Program]*replayLayout

// layoutFor returns the cached replay layout of p, compiling it on first use.
func layoutFor(p *ir.Program) *replayLayout {
	if v, ok := layoutCache.Load(p); ok {
		return v.(*replayLayout)
	}
	lay := &replayLayout{}
	lay.info, _, lay.numEdges, lay.numPaths = buildBlockInfo(p)
	lay.blocks = make([]replayBlock, len(p.Blocks))
	for i, b := range p.Blocks {
		rb := &lay.blocks[i]
		rb.opLo = int32(len(lay.ops))
		for _, instr := range b.Instrs {
			switch v := instr.(type) {
			case ir.Compute:
				lay.ops = append(lay.ops, replayOp{kind: opCompute, dep: v.DependsOnLoad, fcyc: float64(int64(v.Cycles))})
			case ir.Load, ir.Store:
				lay.ops = append(lay.ops, replayOp{kind: opMem})
				rb.nMem++
			}
		}
		rb.opHi = int32(len(lay.ops))
		switch b.Term.(type) {
		case ir.Exit:
			rb.term = termExit
		case ir.Jump:
			rb.term = termJump
		case ir.Branch:
			rb.term = termBranch
		}
	}
	actual, _ := layoutCache.LoadOrStore(p, lay)
	return actual.(*replayLayout)
}

// Bind attaches the program's compiled replay templates (cached per program,
// see layoutFor) and validates the recorded stream against them: block IDs in
// range, every trace step a real CFG edge, the exit only at the end, and the
// event counts consistent with the per-block templates. Record binds the
// recordings it returns; codecs must Bind after decoding. Replay fails on an
// unbound Recording.
func (rec *Recording) Bind(p *ir.Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := rec.Config.Validate(); err != nil {
		return err
	}
	if p.Name != rec.Program {
		return errf("recording is for program %q, not %q", rec.Program, p.Name)
	}
	if len(p.Blocks) != rec.NumBlocks {
		return errf("recording has %d blocks, program %q has %d", rec.NumBlocks, p.Name, len(p.Blocks))
	}
	lay := layoutFor(p)
	if err := rec.validateStream(lay); err != nil {
		return err
	}
	rec.layout = lay
	return nil
}

// validateStream walks the trace against the compiled templates, so a
// decoded artifact can never drive Replay out of bounds.
func (rec *Recording) validateStream(lay *replayLayout) error {
	if len(rec.Trace) == 0 {
		return errf("recording has an empty trace")
	}
	if rec.Trace[0] != 0 {
		return errf("recording trace starts at block %d, not the entry", rec.Trace[0])
	}
	var mem, br int64
	prev := -1
	for ti, b32 := range rec.Trace {
		b := int(b32)
		if b >= len(lay.blocks) {
			return errf("recording trace names block %d of %d", b, len(lay.blocks))
		}
		if ti > 0 {
			if _, ok := lay.info[prev].succIdx[b]; !ok {
				return errf("recording trace takes nonexistent edge %d→%d", prev, b)
			}
		}
		rb := &lay.blocks[b]
		mem += int64(rb.nMem)
		switch rb.term {
		case termBranch:
			br++
		case termExit:
			if ti != len(rec.Trace)-1 {
				return errf("recording trace exits at step %d of %d", ti, len(rec.Trace))
			}
		}
		prev = b
	}
	if lay.blocks[rec.Trace[len(rec.Trace)-1]].term != termExit {
		return errf("recording trace does not end at an exit block")
	}
	if mem != rec.MemOps {
		return errf("recording trace implies %d memory accesses, stream has %d", mem, rec.MemOps)
	}
	if br != rec.BranchOps {
		return errf("recording trace implies %d branches, stream has %d", br, rec.BranchOps)
	}
	if want := int((rec.MemOps + 31) / 32); len(rec.MemBits) != want {
		return errf("recording has %d memory outcome words, want %d", len(rec.MemBits), want)
	}
	if want := int((rec.BranchOps + 63) / 64); len(rec.BranchBits) != want {
		return errf("recording has %d branch outcome words, want %d", len(rec.BranchBits), want)
	}
	if rec.L1Hits+rec.L2Hits+rec.MemMisses != rec.MemOps {
		return errf("recording cache outcomes sum to %d, stream has %d accesses",
			rec.L1Hits+rec.L2Hits+rec.MemMisses, rec.MemOps)
	}
	if rec.Branches != rec.BranchOps {
		return errf("recording branch count %d does not match stream's %d", rec.Branches, rec.BranchOps)
	}
	if len(rec.EdgeCountsByID) != lay.numEdges || len(rec.PathCountsByID) != lay.numPaths {
		return errf("recording counts (%d edges, %d paths) do not match program (%d, %d)",
			len(rec.EdgeCountsByID), len(rec.PathCountsByID), lay.numEdges, lay.numPaths)
	}
	return nil
}

// Record simulates the program at one fixed mode exactly like Run while
// capturing the mode-invariant event stream; the returned Result is
// identical to Run's at that mode. Only fixed-mode runs are recordable —
// governed and DVS-scheduled runs change modes mid-trace, which is outside
// the invariance envelope by construction, so the API does not offer them.
// Record reports an error wrapping ErrUnrecordable when recording is
// disabled or the stream exceeds the budget (see Config.RecordBudgetEvents).
func (m *Machine) Record(p *ir.Program, in ir.Input, mode volt.Mode) (*Recording, *Result, error) {
	if m.cfg.RecordBudgetEvents < 0 {
		return nil, nil, fmt.Errorf("%w: recording disabled by configuration (RecordBudgetEvents = %d)",
			ErrUnrecordable, m.cfg.RecordBudgetEvents)
	}
	budget := int64(m.cfg.RecordBudgetEvents)
	if budget == 0 {
		budget = DefaultRecordBudget
	}
	if m.scratch == nil {
		m.scratch = &recorder{}
	}
	m.scratch.reset(budget)
	m.rec = m.scratch
	res, err := m.run(p, in, nil, nil, mode)
	m.rec = nil
	if err != nil {
		if m.scratch.overflow {
			return nil, nil, fmt.Errorf("%w: program %q exceeded the recording budget of %d events",
				ErrUnrecordable, p.Name, budget)
		}
		return nil, nil, err
	}
	rec := &Recording{
		Program:   p.Name,
		Input:     in.Name,
		Config:    m.cfg,
		NumBlocks: len(p.Blocks),

		Trace:      copySlice(m.scratch.trace),
		MemOps:     m.scratch.memOps,
		MemBits:    copySlice(m.scratch.memBits),
		BranchOps:  m.scratch.branchOps,
		BranchBits: copySlice(m.scratch.branchBits),

		EdgeCountsByID: copySlice(res.EdgeCountsByID),
		PathCountsByID: copySlice(res.PathCountsByID),
		L1Hits:         res.L1Hits,
		L2Hits:         res.L2Hits,
		MemMisses:      res.MemMisses,
		Branches:       res.Branches,
		Mispredicts:    res.Mispredicts,
		Params:         res.Params,
	}
	if err := rec.Bind(p); err != nil {
		return nil, nil, err
	}
	return rec, res, nil
}
