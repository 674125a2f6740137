package sim

import (
	"math"
	"math/bits"

	"ctdvs/internal/cfg"
	"ctdvs/internal/ir"
	"ctdvs/internal/volt"
)

// This file implements the compiled execution engine: CompileProgram lowers
// each basic block of an ir.Program to a static cost record once per
// (program, configuration), and runCompiled executes against those tables
// instead of re-walking blk.Instrs on every invocation. The lowering is the
// Wattch move — precomputed per-structure cost tables instead of re-deriving
// costs per event — combined with sim-fast-style specialization of the
// interpreter loop: a block visit becomes table lookups plus only the
// genuinely dynamic work (cache probes, predictor updates, memory-channel
// drain, RNG draws).
//
// Bit-for-bit fidelity with the reference interpreter (runReference, the
// test oracle in reference_test.go) comes from performing exactly its
// floating-point operations in exactly its order: the compiled kernel only
// hoists expressions whose operands cannot change between evaluations — the
// per-mode time/energy increments, recomputed with the reference
// expression shapes whenever the mode changes — and replaces interface
// dispatch, map lookups and per-run allocations with table indexing. The
// same expression shapes are shared with Recording.ReplayAll, so
// Run ↔ Record ↔ ReplayAll all agree bit for bit (asserted by the
// randomized property tests in compile_test.go and replay_test.go).

// Branch condition kinds of a compiled block terminator.
const (
	condNone uint8 = iota
	condLoop
	condProb
)

// cop is one lowered instruction: a compute chunk (cycle count pre-converted
// to the float64 the interpreter scales by 1/f) or a memory access with its
// stream descriptor flattened in — stride class, footprint and base resolved
// at compile time so the hot loop touches no ir.Stream. The recorded-stream
// op kinds opCompute/opMem are reused so the compiled tables and the replay
// templates stay in one vocabulary.
type cop struct {
	kind     uint8
	dep      bool  // Compute.DependsOnLoad: drain memory channels first
	random   bool  // opMem: random-offset stream (one RNG draw per access)
	fastWrap bool  // opMem: 0 ≤ stride < footprint, wrap by subtract not %
	stream   int32 // opMem: offset-cursor index (buf.streamOff)
	// count run-length-encodes consecutive accesses to the same stream
	// (loads and stores lower identically): the kernel replays the record
	// count times with the cursor held in a register, which is the same
	// access sequence the reference interpreter produces one instruction at
	// a time. 1 for opCompute.
	count int32
	cyc   int64 // opCompute: cycles, for Params accounting
	// fcyc is float64(cyc) for opCompute, the value scaled by 1/f.
	fcyc   float64
	stride int64  // opMem: ir.Stream.Stride
	ws     int64  // opMem: ir.Stream.WorkingSet
	base   uint64 // opMem: ir.Stream.Base
}

// csucc is one outgoing edge of a compiled block, resolved to indices the
// hot loop consumes without map lookups.
type csucc struct {
	block   int32 // successor block ID
	rank    int32 // ascending-ID rank among the block's successors (path order)
	predIdx int32 // index of the source block in the successor's preds
}

// cblock is the static cost record of one basic block: its op slice bounds,
// terminator metadata with successor indices pre-resolved, and the dense
// edge/path numbering bases of buildBlockInfo.
type cblock struct {
	opLo, opHi int32
	term       uint8 // termJump / termBranch / termExit

	// termJump: jump is the successor index of the target. termBranch:
	// taken/fall are the successor indices of the two arms, cond/condID/
	// trip/prob the branch condition (defaults; per-input overrides are
	// resolved once per run, see effTrip/effProb in runCompiled).
	jump        int32
	taken, fall int32
	cond        uint8
	condID      int32
	trip        int32
	prob        float64

	edgeBase, pathBase int32
	nSuccs             int32
	succ               []csucc
}

// CompiledProgram is the static lowering of one program under one machine
// configuration: per-block cost records, the flattened op table, a copy of
// the stream descriptors, and the dense edge/path numbering shared with
// cfg.FromProgram. It is immutable after CompileProgram returns and safe to
// share between machines of the same configuration.
//
// The compiled tables assume the program is not mutated afterwards; Machines
// cache compilations by program identity (see Machine.compiledFor), so a
// mutated program must be treated as a new one.
type CompiledProgram struct {
	prog *ir.Program
	cfg  Config

	info    []blockInfo // dense numbering + pred/succ maps for result assembly
	blocks  []cblock
	ops     []cop
	streams []ir.Stream

	maxCond  int
	numEdges int
	numPaths int
}

// Program returns the program this compilation lowers.
func (cp *CompiledProgram) Program() *ir.Program { return cp.prog }

// Config returns the machine configuration the program was compiled for.
func (cp *CompiledProgram) Config() Config { return cp.cfg }

// CompileProgram validates the program and configuration and lowers every
// basic block to its static cost record. Run once per (program, config);
// the result serves any number of runs, at fixed modes or under DVS
// schedules (per-run schedule state is an overlay, not part of the tables).
func CompileProgram(p *ir.Program, c Config) (*CompiledProgram, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	info, maxCond, numEdges, numPaths := buildBlockInfo(p)
	cp := &CompiledProgram{
		prog:     p,
		cfg:      c,
		info:     info,
		blocks:   make([]cblock, len(p.Blocks)),
		streams:  append([]ir.Stream(nil), p.Streams...),
		maxCond:  maxCond,
		numEdges: numEdges,
		numPaths: numPaths,
	}
	for i, b := range p.Blocks {
		bi := &info[i]
		cb := &cp.blocks[i]
		cb.opLo = int32(len(cp.ops))
		memOp := func(stream int) {
			// Run-length encode: a run of accesses to one stream (the common
			// shape — unrolled copy/filter loops) becomes a single record.
			if n := len(cp.ops); n > int(cb.opLo) {
				if last := &cp.ops[n-1]; last.kind == opMem && last.stream == int32(stream) {
					last.count++
					return
				}
			}
			s := &p.Streams[stream]
			cp.ops = append(cp.ops, cop{
				kind:   opMem,
				stream: int32(stream),
				count:  1,
				random: s.Random,
				// The wrap (off+stride) % ws is a single conditional subtract
				// when the cursor stays in [0, ws) and the stride cannot skip
				// past a full lap — same integer, no division.
				fastWrap: !s.Random && s.Stride >= 0 && s.Stride < s.WorkingSet,
				stride:   s.Stride,
				ws:       s.WorkingSet,
				base:     s.Base,
			})
		}
		for _, instr := range b.Instrs {
			switch v := instr.(type) {
			case ir.Compute:
				cp.ops = append(cp.ops, cop{kind: opCompute, dep: v.DependsOnLoad, count: 1,
					cyc: int64(v.Cycles), fcyc: float64(int64(v.Cycles))})
			case ir.Load:
				memOp(v.Stream)
			case ir.Store:
				memOp(v.Stream)
			}
		}
		cb.opHi = int32(len(cp.ops))
		cb.edgeBase = int32(bi.edgeBase)
		cb.pathBase = int32(bi.pathBase)
		cb.nSuccs = int32(len(bi.succs))
		cb.succ = make([]csucc, len(bi.succs))
		for s, to := range bi.succs {
			cb.succ[s] = csucc{
				block:   int32(to),
				rank:    int32(bi.succRank[s]),
				predIdx: int32(info[to].predIdx[i]),
			}
		}
		switch t := b.Term.(type) {
		case ir.Exit:
			cb.term = termExit
		case ir.Jump:
			cb.term = termJump
			cb.jump = int32(bi.succIdx[t.To])
		case ir.Branch:
			cb.term = termBranch
			cb.taken = int32(bi.succIdx[t.Taken])
			cb.fall = int32(bi.succIdx[t.Fall])
			switch cnd := t.Cond.(type) {
			case ir.LoopCond:
				cb.cond = condLoop
				cb.condID = int32(cnd.ID)
				cb.trip = int32(cnd.Trip)
			case ir.ProbCond:
				cb.cond = condProb
				cb.condID = int32(cnd.ID)
				cb.prob = cnd.P
			}
		}
	}
	return cp, nil
}

// ckCache is the compiled kernel's representation of the set-associative LRU
// cache: the same structure as (*cache) — identical set indexing, MRU-first
// way order, move-to-front on hit, evict-last-way on miss — but each way
// stores line+1 (zero meaning empty) instead of a (tag, valid) pair. A real
// line's key is never zero (addresses are stream base + offset, far below the
// top of the address space), so one uint64 compare is both the tag match and
// the validity check, and the common way-0 probe inlines at the access site
// in the hot loop. Valid ways form a prefix exactly as in (*cache) — fills
// and evictions both insert at way 0 — so the scan needs no validity state.
// The hit/miss sequence for any address sequence is bit-identical to
// (*cache), the reference interpreter's cache in reference_test.go, by
// construction.
type ckCache struct {
	lineShift uint
	setMask   uint64
	assoc     int
	keys      []uint64 // sets × assoc, MRU first; line+1, 0 = empty
}

// init sizes the cache for the configuration and invalidates every line,
// reusing the key array across runs.
func (c *ckCache) init(cc CacheConfig) {
	sets := cc.Sets()
	n := sets * cc.Assoc
	c.lineShift = uint(bits.TrailingZeros(uint(cc.LineBytes)))
	c.setMask = uint64(sets - 1)
	c.assoc = cc.Assoc
	if cap(c.keys) < n {
		c.keys = make([]uint64, n)
		return
	}
	c.keys = c.keys[:n]
	clear(c.keys)
}

// accessSlow is the out-of-line part of a cache probe: the caller already
// compared way 0. Scan the remaining ways, move the hit to the MRU position,
// or evict the LRU way and insert on miss. ways is the set's key slice.
func (c *ckCache) accessSlow(ways []uint64, key uint64) bool {
	for i := 1; i < c.assoc; i++ {
		if ways[i] == key {
			copy(ways[1:i+1], ways[:i])
			ways[0] = key
			return true
		}
	}
	copy(ways[1:c.assoc], ways[:c.assoc-1])
	ways[0] = key
	return false
}

// runBuffers are the pooled per-run dense counters and scratch state the
// compiled kernel executes against. They live on the Machine so steady-state
// runs allocate only the Result they return; every run resizes and clears
// them on entry, and Machine.Reset clears them again for pool hygiene.
type runBuffers struct {
	gcount    []int64 // dense edge traversal counts, cfg numbering (0 = entry)
	pcount    []int64 // dense local-path counts, cfg numbering
	streamOff []int64
	loopCount []int64
	memChans  []float64
	effTrip   []int64   // per block: input-resolved loop trip count
	effProb   []float64 // per block: input-resolved branch probability
	dvsEdge   []int32   // per edge: schedule mode index, -1 keeps the mode
	l1, l2    ckCache   // the kernel's caches, re-initialized every run
}

// clear zeroes the buffer contents, keeping capacity.
func (b *runBuffers) clear() {
	clear(b.gcount)
	clear(b.pcount)
	clear(b.streamOff)
	clear(b.loopCount)
	clear(b.memChans)
	clear(b.effTrip)
	clear(b.effProb)
	clear(b.dvsEdge)
	clear(b.l1.keys)
	clear(b.l2.keys)
}

// grown returns s resized to n with every element zeroed, reusing capacity.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// compiledFor returns the machine's cached compilation of p, lowering it on
// first use. The cache is keyed by program identity and survives Reset, so a
// pooled machine compiles each workload once across all its borrowers.
func (m *Machine) compiledFor(p *ir.Program) (*CompiledProgram, error) {
	if cp, ok := m.compiled[p]; ok {
		return cp, nil
	}
	cp, err := CompileProgram(p, m.cfg)
	if err != nil {
		return nil, err
	}
	if m.compiled == nil {
		m.compiled = make(map[*ir.Program]*CompiledProgram)
	}
	m.compiled[p] = cp
	return cp, nil
}

// modeConstsFor computes the per-event time/energy constants of one mode,
// with exactly the reference interpreter's expression shapes (identical
// operands ⇒ identical bits). The compiled kernel calls it once per run and
// once per mode transition instead of re-deriving the values per event; it
// is a plain function (not a closure) so the constants live in the kernel's
// registers rather than escaping to the heap.
func (m *Machine) modeConstsFor(mode volt.Mode, l1Cycles, l2Cycles, pen int64) (f, eCyc, dtL1, eL1, dtL2, eL2, dtPen, ePen float64) {
	f = mode.F
	eCyc = m.cfg.CeffComputeNF * mode.V * mode.V * 1e-3
	v2 := mode.V * mode.V
	dtL1 = float64(l1Cycles) / mode.F
	eL1 = m.cfg.CeffL1NF * v2 * 1e-3
	dtL2 = float64(l2Cycles) / mode.F
	eL2 = m.cfg.CeffL2NF * v2 * 1e-3 * float64(l2Cycles)
	dtPen = float64(pen) / f
	ePen = float64(pen) * eCyc
	return
}

// runCompiled is the specialized interpreter hot loop. It mirrors
// runReference exactly — same event order, same floating-point expression
// shapes, same RNG draw sequence — executing against the compiled tables.
func (m *Machine) runCompiled(cp *CompiledProgram, in ir.Input, sched *Schedule, gov *govRun, initial volt.Mode) (*Result, error) {
	m.pred.reset()

	nb := len(cp.blocks)
	buf := &m.buf
	buf.gcount = grown(buf.gcount, cp.numEdges)
	buf.pcount = grown(buf.pcount, cp.numPaths)
	buf.streamOff = grown(buf.streamOff, len(cp.streams))
	buf.loopCount = grown(buf.loopCount, cp.maxCond+1)
	buf.memChans = grown(buf.memChans, m.cfg.MemChannels)
	buf.effTrip = grown(buf.effTrip, nb)
	buf.effProb = grown(buf.effProb, nb)
	buf.l1.init(m.cfg.L1)
	buf.l2.init(m.cfg.L2)
	gcount, pcount := buf.gcount, buf.pcount
	streamOff, loopCount := buf.streamOff, buf.loopCount
	memChans := buf.memChans
	l1, l2 := &buf.l1, &buf.l2
	l1Shift, l1Mask, l1Assoc, l1Keys := l1.lineShift, l1.setMask, l1.assoc, l1.keys
	l2Shift, l2Mask, l2Assoc, l2Keys := l2.lineShift, l2.setMask, l2.assoc, l2.keys
	rec, hook, pred := m.rec, m.EdgeHook, m.pred

	// Resolve per-input branch behaviour once: the reference loop calls
	// in.TripFor/ProbFor (map lookups) on every evaluation; the values
	// cannot change within a run.
	for i := range cp.blocks {
		cb := &cp.blocks[i]
		switch cb.cond {
		case condLoop:
			buf.effTrip[i] = int64(in.TripFor(ir.LoopCond{ID: int(cb.condID), Trip: int(cb.trip)}))
		case condProb:
			buf.effProb[i] = in.ProbFor(ir.ProbCond{ID: int(cb.condID), P: cb.prob})
		}
	}

	// Per-run DVS overlay: schedule assignments resolved to dense edge IDs.
	// Edges absent from the CFG are ignored, like buildBlockInfo does.
	var dvsEdge []int32
	if sched != nil {
		buf.dvsEdge = grown(buf.dvsEdge, cp.numEdges)
		dvsEdge = buf.dvsEdge
		for i := range dvsEdge {
			dvsEdge[i] = -1
		}
		for e, mi := range sched.Assignment {
			if e.From == cfg.Entry && e.To == 0 {
				dvsEdge[0] = int32(mi)
				continue
			}
			if e.From < 0 || e.From >= nb {
				continue
			}
			bi := &cp.info[e.From]
			if si, ok := bi.succIdx[e.To]; ok {
				dvsEdge[bi.edgeBase+si] = int32(mi)
			}
		}
	}

	res := &Result{
		Program: cp.prog.Name,
		Input:   in.Name,
		Mode:    initial,
		Blocks:  make([]BlockStat, nb),
	}
	rng := m.rngFor(in.Seed)

	var (
		timeUS     float64
		energyUJ   float64
		stallUS    float64
		curMode    = initial
		curModeIdx = -1
	)
	if sched != nil {
		curModeIdx = sched.Initial
	}
	if gov != nil {
		curModeIdx = gov.modes.Index(initial.F)
	}

	// Per-mode constants, hoisted out of the event loop and recomputed (with
	// the reference expression shapes, see modeConstsFor) on every mode
	// change. The transition arithmetic is written out at each switch site —
	// a shared closure would capture the constants and the accumulators,
	// forcing them onto the heap for the whole hot loop.
	l1Cycles := int64(m.cfg.L1.LatencyCycles)
	l2Cycles := int64(m.cfg.L2.LatencyCycles)
	pen := int64(m.cfg.MispredictPenaltyCycles)
	f, eCyc, dtL1, eL1, dtL2, eL2, dtPen, ePen := m.modeConstsFor(curMode, l1Cycles, l2Cycles, pen)

	// Result counters, accumulated in locals and stored to res once at exit.
	var (
		l1Hits, l2Hits, memMisses int64
		nCache, nOverlap, nDep    int64
		tInvariantUS              float64
		branches, mispredicts     int64
	)

	// Governor window state. nextCheckUS is +Inf when no governor runs, so
	// the per-block tick check is a single float compare.
	var (
		nextCheckUS = math.Inf(1)
		winStartUS  float64
		winStallUS  float64
		winCycles   int64
		winMisses   int64
	)
	if gov != nil {
		nextCheckUS = gov.intervalUS
	}

	// Traverse the virtual entry edge.
	gcount[0]++
	if hook != nil {
		hook(cfg.Entry, 0)
	}
	if sched != nil && dvsEdge[0] >= 0 && int(dvsEdge[0]) != curModeIdx {
		target := int(dvsEdge[0])
		next := sched.Modes.Mode(target)
		res.Transitions++
		st := sched.Regulator.TransitionTime(curMode.V, next.V)
		se := sched.Regulator.TransitionEnergy(curMode.V, next.V)
		timeUS += st
		energyUJ += se
		res.TransitionTimeUS += st
		res.TransitionEnergyUJ += se
		curMode = next
		curModeIdx = target
		f, eCyc, dtL1, eL1, dtL2, eL2, dtPen, ePen = m.modeConstsFor(curMode, l1Cycles, l2Cycles, pen)
	}

	cur := int32(0)
	predIdx := int32(0) // index of cfg.Entry in block 0's preds
	const maxSteps = 1 << 34
	steps := 0

	for {
		steps++
		if steps > maxSteps {
			return nil, errf("program %q exceeded %d block executions; infinite loop?", cp.prog.Name, maxSteps)
		}
		cb := &cp.blocks[cur]
		bs := &res.Blocks[cur]
		bs.Invocations++
		if rec != nil && !rec.addBlock(uint32(cur)) {
			return nil, errf("program %q exceeded the recording budget of %d events", cp.prog.Name, rec.budget)
		}
		blockStartTime := timeUS
		blockStartEnergy := energyUJ

		for oi := cb.opLo; oi < cb.opHi; oi++ {
			op := &cp.ops[oi]
			if op.kind == opCompute {
				if op.dep {
					drained := 0.0
					for _, t := range memChans {
						if t > drained {
							drained = t
						}
					}
					if drained > timeUS {
						// Gated stall waiting for memory: time passes, no
						// energy.
						stallUS += drained - timeUS
						timeUS = drained
					}
				}
				timeUS += op.fcyc / f
				energyUJ += op.fcyc * eCyc
				if op.dep {
					nDep += op.cyc
				} else {
					nOverlap += op.cyc
				}
				continue
			}

			// Memory accesses: op.count consecutive accesses to one stream,
			// the cursor held in a register across the run. Each access
			// probes L1, then L2, then books an asynchronous main-memory
			// channel (the reference memAccess inlined, with the per-mode constants hoisted
			// and the stream descriptor flattened into the op record).
			isRandom, fastWrap := op.random, op.fastWrap
			stride, ws, base := op.stride, op.ws, op.base
			off := streamOff[op.stream]
			for k := op.count; k > 0; k-- {
				if isRandom {
					off = rng.Int63n(ws) &^ 3 // word-aligned
				}
				addr := base + uint64(off)
				if !isRandom {
					if fastWrap {
						off += stride
						if off >= ws {
							off -= ws
						}
					} else {
						off = (off + stride) % ws
					}
				}

				timeUS += dtL1
				energyUJ += eL1
				line := addr >> l1Shift
				key := line + 1
				wb := int(line&l1Mask) * l1Assoc
				hit := l1Keys[wb] == key
				if !hit {
					hit = l1.accessSlow(l1Keys[wb:wb+l1Assoc], key)
				}
				if hit {
					l1Hits++
					nCache += l1Cycles
					if rec != nil {
						rec.addMem(memL1Hit)
					}
					continue
				}
				timeUS += dtL2
				energyUJ += eL2
				line = addr >> l2Shift
				key = line + 1
				wb = int(line&l2Mask) * l2Assoc
				hit = l2Keys[wb] == key
				if !hit {
					hit = l2.accessSlow(l2Keys[wb:wb+l2Assoc], key)
				}
				if hit {
					l2Hits++
					nCache += l1Cycles + l2Cycles
					if rec != nil {
						rec.addMem(memL2Hit)
					}
					continue
				}
				memMisses++
				nCache += l1Cycles + l2Cycles
				if rec != nil {
					rec.addMem(memMiss)
				}
				ch := 0
				for c := 1; c < len(memChans); c++ {
					if memChans[c] < memChans[ch] {
						ch = c
					}
				}
				start := timeUS
				if memChans[ch] > start {
					start = memChans[ch]
				}
				memChans[ch] = start + m.cfg.MemLatencyUS
				tInvariantUS += m.cfg.MemLatencyUS
			}
			if !isRandom {
				streamOff[op.stream] = off
			}
		}

		// Resolve the terminator.
		var si int32
		switch cb.term {
		case termExit:
			// Drain outstanding memory and close out the block.
			drained := 0.0
			for _, t := range memChans {
				if t > drained {
					drained = t
				}
			}
			if drained > timeUS {
				stallUS += drained - timeUS
				timeUS = drained
			}
			bs.TimeUS += timeUS - blockStartTime
			bs.EnergyUJ += energyUJ - blockStartEnergy
			res.TimeUS = timeUS
			res.LeakageEnergyUJ = m.cfg.StaticPowerMW * timeUS * 1e-3
			res.EnergyUJ = energyUJ + res.LeakageEnergyUJ
			res.L1Hits, res.L2Hits, res.MemMisses = l1Hits, l2Hits, memMisses
			res.Branches, res.Mispredicts = branches, mispredicts
			res.Params.NCache = nCache
			res.Params.NOverlap = nOverlap
			res.Params.NDependent = nDep
			res.Params.TInvariantUS = tInvariantUS
			res.EdgeCountsByID = copySlice(gcount)
			res.PathCountsByID = copySlice(pcount)
			return res, nil
		case termJump:
			si = cb.jump
		case termBranch:
			var taken bool
			if cb.cond == condLoop {
				id := cb.condID
				loopCount[id]++
				if loopCount[id] < buf.effTrip[cur] {
					taken = true
				} else {
					loopCount[id] = 0
				}
			} else {
				taken = rng.Float64() < buf.effProb[cur]
			}
			branches++
			hit := pred.predictAndUpdate(int(cur), taken)
			if rec != nil {
				rec.addBranch(!hit)
			}
			if !hit {
				mispredicts++
				timeUS += dtPen
				energyUJ += ePen
				nOverlap += pen
			}
			if taken {
				si = cb.taken
			} else {
				si = cb.fall
			}
		}

		bs.TimeUS += timeUS - blockStartTime
		bs.EnergyUJ += energyUJ - blockStartEnergy

		sc := &cb.succ[si]
		gcount[int(cb.edgeBase+si)]++
		pcount[int(cb.pathBase+predIdx*cb.nSuccs+sc.rank)]++
		if hook != nil {
			hook(int(cur), int(sc.block))
		}
		if sched != nil {
			if mi := int(dvsEdge[cb.edgeBase+si]); mi >= 0 && mi != curModeIdx {
				next := sched.Modes.Mode(mi)
				res.Transitions++
				st := sched.Regulator.TransitionTime(curMode.V, next.V)
				se := sched.Regulator.TransitionEnergy(curMode.V, next.V)
				timeUS += st
				energyUJ += se
				res.TransitionTimeUS += st
				res.TransitionEnergyUJ += se
				curMode = next
				curModeIdx = mi
				f, eCyc, dtL1, eL1, dtL2, eL2, dtPen, ePen = m.modeConstsFor(curMode, l1Cycles, l2Cycles, pen)
			}
		}

		// Run-time governor tick: at interval boundaries, summarize the
		// window and let the policy pick the next mode.
		if timeUS >= nextCheckUS {
			stats := IntervalStats{
				Mode:         curModeIdx,
				WallUS:       timeUS - winStartUS,
				ActiveCycles: nCache + nOverlap + nDep - winCycles,
				StallUS:      stallUS - winStallUS,
				Misses:       memMisses - winMisses,
			}
			if want := gov.g.Decide(stats); want >= 0 && want < gov.modes.Len() && want != curModeIdx {
				next := gov.modes.Mode(want)
				res.Transitions++
				st := gov.reg.TransitionTime(curMode.V, next.V)
				se := gov.reg.TransitionEnergy(curMode.V, next.V)
				timeUS += st
				energyUJ += se
				res.TransitionTimeUS += st
				res.TransitionEnergyUJ += se
				curMode = next
				curModeIdx = want
				f, eCyc, dtL1, eL1, dtL2, eL2, dtPen, ePen = m.modeConstsFor(curMode, l1Cycles, l2Cycles, pen)
			}
			winStartUS = timeUS
			winStallUS = stallUS
			winCycles = nCache + nOverlap + nDep
			winMisses = memMisses
			nextCheckUS = timeUS + gov.intervalUS
		}

		predIdx = sc.predIdx
		cur = sc.block
	}
}
