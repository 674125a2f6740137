package sim

import (
	"math/bits"
	"math/rand"

	"ctdvs/internal/cfg"
	"ctdvs/internal/ir"
	"ctdvs/internal/volt"
)

// This file holds the reference instruction-walking interpreter: the
// original simulator loop, kept as the oracle that the compiled kernel
// (compile.go) and Recording.ReplayAll are property-tested against. It lives
// in a test file so production machines neither carry its code nor allocate
// its tag-array caches; refMachine (compile_test.go) installs it on a
// machine through the interp hook.

// refInterp is the reference interpreter's state: the machine it runs on,
// which supplies the configuration, predictor, recorder, edge hook and RNG,
// plus the tag-array caches only the reference loop reads.
type refInterp struct {
	*Machine
	l1, l2 *cache
}

// runReference is the original instruction-walking interpreter, retained
// as the correctness oracle for the compiled kernel.
func (m *refInterp) runReference(p *ir.Program, in ir.Input, sched *Schedule, gov *govRun, initial volt.Mode) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m.l1.reset()
	m.l2.reset()
	m.pred.reset()

	info, maxCond, numEdges, numPaths := buildBlockInfo(p)
	dvsMode := dvsModes(info, sched)
	res := &Result{
		Program: p.Name,
		Input:   in.Name,
		Mode:    initial,
		Blocks:  make([]BlockStat, len(p.Blocks)),
	}

	// Dense counters, converted to maps at the end.
	gcount := make([][]int64, len(p.Blocks))
	dcount := make([][][]int64, len(p.Blocks))
	for i, bi := range info {
		gcount[i] = make([]int64, len(bi.succs))
		dcount[i] = make([][]int64, len(bi.preds))
		for h := range bi.preds {
			dcount[i][h] = make([]int64, len(bi.succs))
		}
	}
	entryCount := int64(0) // traversals of the virtual entry edge

	rng := m.rngFor(in.Seed)
	loopCount := make([]int, maxCond+1)
	streamOff := make([]int64, len(p.Streams))

	// Machine state. Memory channels track when each concurrent miss slot
	// frees; the paper's model is MemChannels == 1 (fully serialized).
	memChans := make([]float64, m.cfg.MemChannels)
	memDrained := func() float64 {
		worst := 0.0
		for _, t := range memChans {
			if t > worst {
				worst = t
			}
		}
		return worst
	}
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
	ePerComputeCycle := func() float64 { return m.cfg.CeffComputeNF * curMode.V * curMode.V * 1e-3 }

	switchTo := func(table *volt.ModeSet, reg volt.Regulator, target int) {
		if target < 0 || target == curModeIdx {
			return
		}
		next := table.Mode(target)
		res.Transitions++
		st := reg.TransitionTime(curMode.V, next.V)
		se := reg.TransitionEnergy(curMode.V, next.V)
		timeUS += st
		energyUJ += se
		res.TransitionTimeUS += st
		res.TransitionEnergyUJ += se
		curMode = next
		curModeIdx = target
	}
	setMode := func(target int) {
		if sched == nil {
			return
		}
		switchTo(sched.Modes, sched.Regulator, target)
	}

	// Governor window state.
	var (
		nextCheckUS float64
		winStartUS  float64
		winStallUS  float64
		winCycles   int64
		winMisses   int64
		totalCycles = func() int64 { return res.Params.NCache + res.Params.NOverlap + res.Params.NDependent }
	)
	if gov != nil {
		nextCheckUS = gov.intervalUS
	}

	// Traverse the virtual entry edge.
	entryCount++
	if m.EdgeHook != nil {
		m.EdgeHook(cfg.Entry, 0)
	}
	if sched != nil {
		if mi, ok := sched.Assignment[cfg.Edge{From: cfg.Entry, To: 0}]; ok {
			setMode(mi)
		}
	}

	cur := 0
	predIdx := 0 // index of cfg.Entry in block 0's preds
	const maxSteps = 1 << 34
	steps := 0

	for {
		steps++
		if steps > maxSteps {
			return nil, errf("program %q exceeded %d block executions; infinite loop?", p.Name, maxSteps)
		}
		bi := &info[cur]
		blk := p.Blocks[cur]
		bs := &res.Blocks[cur]
		bs.Invocations++
		if m.rec != nil && !m.rec.addBlock(uint32(cur)) {
			return nil, errf("program %q exceeded the recording budget of %d events", p.Name, m.rec.budget)
		}
		blockStartTime := timeUS
		blockStartEnergy := energyUJ

		f := curMode.F
		for _, instr := range blk.Instrs {
			switch v := instr.(type) {
			case ir.Compute:
				if v.DependsOnLoad {
					if drained := memDrained(); drained > timeUS {
						// Gated stall waiting for memory: time passes, no
						// energy.
						stallUS += drained - timeUS
						timeUS = drained
					}
				}
				c := int64(v.Cycles)
				timeUS += float64(c) / f
				energyUJ += float64(c) * ePerComputeCycle()
				if v.DependsOnLoad {
					res.Params.NDependent += c
				} else {
					res.Params.NOverlap += c
				}
			case ir.Load:
				timeUS, energyUJ = m.memAccess(p, v.Stream, streamOff, rng, timeUS, energyUJ, memChans, curMode, res)
			case ir.Store:
				timeUS, energyUJ = m.memAccess(p, v.Stream, streamOff, rng, timeUS, energyUJ, memChans, curMode, res)
			}
		}

		// Resolve the terminator.
		var next int
		switch t := blk.Term.(type) {
		case ir.Exit:
			// Drain outstanding memory and close out the block.
			if drained := memDrained(); drained > timeUS {
				stallUS += drained - timeUS
				timeUS = drained
			}
			bs.TimeUS += timeUS - blockStartTime
			bs.EnergyUJ += energyUJ - blockStartEnergy
			res.TimeUS = timeUS
			res.LeakageEnergyUJ = m.cfg.StaticPowerMW * timeUS * 1e-3
			res.EnergyUJ = energyUJ + res.LeakageEnergyUJ
			res.EdgeCountsByID, res.PathCountsByID = toDense(info, gcount, dcount, entryCount, numEdges, numPaths)
			return res, nil
		case ir.Jump:
			next = t.To
		case ir.Branch:
			var taken bool
			switch c := t.Cond.(type) {
			case ir.LoopCond:
				trip := in.TripFor(c)
				loopCount[c.ID]++
				if loopCount[c.ID] < trip {
					taken = true
				} else {
					loopCount[c.ID] = 0
				}
			case ir.ProbCond:
				taken = rng.Float64() < in.ProbFor(c)
			}
			res.Branches++
			hit := m.pred.predictAndUpdate(cur, taken)
			if m.rec != nil {
				m.rec.addBranch(!hit)
			}
			if !hit {
				res.Mispredicts++
				pen := int64(m.cfg.MispredictPenaltyCycles)
				timeUS += float64(pen) / f
				energyUJ += float64(pen) * ePerComputeCycle()
				res.Params.NOverlap += pen
			}
			if taken {
				next = t.Taken
			} else {
				next = t.Fall
			}
		}

		bs.TimeUS += timeUS - blockStartTime
		bs.EnergyUJ += energyUJ - blockStartEnergy

		si := bi.succIdx[next]
		gcount[cur][si]++
		dcount[cur][predIdx][si]++
		if m.EdgeHook != nil {
			m.EdgeHook(cur, next)
		}
		setMode(dvsMode[cur][si])

		// Run-time governor tick: at interval boundaries, summarize the
		// window and let the policy pick the next mode.
		if gov != nil && timeUS >= nextCheckUS {
			stats := IntervalStats{
				Mode:         curModeIdx,
				WallUS:       timeUS - winStartUS,
				ActiveCycles: totalCycles() - winCycles,
				StallUS:      stallUS - winStallUS,
				Misses:       res.MemMisses - winMisses,
			}
			want := gov.g.Decide(stats)
			if want >= 0 && want < gov.modes.Len() {
				switchTo(gov.modes, gov.reg, want)
			}
			winStartUS = timeUS
			winStallUS = stallUS
			winCycles = totalCycles()
			winMisses = res.MemMisses
			nextCheckUS = timeUS + gov.intervalUS
		}

		predIdx = info[next].predIdx[cur]
		cur = next
	}
}

// memAccess performs one load/store: L1, then L2, then main memory. Cache
// hits occupy the pipeline for their latency (frequency-scaled, energy
// charged); main-memory misses occupy the earliest-free asynchronous memory
// channel without blocking the CPU.
func (m *refInterp) memAccess(p *ir.Program, stream int, streamOff []int64, rng *rand.Rand,
	timeUS, energyUJ float64, memChans []float64, mode volt.Mode, res *Result) (float64, float64) {

	s := &p.Streams[stream]
	var off int64
	if s.Random {
		off = rng.Int63n(s.WorkingSet) &^ 3 // word-aligned
	} else {
		off = streamOff[stream]
		streamOff[stream] = (off + s.Stride) % s.WorkingSet
	}
	addr := s.Base + uint64(off)

	v2 := mode.V * mode.V
	// L1 lookup always happens.
	l1Cycles := int64(m.cfg.L1.LatencyCycles)
	timeUS += float64(l1Cycles) / mode.F
	energyUJ += m.cfg.CeffL1NF * v2 * 1e-3
	if m.l1.access(addr) {
		res.L1Hits++
		res.Params.NCache += l1Cycles
		if m.rec != nil {
			m.rec.addMem(memL1Hit)
		}
		return timeUS, energyUJ
	}
	// L2 lookup.
	l2Cycles := int64(m.cfg.L2.LatencyCycles)
	timeUS += float64(l2Cycles) / mode.F
	energyUJ += m.cfg.CeffL2NF * v2 * 1e-3 * float64(l2Cycles)
	if m.l2.access(addr) {
		res.L2Hits++
		res.Params.NCache += l1Cycles + l2Cycles
		if m.rec != nil {
			m.rec.addMem(memL2Hit)
		}
		return timeUS, energyUJ
	}
	// Main memory: asynchronous, non-blocking for the CPU (dependent
	// computation waits for the channels to drain). The miss takes the
	// earliest-free channel.
	res.MemMisses++
	res.Params.NCache += l1Cycles + l2Cycles
	if m.rec != nil {
		m.rec.addMem(memMiss)
	}
	ch := 0
	for k := 1; k < len(memChans); k++ {
		if memChans[k] < memChans[ch] {
			ch = k
		}
	}
	start := timeUS
	if memChans[ch] > start {
		start = memChans[ch]
	}
	memChans[ch] = start + m.cfg.MemLatencyUS
	res.Params.TInvariantUS += m.cfg.MemLatencyUS
	return timeUS, energyUJ
}

// toDense converts the traversal counters into the cfg-numbered dense edge
// and path count arrays.
func toDense(info []blockInfo, gcount [][]int64, dcount [][][]int64, entryCount int64, numEdges, numPaths int) ([]int64, []int64) {
	edges := make([]int64, numEdges)
	paths := make([]int64, numPaths)
	edges[0] = entryCount
	for i := range info {
		bi := &info[i]
		ns := len(bi.succs)
		for s := range bi.succs {
			edges[bi.edgeBase+s] = gcount[i][s]
		}
		for h := range bi.preds {
			for s := range bi.succs {
				paths[bi.pathBase+h*ns+bi.succRank[s]] = dcount[i][h][s]
			}
		}
	}
	return edges, paths
}

// dvsModes resolves a schedule to per-block successor tables: entry [b][s]
// is the mode index set by edge (b → succs[s]); -1 keeps the current mode.
// Edges absent from the CFG are ignored.
func dvsModes(info []blockInfo, sched *Schedule) [][]int {
	modes := make([][]int, len(info))
	for i := range info {
		bi := &info[i]
		modes[i] = make([]int, len(bi.succs))
		for s, to := range bi.succs {
			modes[i][s] = -1
			if sched != nil {
				if mi, ok := sched.Assignment[cfg.Edge{From: i, To: to}]; ok {
					modes[i][s] = mi
				}
			}
		}
	}
	return modes
}

// cache is a set-associative LRU cache. Tags are stored per set in
// most-recently-used-first order, so a hit moves its way to the front and a
// miss evicts the last way.
type cache struct {
	lineShift uint
	setMask   uint64
	assoc     int
	tags      []uint64 // sets × assoc, MRU first; 0 means empty (tag 0 offset)
	valid     []bool
}

func newCache(cc CacheConfig) *cache {
	sets := cc.Sets()
	return &cache{
		lineShift: uint(bits.TrailingZeros(uint(cc.LineBytes))),
		setMask:   uint64(sets - 1),
		assoc:     cc.Assoc,
		tags:      make([]uint64, sets*cc.Assoc),
		valid:     make([]bool, sets*cc.Assoc),
	}
}

// access looks up addr, updating LRU state and allocating on miss.
// It reports whether the access hit.
func (c *cache) access(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	base := set * c.assoc
	ways := c.tags[base : base+c.assoc]
	valid := c.valid[base : base+c.assoc]
	for i := 0; i < c.assoc; i++ {
		if valid[i] && ways[i] == line {
			// Move to MRU position.
			for j := i; j > 0; j-- {
				ways[j] = ways[j-1]
				valid[j] = valid[j-1]
			}
			ways[0] = line
			valid[0] = true
			return true
		}
	}
	// Miss: evict LRU (last way), insert at MRU.
	for j := c.assoc - 1; j > 0; j-- {
		ways[j] = ways[j-1]
		valid[j] = valid[j-1]
	}
	ways[0] = line
	valid[0] = true
	return false
}

// reset invalidates all lines.
func (c *cache) reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
}
