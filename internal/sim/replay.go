package sim

import (
	"sync"

	"ctdvs/internal/volt"
)

// Replay reprices the recorded run at one mode, reproducing bit for bit the
// Result that Run would compute for the same program, input and machine
// configuration at that mode. It is safe to call concurrently on one
// Recording.
func (rec *Recording) Replay(mode volt.Mode) (*Result, error) {
	out, err := rec.ReplayAll([]volt.Mode{mode})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// replayScratch is the reusable working state of one ReplayAll call: the
// per-(op, mode) increment tables, per-mode event constants and per-mode
// machine state. Nothing in it escapes into the returned Results — those get
// their own consolidated backing arrays — so the whole struct cycles through
// a pool and steady-state replay performs a fixed handful of allocations
// regardless of trace length.
type replayScratch struct {
	dtOp, enOp []float64 // per-(op, mode) compute increments, op-major

	// Per-mode event constants, with the interpreter's expression shapes.
	dtL1, enL1   []float64
	dtL2, enL2   []float64
	dtPen, enPen []float64

	// Per-mode machine state.
	timeV, energyV []float64
	t0, e0         []float64
	memChans       []float64 // nm × nchan slots, mode-major

	blocks [][]BlockStat // per-mode views into the escaping stat backing
}

var replayScratchPool = sync.Pool{New: func() interface{} { return new(replayScratch) }}

// ReplayAll replays the recording at every given mode in one pass over the
// event stream: the trace and outcome bitstreams are decoded once and each
// event's time/energy increments are applied to all modes, so the marginal
// cost of an extra mode is a handful of float adds per event. Results are in
// the order of modes.
//
// Bit-for-bit fidelity comes from performing, per mode, exactly the floating
// point operations of the interpreter in exactly its order: every increment
// Run accumulates is precomputed here per (event kind, mode) with Run's own
// expression shapes, then added event by event. Since control flow, cache
// outcomes and branch outcomes are frequency-invariant (the paper's
// assumption 1, and the reason one recording serves every mode), the replay
// add sequence is the run add sequence, term for term.
func (rec *Recording) ReplayAll(modes []volt.Mode) ([]*Result, error) {
	lay := rec.layout
	if lay == nil {
		return nil, errf("recording is not bound to a program; call Bind first")
	}
	cfg := rec.Config
	nm := len(modes)
	results := make([]*Result, nm)
	if nm == 0 {
		return results, nil
	}

	sc := replayScratchPool.Get().(*replayScratch)
	defer replayScratchPool.Put(sc)

	// Per-(op, mode) increments, op-major so the per-event mode loop is
	// contiguous, and per-mode event constants, each built with the same
	// expression shape the compiled kernel evaluates (see modeConstsFor).
	// grown zeroes the tables, matching the fresh make()s they replace (the
	// opMem rows of dtOp/enOp are written never, read never — but must not
	// carry stale values into a shorter layout's rows).
	nOps := len(lay.ops)
	dtOp := grown(sc.dtOp, nOps*nm)
	enOp := grown(sc.enOp, nOps*nm)
	dtL1 := grown(sc.dtL1, nm)
	enL1 := grown(sc.enL1, nm)
	dtL2 := grown(sc.dtL2, nm)
	enL2 := grown(sc.enL2, nm)
	dtPen := grown(sc.dtPen, nm)
	enPen := grown(sc.enPen, nm)
	sc.dtOp, sc.enOp = dtOp, enOp
	sc.dtL1, sc.enL1, sc.dtL2, sc.enL2, sc.dtPen, sc.enPen = dtL1, enL1, dtL2, enL2, dtPen, enPen
	l1Cycles := int64(cfg.L1.LatencyCycles)
	l2Cycles := int64(cfg.L2.LatencyCycles)
	pen := int64(cfg.MispredictPenaltyCycles)

	// Per-mode block stats escape into the Results, so they are carved from
	// one fresh backing array rather than pooled; the [][]BlockStat header is
	// scratch.
	nb := rec.NumBlocks
	blocks := grown(sc.blocks, nm)
	sc.blocks = blocks
	statBack := make([]BlockStat, nm*nb)
	for mi, mode := range modes {
		eC := cfg.CeffComputeNF * mode.V * mode.V * 1e-3
		v2 := mode.V * mode.V
		dtL1[mi] = float64(l1Cycles) / mode.F
		enL1[mi] = cfg.CeffL1NF * v2 * 1e-3
		dtL2[mi] = float64(l2Cycles) / mode.F
		enL2[mi] = cfg.CeffL2NF * v2 * 1e-3 * float64(l2Cycles)
		dtPen[mi] = float64(pen) / mode.F
		enPen[mi] = float64(pen) * eC
		for oi := range lay.ops {
			if lay.ops[oi].kind == opCompute {
				dtOp[oi*nm+mi] = lay.ops[oi].fcyc / mode.F
				enOp[oi*nm+mi] = lay.ops[oi].fcyc * eC
			}
		}
		blocks[mi] = statBack[mi*nb : (mi+1)*nb : (mi+1)*nb]
	}

	// Per-mode machine state, mode-major; memory channels are nchan slots
	// per mode.
	nchan := cfg.MemChannels
	timeV := grown(sc.timeV, nm)
	energyV := grown(sc.energyV, nm)
	t0 := grown(sc.t0, nm)
	e0 := grown(sc.e0, nm)
	memChans := grown(sc.memChans, nm*nchan)
	sc.timeV, sc.energyV, sc.t0, sc.e0, sc.memChans = timeV, energyV, t0, e0, memChans

	var memIdx, brIdx int64
	for _, b32 := range rec.Trace {
		b := int(b32)
		rb := &lay.blocks[b]
		for mi := 0; mi < nm; mi++ {
			t0[mi] = timeV[mi]
			e0[mi] = energyV[mi]
			blocks[mi][b].Invocations++
		}
		for oi := rb.opLo; oi < rb.opHi; oi++ {
			op := &lay.ops[oi]
			if op.kind == opCompute {
				base := int(oi) * nm
				if op.dep {
					for mi := 0; mi < nm; mi++ {
						mc := memChans[mi*nchan : mi*nchan+nchan]
						drained := 0.0
						for _, t := range mc {
							if t > drained {
								drained = t
							}
						}
						if drained > timeV[mi] {
							timeV[mi] = drained
						}
						timeV[mi] += dtOp[base+mi]
						energyV[mi] += enOp[base+mi]
					}
				} else {
					for mi := 0; mi < nm; mi++ {
						timeV[mi] += dtOp[base+mi]
						energyV[mi] += enOp[base+mi]
					}
				}
				continue
			}
			// Memory access: one shared recorded outcome drives every mode.
			outcome := (rec.MemBits[memIdx>>5] >> uint((memIdx&31)*2)) & 3
			memIdx++
			switch outcome {
			case memL1Hit:
				for mi := 0; mi < nm; mi++ {
					timeV[mi] += dtL1[mi]
					energyV[mi] += enL1[mi]
				}
			case memL2Hit:
				for mi := 0; mi < nm; mi++ {
					timeV[mi] += dtL1[mi]
					energyV[mi] += enL1[mi]
					timeV[mi] += dtL2[mi]
					energyV[mi] += enL2[mi]
				}
			default:
				// Miss: the CPU-side cost is the two lookups; the service
				// occupies each mode's earliest-free channel (recomputed per
				// mode — channel choice is frequency-dependent arithmetic,
				// not a recorded fact).
				for mi := 0; mi < nm; mi++ {
					timeV[mi] += dtL1[mi]
					energyV[mi] += enL1[mi]
					timeV[mi] += dtL2[mi]
					energyV[mi] += enL2[mi]
					mc := memChans[mi*nchan : mi*nchan+nchan]
					ch := 0
					for k := 1; k < nchan; k++ {
						if mc[k] < mc[ch] {
							ch = k
						}
					}
					start := timeV[mi]
					if mc[ch] > start {
						start = mc[ch]
					}
					mc[ch] = start + cfg.MemLatencyUS
				}
			}
		}
		switch rb.term {
		case termBranch:
			mis := rec.BranchBits[brIdx>>6]>>uint(brIdx&63)&1 == 1
			brIdx++
			if mis {
				for mi := 0; mi < nm; mi++ {
					timeV[mi] += dtPen[mi]
					energyV[mi] += enPen[mi]
				}
			}
		case termExit:
			for mi := 0; mi < nm; mi++ {
				mc := memChans[mi*nchan : mi*nchan+nchan]
				drained := 0.0
				for _, t := range mc {
					if t > drained {
						drained = t
					}
				}
				if drained > timeV[mi] {
					timeV[mi] = drained
				}
			}
		}
		for mi := 0; mi < nm; mi++ {
			bs := &blocks[mi][b]
			bs.TimeUS += timeV[mi] - t0[mi]
			bs.EnergyUJ += energyV[mi] - e0[mi]
		}
	}
	if memIdx != rec.MemOps || brIdx != rec.BranchOps {
		return nil, errf("recording replay consumed %d/%d memory and %d/%d branch outcomes",
			memIdx, rec.MemOps, brIdx, rec.BranchOps)
	}

	// Assemble the escaping Results from consolidated backing arrays: one
	// []Result, one count array carved per mode. The three-index subslices
	// keep each result's counts append-safe and non-nil (empty path sets stay
	// DeepEqual to Run's non-nil empties).
	ne, np := len(rec.EdgeCountsByID), len(rec.PathCountsByID)
	resBack := make([]Result, nm)
	cntBack := make([]int64, nm*(ne+np))
	for mi, mode := range modes {
		base := mi * (ne + np)
		edges := cntBack[base : base+ne : base+ne]
		paths := cntBack[base+ne : base+ne+np : base+ne+np]
		copy(edges, rec.EdgeCountsByID)
		copy(paths, rec.PathCountsByID)
		res := &resBack[mi]
		*res = Result{
			Program: rec.Program,
			Input:   rec.Input,
			Mode:    mode,
			Blocks:  blocks[mi],

			EdgeCountsByID: edges,
			PathCountsByID: paths,
			Params:         rec.Params,

			L1Hits:      rec.L1Hits,
			L2Hits:      rec.L2Hits,
			MemMisses:   rec.MemMisses,
			Branches:    rec.Branches,
			Mispredicts: rec.Mispredicts,
		}
		res.TimeUS = timeV[mi]
		res.LeakageEnergyUJ = cfg.StaticPowerMW * timeV[mi] * 1e-3
		res.EnergyUJ = energyV[mi] + res.LeakageEnergyUJ
		results[mi] = res
	}
	return results, nil
}
