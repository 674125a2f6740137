// Package workloads provides the synthetic MediaBench-like benchmark suite
// the reproduction is evaluated on: adpcm/encode, epic, gsm/encode,
// mpeg/decode, mpg123 and ghostscript, written in the mini-IR of package ir.
//
// The original paper profiles MediaBench binaries under SimpleScalar; its
// evaluation depends on the programs only through their profile statistics.
// Each constructor here is calibrated so that, at full scale on the default
// simulator configuration, the measured aggregate parameters approximate the
// paper's Table 7
//
//	benchmark     Ncache(Kcyc) Noverlap(Kcyc) Ndependent(Kcyc) tinv(µs)
//	adpcm              732.7        735.6         4302.0        915.9
//	epic              8835.6      12190.4         9290.1       4955.9
//	gsm              13979.6      13383.0        29438.3        389.0
//	mpeg/decode      42621.1      44068.7        27592.1       2713.4
//
// and the fixed-mode runtimes approximate Table 4 (200/600/800 MHz columns).
// mpg123 and ghostscript have no Table 7 row; they are calibrated against
// their Table 4 runtimes only (mpg123 ≈ pure computation; ghostscript small
// with a pronounced memory component).
//
// Loop trip counts scale with the Scale parameter so tests can run the suite
// cheaply; deadlines are expressed as fractions of the span between the
// fastest and slowest fixed-mode runtimes (the paper's Figure 16 positions),
// making them meaningful at every scale.
package workloads

import (
	"fmt"
	"math"

	"ctdvs/internal/ir"
)

// Spec bundles a constructed benchmark with its inputs and deadline
// positions.
type Spec struct {
	Name    string
	Program *ir.Program
	// Inputs for profiling/execution; Inputs[0] is the default.
	Inputs []ir.Input
	// DeadlineFracs places the paper's five deadlines (index 0 = Deadline 1,
	// most stringent) as fractions of the [t_fast, t_slow] runtime span,
	// derived from Table 4.
	DeadlineFracs [5]float64
}

// Deadlines materializes the five deadlines (µs) given the measured fastest
// and slowest fixed-mode runtimes.
func (s *Spec) Deadlines(tFastUS, tSlowUS float64) [5]float64 {
	var out [5]float64
	for i, f := range s.DeadlineFracs {
		out[i] = tFastUS + f*(tSlowUS-tFastUS)
	}
	return out
}

// Deadline returns deadline number k (1-based, 1 = most stringent, as in the
// paper's tables).
func (s *Spec) Deadline(k int, tFastUS, tSlowUS float64) float64 {
	if k < 1 || k > 5 {
		panic(fmt.Sprintf("workloads: deadline %d out of range", k))
	}
	return s.Deadlines(tFastUS, tSlowUS)[k-1]
}

// trips scales a full-scale loop trip count, keeping at least 2 iterations.
func trips(full int, scale float64) int {
	t := int(math.Round(float64(full) * scale))
	if t < 2 {
		t = 2
	}
	return t
}

// loads appends n loads from stream s to blk.
func loads(blk *ir.Block, s, n int) {
	for i := 0; i < n; i++ {
		blk.Load(s)
	}
}

// Working-set sizes shared by the suite: the hot set exceeds L1 (64 KB) and
// fits L2 (512 KB), so steady-state accesses alternate L1 hits with L2 hits;
// the cold set is streamed with one cache line per access, so every access
// is a main-memory miss.
const (
	hotWS    = 256 << 10
	coldWS   = 128 << 20
	lineSize = 32
)

// Adpcm builds adpcm/encode: a single sample-processing loop, heavily
// dependent computation (bit-serial prediction), light memory traffic.
func Adpcm(scale float64) *Spec {
	b := ir.NewBuilder("adpcm/encode")
	// 128 KB hot set: thrashes L1, fits L2, and its 4096 cold-start misses
	// plus the step-up path's streamed loads (probability 0.55) land the
	// total miss count near the paper's 9159 (tinvariant 915.9 µs).
	hot := b.StridedStream(4, 128<<10)
	cold := b.StridedStream(lineSize, coldWS)

	init := b.Block("init")
	head := b.Block("sample-head")
	stepUp := b.Block("step-up")
	stepDown := b.Block("step-down")
	latch := b.Block("sample-latch")
	flush := b.Block("flush")

	init.Compute(500)
	loads(init, hot, 40)
	init.Jump(head)

	// Per iteration targets (I = 9160): hot ≈ 24, cold ≈ 0.55, overlap ≈ 80,
	// dependent ≈ 470.
	loads(head, hot, 12)
	head.Compute(40).DependentCompute(150)
	b.ProbBranch(head, stepUp, stepDown, 0.55)

	loads(stepUp, hot, 6)
	stepUp.Load(cold)
	stepUp.Compute(20).DependentCompute(200)
	stepUp.Jump(latch)

	loads(stepDown, hot, 6)
	stepDown.Compute(20).DependentCompute(190)
	stepDown.Jump(latch)

	loads(latch, hot, 6)
	latch.Compute(20).DependentCompute(125)
	b.LoopBranch(latch, head, flush, trips(9160, scale))

	flush.Compute(300).DependentCompute(100)
	loads(flush, hot, 20)
	flush.Exit()

	return &Spec{
		Name:          "adpcm/encode",
		Program:       b.MustFinish(),
		Inputs:        []ir.Input{{Name: "clinton.pcm", Seed: 101}},
		DeadlineFracs: [5]float64{0.009, 0.032, 0.118, 0.570, 0.977},
	}
}

// Epic builds the epic image coder: a wavelet-pyramid phase followed by a
// quantize/encode phase, both with modest per-iteration work and a large
// miss count (tinvariant is the biggest in the suite).
func Epic(scale float64) *Spec {
	b := ir.NewBuilder("epic")
	hot := b.StridedStream(4, 128<<10)
	cold := b.StridedStream(lineSize, coldWS)
	cold2 := b.StridedStream(lineSize, coldWS)

	init := b.Block("init")
	pyr := b.Block("pyramid")
	pyrEdge := b.Block("pyramid-edge")
	pyrBody := b.Block("pyramid-body")
	pyrLatch := b.Block("pyramid-latch")
	quant := b.Block("quantize")
	quantLatch := b.Block("quantize-latch")
	done := b.Block("done")

	init.Compute(800)
	loads(init, hot, 60)
	init.Jump(pyr)

	// Pyramid: I = 33000; per iteration hot ≈ 54, cold ≈ 0.88 (interior
	// macroblocks stream source pixels; boundary filters reuse the hot set),
	// o ≈ 260, d ≈ 180.
	loads(pyr, hot, 20)
	pyr.Compute(120)
	b.ProbBranch(pyr, pyrEdge, pyrBody, 0.12)

	pyrEdge.Compute(90).DependentCompute(220) // boundary filters cost more
	loads(pyrEdge, hot, 34)
	pyrEdge.Jump(pyrLatch)

	pyrBody.Load(cold)
	pyrBody.Compute(140).DependentCompute(170)
	loads(pyrBody, hot, 34)
	pyrBody.Jump(pyrLatch)

	pyrLatch.DependentCompute(5)
	b.LoopBranch(pyrLatch, pyr, quant, trips(33000, scale))

	// Quantize/encode: I = 16500; hot ≈ 54, cold = 1, o ≈ 220, d ≈ 200.
	loads(quant, hot, 54)
	quant.Load(cold2)
	quant.Compute(220).DependentCompute(200)
	b.LoopBranch(quant, quant, quantLatch, trips(16500, scale))

	quantLatch.Compute(400)
	quantLatch.Jump(done)
	done.Compute(100)
	done.Exit()

	return &Spec{
		Name:          "epic",
		Program:       b.MustFinish(),
		Inputs:        []ir.Input{{Name: "test_image.pgm", Seed: 202}},
		DeadlineFracs: [5]float64{0.036, 0.081, 0.170, 0.529, 0.977},
	}
}

// Gsm builds gsm/encode: a frame loop with a voiced/unvoiced split and
// dependent-computation-heavy long-term prediction.
func Gsm(scale float64) *Spec {
	b := ir.NewBuilder("gsm/encode")
	// 96 KB hot set: its ~3072 cold-start misses plus a rare (p = 0.21)
	// refill path account for the paper's small tinvariant (389 µs) despite
	// the heavy cache-hit traffic.
	hot := b.StridedStream(4, 96<<10)
	cold := b.StridedStream(lineSize, coldWS)

	init := b.Block("init")
	head := b.Block("frame-head")
	voiced := b.Block("voiced")
	unvoiced := b.Block("unvoiced")
	ltp := b.Block("ltp")
	refill := b.Block("refill")
	latch := b.Block("frame-latch")
	done := b.Block("done")

	init.Compute(1500)
	loads(init, hot, 80)
	init.Jump(head)

	// I = 3890; per frame: hot ≈ 1192, cold ≈ 0.21, o ≈ 3440, d ≈ 7568.
	loads(head, hot, 400)
	head.Compute(1200).DependentCompute(2000)
	b.ProbBranch(head, voiced, unvoiced, 0.62)

	loads(voiced, hot, 300)
	voiced.Compute(900).DependentCompute(2300)
	voiced.Jump(ltp)

	loads(unvoiced, hot, 300)
	unvoiced.Compute(800).DependentCompute(2100)
	unvoiced.Jump(ltp)

	loads(ltp, hot, 292)
	ltp.Compute(850).DependentCompute(2200)
	b.ProbBranch(ltp, refill, latch, 0.21)

	refill.Load(cold)
	refill.Compute(30)
	refill.Jump(latch)

	loads(latch, hot, 200)
	latch.Compute(550).DependentCompute(1150)
	b.LoopBranch(latch, head, done, trips(3890, scale))

	done.Compute(500)
	done.Exit()

	return &Spec{
		Name:          "gsm/encode",
		Program:       b.MustFinish(),
		Inputs:        []ir.Input{{Name: "clinton.pcm", Seed: 303}},
		DeadlineFracs: [5]float64{0.026, 0.066, 0.145, 0.545, 0.996},
	}
}

// MpegDecode builds mpeg/decode: a frame loop over a macroblock loop with a
// B-frame path whose frequency depends on the input category (paper
// Section 6.4 / Figure 19). Inputs:
//
//	100b, bbc  — category 1, no B-frames (branch probability 0);
//	flwr, cact — category 2, 2 B-frames between I/P frames (probability ⅓).
func MpegDecode(scale float64) *Spec {
	b := ir.NewBuilder("mpeg/decode")
	hot := b.SequentialStream(hotWS)
	cold := b.StridedStream(lineSize, coldWS)

	init := b.Block("init")
	frame := b.Block("frame-head")
	mc := b.Block("mc-head")
	bframe := b.Block("mc-bframe")
	pframe := b.Block("mc-pframe")
	mcLatch := b.Block("mc-latch")
	idct := b.Block("idct")
	output := b.Block("output")
	frameLatch := b.Block("frame-latch")
	done := b.Block("done")

	init.Compute(3000)
	loads(init, hot, 100)
	init.Jump(frame)

	loads(frame, hot, 60)
	frame.Compute(400)
	frame.Jump(mc)

	// Each frame runs three phases over its macroblocks, so a frame is a
	// sequence of coarse regions the optimizer can pin to different modes,
	// with transitions at phase boundaries (the paper's Table 5 texture).
	// Per-MB totals across the phases: hot ≈ 518, cold = 1, o ≈ 1624,
	// d ≈ 1017 (I = 90 frames × 300 MBs at full scale).
	//
	// Phase 1 — motion compensation: streams the reference frame (the cold
	// miss) and waits on it; memory-bound. The B-frame path (input-category
	// dependent) does bidirectional prediction and costs more.
	loads(mc, hot, 100)
	mc.Load(cold)
	mc.Compute(200).DependentCompute(150)
	bCond := b.ProbBranch(mc, bframe, pframe, 1.0/3)

	loads(bframe, hot, 200)
	bframe.Compute(350).DependentCompute(250)
	bframe.Jump(mcLatch)

	loads(pframe, hot, 167)
	pframe.Compute(300).DependentCompute(217)
	pframe.Jump(mcLatch)

	mbTrips := trips(300, math.Min(1, scale*3))
	frameTrips := trips(int(math.Round(27000*scale))/mbTrips, 1)
	mcLatch.Compute(50).DependentCompute(28)
	b.LoopBranch(mcLatch, mc, idct, mbTrips)

	// Phase 2 — inverse DCT: compute-bound.
	loads(idct, hot, 140)
	idct.Compute(700).DependentCompute(400)
	b.LoopBranch(idct, idct, output, mbTrips)

	// Phase 3 — colour conversion and output: mixed.
	loads(output, hot, 100)
	output.Compute(350).DependentCompute(190)
	b.LoopBranch(output, output, frameLatch, mbTrips)

	frameLatch.Compute(600)
	loads(frameLatch, hot, 40)
	outerCond := b.LoopBranch(frameLatch, frame, done, frameTrips)

	done.Compute(800)
	done.Exit()

	prog := b.MustFinish()
	return &Spec{
		Name:    "mpeg/decode",
		Program: prog,
		Inputs: []ir.Input{
			{Name: "flwr.m2v", Seed: 404},
			{Name: "cact.m2v", Seed: 405, Trips: map[int]int{outerCond: frameTrips * 16 / 15}},
			{Name: "100b.m2v", Seed: 406, Probs: map[int]float64{bCond: 0}},
			{Name: "bbc.m2v", Seed: 407, Probs: map[int]float64{bCond: 0}, Trips: map[int]int{outerCond: frameTrips * 14 / 15}},
		},
		DeadlineFracs: [5]float64{0.024, 0.096, 0.118, 0.382, 1.0},
	}
}

// Mpg123 builds the mp3 decoder: almost pure computation (Table 4 shows a
// near-perfect 1/f runtime scaling), structured as a frame loop with a
// subband-synthesis inner loop.
func Mpg123(scale float64) *Spec {
	b := ir.NewBuilder("mpg123")
	hot := b.SequentialStream(hotWS)
	cold := b.StridedStream(lineSize, coldWS)

	init := b.Block("init")
	frame := b.Block("frame-head")
	granule := b.Block("granule")
	synth := b.Block("synth")
	latch := b.Block("frame-latch")
	done := b.Block("done")

	init.Compute(2000)
	loads(init, hot, 50)
	init.Jump(frame)

	// I = 2000 frames; per frame: hot ≈ 250, cold = 1, o ≈ 9500, d ≈ 7200.
	loads(frame, hot, 80)
	frame.Load(cold)
	frame.Compute(2500).DependentCompute(1200)
	frame.Jump(granule)

	loads(granule, hot, 90)
	granule.Compute(3500).DependentCompute(3000)
	granule.Jump(synth)

	loads(synth, hot, 80)
	synth.Compute(3500).DependentCompute(3000)
	synth.Jump(latch)

	latch.Compute(30)
	b.LoopBranch(latch, frame, done, trips(2000, scale))

	done.Compute(400)
	done.Exit()

	return &Spec{
		Name:          "mpg123",
		Program:       b.MustFinish(),
		Inputs:        []ir.Input{{Name: "track.mp3", Seed: 505}},
		DeadlineFracs: [5]float64{0.005, 0.102, 0.117, 0.417, 0.999},
	}
}

// Ghostscript builds the postscript interpreter: the smallest benchmark,
// with a pronounced memory component that does not scale with frequency
// (Table 4: 2.0 ms at 200 MHz vs 0.74 ms at 800 MHz, a ratio well under 4).
func Ghostscript(scale float64) *Spec {
	b := ir.NewBuilder("ghostscript")
	hot := b.StridedStream(4, 8<<10) // fits L1: only 256 cold lines
	cold := b.StridedStream(lineSize, coldWS)

	init := b.Block("init")
	token := b.Block("token")
	operator := b.Block("operator")
	literal := b.Block("literal")
	latch := b.Block("token-latch")
	done := b.Block("done")

	init.Compute(600)
	loads(init, hot, 30)
	init.Jump(token)

	// I = 2900 tokens; per token: hot ≈ 7, cold = 1, o ≈ 9, d ≈ 75; the
	// dependent chain right after the miss leaves the miss latency exposed.
	loads(token, hot, 3)
	token.Load(cold)
	token.Compute(6).DependentCompute(30)
	b.ProbBranch(token, operator, literal, 0.7)

	loads(operator, hot, 2)
	operator.Compute(4).DependentCompute(45)
	operator.Jump(latch)

	loads(literal, hot, 2)
	literal.Compute(2).DependentCompute(30)
	literal.Jump(latch)

	latch.DependentCompute(4)
	b.LoopBranch(latch, token, done, trips(2900, scale))

	done.Compute(200)
	done.Exit()

	return &Spec{
		Name:          "ghostscript",
		Program:       b.MustFinish(),
		Inputs:        []ir.Input{{Name: "tiger.ps", Seed: 606}},
		DeadlineFracs: [5]float64{0.016, 0.056, 0.206, 0.603, 1.0},
	}
}

// CheckScale returns an error unless scale is a finite number above 0. The
// constructors accept any scale, since trip counts are clamped to at least
// 2, so every tool that takes -scale from its user checks it here first.
func CheckScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("-scale %v: want a finite number above 0", scale)
	}
	return nil
}

// All returns the full six-benchmark suite at the given scale.
func All(scale float64) []*Spec {
	return []*Spec{
		Adpcm(scale),
		Epic(scale),
		Gsm(scale),
		MpegDecode(scale),
		Mpg123(scale),
		Ghostscript(scale),
	}
}

// Table7Suite returns the four benchmarks with Table 7 / Table 1 / Table 6
// rows in the paper: adpcm, epic, gsm, mpeg/decode.
func Table7Suite(scale float64) []*Spec {
	return []*Spec{Adpcm(scale), Epic(scale), Gsm(scale), MpegDecode(scale)}
}
