package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"ctdvs/internal/pipeline"
)

// The request workloads run the dvs-opt flow, one caller in a closed loop.
// Each request runs on a fresh, empty disk store opened as the commands open
// one, through Store.Close (the cold half); later a fresh runner over that
// store repeats it (the warm half). request-cold times the cold half,
// request-warm the warm half; both run both halves, so the cold and warm
// answers to every request are compared.

var requestCold = workload{
	name: "request-cold", opUnit: "cold request",
	setup: setupRequest, measure: func(e *env, s state) (*outcome, error) { return measureRequest(e, s.(*requestState), false) },
}

var requestWarm = workload{
	name: "request-warm", opUnit: "warm request",
	setup: setupRequest, measure: func(e *env, s state) (*outcome, error) { return measureRequest(e, s.(*requestState), true) },
}

// warmRepeats is how many sweeps of fresh runners repeat each chunk's
// requests on request-warm; a request's warm latency is the median of its
// repeats, which keeps a host stall in one repeat out of the statistics.
const warmRepeats = 15

// roundChunk is how many requests runRound takes through their cold and
// then their warm halves at a time. On request-warm the warm halves take
// about a quarter of a round's time; in chunks of 12 they come in 9 bursts
// spread over the round instead of one at its end, so the workload samples
// the host's speed, which wanders over seconds on a shared host, all
// through the run.
const roundChunk = 12

// warmsPerGC is how many timed warm halves run between two collections.
// A warm half allocates about 0.4 MB, a tenth of the Go runtime's smallest
// heap goal, so the fresh dvs-opt process it stands for never collects
// during one; the timed warm halves therefore run with the collector off,
// and the heap is collected between them before its garbage reaches that
// goal.
const warmsPerGC = 8

// requestBlockSeconds is about how long a block of three request rounds
// takes on a 2-vCPU host. --seconds sets how many blocks a run measures, so
// the work a run does is fixed by its arguments: neither a faster host nor a
// faster cold path changes it (nor, with it, the peak RSS).
const requestBlockSeconds = 14

type requestState struct{ gen *generator }

func (*requestState) close() error { return nil }

// setupRequest draws the seed's request sequence and warms the code and
// the runtime with one fixed request at each level count, so the timed
// phase starts warm.
func setupRequest(e *env) (state, error) {
	st := &requestState{gen: newGenerator(e.seed)}
	var ops []req
	for _, lv := range levelChoices {
		ops = append(ops, req{Bench: "adpcm/encode", Levels: lv, Deadline: 3, CapF: 10e-6})
	}
	for _, h := range runRound(e, ops, 1, false, nil, false) {
		if h.err != nil {
			return nil, h.err
		}
	}
	return st, nil
}

// halves are the timings and answers of one request.
type halves struct {
	err    error
	coldMS float64
	warmMS []float64
	cold   answer
	warm   []answer
	check  checked
	// Allocation counts of the cold half and of the warm halves, when
	// asked for.
	coldMallocs, coldBytes uint64
	warmMallocs, warmBytes uint64
}

// runRound runs a round of requests roundChunk at a time: the chunk's cold
// halves, each on its own fresh store, then warms sweeps over the chunk,
// each running every request's warm half once. Running a chunk's cold
// halves first keeps their store writes out of its warm halves' way.
// Chunking spreads the warm halves over the whole round, and sweeping
// spreads one request's repeats over its chunk's warm phase, so a slow
// stretch of the host reaches a few of them, not all. A timed half stands
// for a fresh dvs-opt process, which does not pay for earlier requests'
// garbage: each timed cold half starts on a collected heap, and timed warm
// halves run as warmsPerGC describes. With a tracedFlow it runs the
// composed, traced flow instead of exp's calls; with allocs it counts each
// half's allocations. A failed request carries its error.
func runRound(e *env, ops []req, warms int, timedWarm bool, tr *tracedFlow, allocs bool) []*halves {
	hs := make([]*halves, len(ops))
	dirs := make([]string, len(ops))
	defer func() {
		for _, d := range dirs {
			if d != "" {
				os.RemoveAll(d)
			}
		}
	}()
	warmChunk := func(lo, hi int) {
		if timedWarm {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
		}
		for j, n := 0, 0; j < warms; j++ {
			for i := lo; i < hi; i++ {
				h := hs[i]
				if h.err != nil {
					continue
				}
				if timedWarm && n%warmsPerGC == 0 {
					runtime.GC()
				}
				n++
				w, err := runHalf(dirs[i], ops[i], true, false, tr, allocs)
				if err != nil {
					h.err = fmt.Errorf("warm %s: %w", ops[i].key(), err)
					continue
				}
				h.warm = append(h.warm, w.a)
				h.warmMS = append(h.warmMS, w.ms)
				h.warmMallocs += w.mallocs
				h.warmBytes += w.bytes
			}
		}
	}
	for lo := 0; lo < len(ops); lo += roundChunk {
		hi := min(lo+roundChunk, len(ops))
		for i := lo; i < hi; i++ {
			r := ops[i]
			h := &halves{}
			hs[i] = h
			if dirs[i], h.err = os.MkdirTemp(e.work, "store-"); h.err != nil {
				continue
			}
			c, err := runHalf(dirs[i], r, false, !timedWarm, tr, allocs)
			if err != nil {
				h.err = fmt.Errorf("cold %s: %w", r.key(), err)
				continue
			}
			h.cold, h.check, h.coldMS, h.coldMallocs, h.coldBytes = c.a, c.c, c.ms, c.mallocs, c.bytes
		}
		warmChunk(lo, hi)
	}
	return hs
}

// half is one half's outcome.
type half struct {
	a              answer
	c              checked
	ms             float64
	mallocs, bytes uint64
}

// runHalf opens the store in dir as the commands do, runs the request on a
// fresh runner and closes the store, timing all of it.
func runHalf(dir string, r req, warm, collect bool, tr *tracedFlow, allocs bool) (half, error) {
	var out half
	if collect {
		runtime.GC()
	}
	var m0, m1 runtime.MemStats
	if allocs {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	var s sp
	if tr != nil {
		s = tr.begin(warm)
	}
	o := s.child("pipeline.open")
	store, err := openStore(dir)
	o.end()
	if err != nil {
		return out, err
	}
	x := s.child("exp.config")
	cfg := newConfig(pipeline.NewRunner(store))
	x.end()
	ctx := context.Background()
	if tr != nil {
		out.a, out.c, err = newComposer(cfg, tr.counters(warm)).request(ctx, s, r)
	} else {
		out.a, out.c, err = runRequest(ctx, cfg, r)
	}
	cl := s.child("pipeline.close")
	cerr := store.Close()
	cl.end()
	s.end()
	out.ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err == nil {
		err = cerr
	}
	if tr != nil {
		tr.pipelineStats(warm, cfg.Pipeline.Manifest())
	}
	if allocs {
		runtime.ReadMemStats(&m1)
		out.mallocs, out.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	}
	return out, err
}

// checkOp runs every answer check on one request: the self-checks, cold
// against warm, and both against the expected file.
func checkOp(e *env, r req, h *halves) error {
	if h.err != nil {
		return h.err
	}
	if err := checkAnswer(h.cold, h.check); err != nil {
		return fmt.Errorf("%s: %w", r.key(), err)
	}
	for _, w := range h.warm {
		if w != h.cold {
			return fmt.Errorf("%s: warm answer %+v differs from cold %+v", r.key(), w, h.cold)
		}
	}
	want, ok := e.want.Requests[r.key()]
	if !ok {
		return fmt.Errorf("%s: %w", r.key(), errNoExpected)
	}
	if !same(h.cold, want) {
		return fmt.Errorf("%s: answer %+v, expected %+v", r.key(), h.cold, want)
	}
	return nil
}

func measureRequest(e *env, st *requestState, warmTimed bool) (*outcome, error) {
	if e.traced {
		return traceRequest(e, st, warmTimed)
	}
	warms := 1
	if warmTimed {
		warms = warmRepeats
	}
	oc := &outcome{}
	// ops_per_s is the rate at which one caller gets through the requests,
	// each taking the time of its latency sample (on request-warm the median
	// of its repeats, so a host stall in one repeat does not count).
	var n int
	var busy float64
	// Whole blocks of three rounds, so every benchmark-level-deadline cell
	// meets every capacitance equally often.
	rounds := 3 * max(1, int(math.Round(e.seconds/requestBlockSeconds)))
	for k := 0; k < rounds; k++ {
		ops := st.gen.nextRound()
		for i, h := range runRound(e, ops, warms, warmTimed, nil, false) {
			if err := checkOp(e, ops[i], h); err != nil {
				oc.record(0, err)
				continue
			}
			ms := h.coldMS
			if warmTimed {
				ms = median(h.warmMS)
			}
			oc.record(ms, nil)
			n++
			busy += ms
			if x, ok := h.cold.ratio(); ok {
				oc.ratios = append(oc.ratios, x)
			}
		}
	}
	fmt.Fprintf(e.out, "%d rounds of %d requests\n", rounds, len(oc.lat.ms)/rounds)
	if busy > 0 {
		oc.opsPerS = float64(n) / (busy / 1e3)
	}
	return oc, nil
}
