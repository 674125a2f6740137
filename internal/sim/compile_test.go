package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ctdvs/internal/cfg"
	"ctdvs/internal/ir"
	"ctdvs/internal/volt"
)

// refMachine builds a machine of configuration mc that runs the reference
// instruction-walking interpreter (reference_test.go), the oracle the
// compiled kernel must match.
func refMachine(mc Config) *Machine {
	m := MustNew(mc)
	r := &refInterp{Machine: m, l1: newCache(mc.L1), l2: newCache(mc.L2)}
	m.interp = r.runReference
	return m
}

// randomSchedule assigns a random mode to a random subset of p's CFG edges
// (sometimes including the virtual entry edge, sometimes a nonexistent edge,
// which both kernels must silently ignore).
func randomSchedule(t *testing.T, rng *rand.Rand, p *ir.Program, ms *volt.ModeSet) *Schedule {
	t.Helper()
	g, err := cfg.FromProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	assign := make(map[cfg.Edge]int)
	for _, e := range g.Edges {
		if rng.Intn(2) == 0 {
			assign[e] = rng.Intn(ms.Len())
		}
	}
	if rng.Intn(3) == 0 {
		assign[cfg.Edge{From: len(p.Blocks) + 5, To: 0}] = rng.Intn(ms.Len())
	}
	return &Schedule{
		Modes:      ms,
		Assignment: assign,
		Initial:    rng.Intn(ms.Len()),
		Regulator:  volt.DefaultRegulator(),
	}
}

// TestCompiledMatchesReferenceRun is the tentpole property test: on arbitrary
// programs, configurations and mode sets, fixed-mode Run on the compiled
// kernel must be bit-for-bit identical to the reference interpreter.
func TestCompiledMatchesReferenceRun(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	ms5, err := volt.Uniform(5, 0.8, 1.6, volt.DefaultScaling())
	if err != nil {
		t.Fatal(err)
	}
	modeSets := [][]volt.Mode{volt.XScale3().Modes(), ms5.Modes()}
	for ci, mc := range replayTestConfigs() {
		comp := MustNew(mc)
		ref := refMachine(mc)
		for pi := 0; pi < 8; pi++ {
			p, in := randomProgram(rng, fmt.Sprintf("comp-%d-%d", ci, pi))
			for _, mode := range modeSets[pi%len(modeSets)] {
				want, err := ref.Run(p, in, mode)
				if err != nil {
					t.Fatalf("cfg %d prog %d: reference: %v", ci, pi, err)
				}
				got, err := comp.Run(p, in, mode)
				if err != nil {
					t.Fatalf("cfg %d prog %d: compiled: %v", ci, pi, err)
				}
				checkReplayedResult(t, fmt.Sprintf("cfg %d prog %d mode %v", ci, pi, mode), want, got)
			}
		}
	}
}

// TestCompiledMatchesReferenceDVS extends the property to scheduled runs:
// random per-edge mode assignments, regulator transition pricing included.
func TestCompiledMatchesReferenceDVS(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	ms := volt.XScale3()
	for ci, mc := range replayTestConfigs() {
		comp := MustNew(mc)
		ref := refMachine(mc)
		for pi := 0; pi < 8; pi++ {
			p, in := randomProgram(rng, fmt.Sprintf("dvs-%d-%d", ci, pi))
			sched := randomSchedule(t, rng, p, ms)
			want, err := ref.RunDVS(p, in, sched)
			if err != nil {
				t.Fatalf("cfg %d prog %d: reference: %v", ci, pi, err)
			}
			got, err := comp.RunDVS(p, in, sched)
			if err != nil {
				t.Fatalf("cfg %d prog %d: compiled: %v", ci, pi, err)
			}
			checkReplayedResult(t, fmt.Sprintf("cfg %d prog %d", ci, pi), want, got)
		}
	}
}

// TestCompiledMatchesReferenceRecord requires Record to produce identical
// event streams and results through both kernels (the recorder hooks sit in
// the hot loop, so they are easy to misplace in a specialized kernel).
func TestCompiledMatchesReferenceRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for ci, mc := range replayTestConfigs() {
		comp := MustNew(mc)
		ref := refMachine(mc)
		for pi := 0; pi < 5; pi++ {
			p, in := randomProgram(rng, fmt.Sprintf("rec-%d-%d", ci, pi))
			mode := volt.XScale3().Max()
			wantRec, wantRes, err := ref.Record(p, in, mode)
			if err != nil {
				t.Fatalf("cfg %d prog %d: reference: %v", ci, pi, err)
			}
			gotRec, gotRes, err := comp.Record(p, in, mode)
			if err != nil {
				t.Fatalf("cfg %d prog %d: compiled: %v", ci, pi, err)
			}
			checkReplayedResult(t, fmt.Sprintf("cfg %d prog %d", ci, pi), wantRes, gotRes)
			if !reflect.DeepEqual(wantRec, gotRec) {
				t.Errorf("cfg %d prog %d: recordings differ", ci, pi)
			}
		}
	}
}

// TestCompiledMatchesReferenceGoverned covers the run-time governor path:
// interval stats, mode decisions and transition pricing must come out of the
// compiled kernel unchanged.
func TestCompiledMatchesReferenceGoverned(t *testing.T) {
	ms := volt.XScale3()
	for ci, mc := range replayTestConfigs() {
		comp := MustNew(mc)
		ref := refMachine(mc)
		prog := phased(500)
		in := ir.Input{Name: "g", Seed: 17}
		mkGov := func() Governor { return &UtilizationGovernor{Modes: ms, Low: 0.6, High: 0.9} }
		want, err := ref.RunGoverned(prog, in, ms, volt.DefaultRegulator(), ms.Len()-1, 50, mkGov())
		if err != nil {
			t.Fatalf("cfg %d: reference: %v", ci, err)
		}
		got, err := comp.RunGoverned(prog, in, ms, volt.DefaultRegulator(), ms.Len()-1, 50, mkGov())
		if err != nil {
			t.Fatalf("cfg %d: compiled: %v", ci, err)
		}
		checkReplayedResult(t, fmt.Sprintf("cfg %d governed", ci), want, got)
	}
}

// TestCompiledEdgeHook verifies the compiled kernel fires EdgeHook on the
// same edge sequence as the reference interpreter.
func TestCompiledEdgeHook(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	p, in := randomProgram(rng, "hook")
	mode := volt.XScale3().Max()
	trace := func(m *Machine) [][2]int {
		var seq [][2]int
		m.EdgeHook = func(from, to int) { seq = append(seq, [2]int{from, to}) }
		if _, err := m.Run(p, in, mode); err != nil {
			t.Fatal(err)
		}
		m.EdgeHook = nil
		return seq
	}
	want := trace(refMachine(DefaultConfig()))
	got := trace(MustNew(DefaultConfig()))
	if !reflect.DeepEqual(want, got) {
		t.Errorf("edge sequences differ: reference %d edges, compiled %d", len(want), len(got))
	}
	if len(want) == 0 || want[0] != [2]int{cfg.Entry, 0} {
		t.Errorf("edge sequence does not start at the entry edge: %v", want[:min(len(want), 3)])
	}
}

// TestCompileProgramErrors pins the validation surface of the compile step.
func TestCompileProgramErrors(t *testing.T) {
	p := computeOnly(50, 100)
	if _, err := CompileProgram(p, Config{}); err == nil {
		t.Error("CompileProgram accepted an invalid config")
	}
	if _, err := CompileProgram(&ir.Program{Name: "empty"}, DefaultConfig()); err == nil {
		t.Error("CompileProgram accepted an invalid program")
	}
	if cp, err := CompileProgram(p, DefaultConfig()); err != nil {
		t.Errorf("CompileProgram rejected a valid program: %v", err)
	} else {
		if cp.Program() != p {
			t.Error("CompiledProgram.Program does not return the source program")
		}
		if cp.Config() != DefaultConfig() {
			t.Error("CompiledProgram.Config does not round-trip")
		}
	}
}

// TestMachineReuseAcrossPrograms is the pooled-buffer regression test:
// back-to-back runs on ONE machine across different programs — interleaving
// fixed-mode, DVS-scheduled and recorded runs so every pooled buffer is
// resized up and down — must match fresh machines bit for bit.
func TestMachineReuseAcrossPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	ms := volt.XScale3()
	mc := replayTestConfigs()[1] // small caches: all access outcomes occur
	reused := MustNew(mc)

	type runCase struct {
		p     *ir.Program
		in    ir.Input
		sched *Schedule
	}
	var cases []runCase
	for i := 0; i < 6; i++ {
		p, in := randomProgram(rng, fmt.Sprintf("reuse-%d", i))
		var sched *Schedule
		if i%2 == 1 {
			sched = randomSchedule(t, rng, p, ms)
		}
		cases = append(cases, runCase{p, in, sched})
	}
	// Two passes over the case list: the second pass re-runs each program on
	// a machine whose buffers were last sized for a different program and
	// whose compiled cache already holds every entry.
	for pass := 0; pass < 2; pass++ {
		for i, c := range cases {
			ctx := fmt.Sprintf("pass %d case %d", pass, i)
			fresh := MustNew(mc)
			var want, got *Result
			var errW, errG error
			if c.sched != nil {
				want, errW = fresh.RunDVS(c.p, c.in, c.sched)
				got, errG = reused.RunDVS(c.p, c.in, c.sched)
			} else {
				want, errW = fresh.Run(c.p, c.in, ms.Max())
				got, errG = reused.Run(c.p, c.in, ms.Max())
			}
			if errW != nil || errG != nil {
				t.Fatalf("%s: fresh err %v, reused err %v", ctx, errW, errG)
			}
			checkReplayedResult(t, ctx, want, got)
			if i%3 == 2 {
				reused.Reset() // pool-return path must not disturb the next run
			}
		}
	}
}

// TestCompiledCacheSurvivesReset pins the cache-by-identity contract: one
// compilation per program per machine, retained across Reset (that retention
// is the point — a pooled machine compiles each workload once).
func TestCompiledCacheSurvivesReset(t *testing.T) {
	p := computeOnly(50, 100)
	in := ir.Input{Name: "c", Seed: 1}
	m := MustNew(DefaultConfig())
	if _, err := m.Run(p, in, mode800()); err != nil {
		t.Fatal(err)
	}
	first := m.compiled[p]
	if first == nil {
		t.Fatal("run did not populate the compiled-program cache")
	}
	m.Reset()
	if _, err := m.Run(p, in, mode800()); err != nil {
		t.Fatal(err)
	}
	if m.compiled[p] != first {
		t.Error("Reset dropped the compiled program; recompiled on next run")
	}
	if len(m.compiled) != 1 {
		t.Errorf("compiled cache holds %d entries, want 1", len(m.compiled))
	}
}

// TestPooledMachinesConcurrent drives a machine pool from many goroutines —
// run, record, reset, return — so the race detector (make ci) can see any
// sharing between one machine's pooled buffers or compiled cache and
// another's. Results must stay bit-identical to a baseline throughout.
func TestPooledMachinesConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	mc := DefaultConfig()
	progs := make([]*ir.Program, 3)
	ins := make([]ir.Input, 3)
	for i := range progs {
		progs[i], ins[i] = randomProgram(rng, fmt.Sprintf("pool-%d", i))
	}
	mode := volt.XScale3().Max()
	baseline := make([]*Result, len(progs))
	for i := range progs {
		r, err := MustNew(mc).Run(progs[i], ins[i], mode)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = r
	}

	pool := sync.Pool{New: func() interface{} { return MustNew(mc) }}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				i := (w + iter) % len(progs)
				m := pool.Get().(*Machine)
				got, err := m.Run(progs[i], ins[i], mode)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if !reflect.DeepEqual(baseline[i], got) {
					t.Errorf("worker %d iter %d: pooled result diverged", w, iter)
					return
				}
				if iter%3 == 0 {
					if _, _, err := m.Record(progs[i], ins[i], mode); err != nil {
						t.Errorf("worker %d: record: %v", w, err)
						return
					}
				}
				m.Reset()
				pool.Put(m)
			}
		}(w)
	}
	wg.Wait()
}
