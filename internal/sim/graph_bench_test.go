package sim_test

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"ctdvs/internal/core"
	"ctdvs/internal/exp"
	"ctdvs/internal/sim"
	"ctdvs/internal/workloads"
)

// taskGraphBenchRecord is the schema of BENCH_taskgraph.json.
type taskGraphBenchRecord struct {
	Graph      string  `json:"graph"`
	Scale      float64 `json:"scale"`
	Tasks      int     `json:"tasks"`
	Cores      int     `json:"cores"`
	Workers    int     `json:"workers"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	// SolveNsOp is one full graph solve: HEFT list placement plus the
	// per-task mode MILP under precedence and deadline rows.
	SolveNsOp float64 `json:"solve_ns_per_op"`
	// Serial/parallel execution of the solved schedule on pooled machines.
	SerialSimNsOp   float64 `json:"serial_sim_ns_per_op"`
	ParallelSimNsOp float64 `json:"parallel_sim_ns_per_op"`
	SimSpeedup      float64 `json:"speedup_parallel_vs_serial_sim"`
	// SingleProcSerialized reports that GOMAXPROCS was 1: the worker
	// goroutines time-slice one processor, so the parallel execution does
	// the serial run's exact work with no concurrency to win from (the runs
	// are asserted bit-identical). The record keeps both raw wall times and
	// states the structural speedup — exactly 1 — instead of scheduling
	// noise, mirroring BENCH_milp.json's auto_serialized convention.
	SingleProcSerialized bool    `json:"single_proc_serialized"`
	BitIdentical         bool    `json:"bit_identical"`
	StaticEnergyUJ       float64 `json:"static_energy_uj"`
	MakespanUS           float64 `json:"makespan_us"`
	BBNodes              int     `json:"bb_nodes"`
}

// benchMachinePool is a grow-on-demand machine pool for the parallel graph
// simulation benchmark.
type benchMachinePool struct {
	mu   sync.Mutex
	free []*sim.Machine
}

func (p *benchMachinePool) Acquire() *sim.Machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free = p.free[:n-1]
		return m
	}
	return sim.MustNew(sim.DefaultConfig())
}

func (p *benchMachinePool) Release(m *sim.Machine) {
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}

// BenchmarkTaskGraphSolve measures the multi-core task-graph path: the timed
// loop is the graph solve (placement + mode MILP) on a wide fork-join DAG at
// scale 0.1; serial and parallel executions of the solved schedule by the
// reference multi-core simulator are measured inline, checked bit-identical,
// and the record — gated by benchcheck on the parallel-vs-serial simulation
// speedup — lands in the module root's BENCH_taskgraph.json.
func BenchmarkTaskGraphSolve(b *testing.B) {
	const scale = 0.1
	c := exp.NewConfig(scale)
	gs := workloads.ForkJoin(8, 4)
	gw, err := c.BuildGraph(gs, 3, 0)
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	var res *core.GraphResult
	for i := 0; i < b.N; i++ {
		res, err = core.OptimizeGraph(gw.Graph, gw.Profiles, gw.Cores, gw.DeadlineUS, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	solveNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)

	pool := &benchMachinePool{}
	workers := gw.Cores
	serialRes, err := sim.SimulateGraph(pool, gw.Graph, res.Schedule, 1)
	if err != nil {
		b.Fatal(err)
	}
	parRes, err := sim.SimulateGraph(pool, gw.Graph, res.Schedule, workers)
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(serialRes, parRes) {
		b.Fatal("parallel graph simulation differs from serial")
	}

	// meanNs returns the mean wall nanoseconds of n invocations of fn.
	meanNs := func(n int, fn func()) float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	const simIters = 5
	serialNs := meanNs(simIters, func() {
		if _, err := sim.SimulateGraph(pool, gw.Graph, res.Schedule, 1); err != nil {
			b.Fatal(err)
		}
	})
	parNs := meanNs(simIters, func() {
		if _, err := sim.SimulateGraph(pool, gw.Graph, res.Schedule, workers); err != nil {
			b.Fatal(err)
		}
	})

	rec := taskGraphBenchRecord{
		Graph:           gs.Name,
		Scale:           scale,
		Tasks:           len(gw.Graph.Tasks),
		Cores:           gw.Cores,
		Workers:         workers,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		SolveNsOp:       solveNs,
		SerialSimNsOp:   serialNs,
		ParallelSimNsOp: parNs,
		SimSpeedup:      serialNs / parNs,
		BitIdentical:    true,
		StaticEnergyUJ:  serialRes.EnergyUJ,
		MakespanUS:      serialRes.MakespanUS,
		BBNodes:         res.Solver.Nodes,
	}
	b.ReportMetric(rec.SimSpeedup, "raw-parallel-sim-ratio")
	if rec.GOMAXPROCS == 1 {
		rec.SingleProcSerialized = true
		rec.SimSpeedup = 1.0
	}
	b.ReportMetric(rec.SimSpeedup, "parallel-sim-speedup")
	b.ReportMetric(float64(rec.BBNodes), "bb-nodes")
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	// go test runs a package's benchmarks in the package directory, two
	// levels below the module root where the BENCH_*.json records live.
	if err := os.WriteFile("../../BENCH_taskgraph.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
