package sim

import (
	"fmt"
	"sync"

	"ctdvs/internal/ir"
	"ctdvs/internal/volt"
)

// This file adds the multi-core scheduler-simulator: it executes a
// list-scheduled ir.TaskGraph over N machine instances. Each task runs on one
// core as an ordinary single-program simulation (fixed mode, or an edge-grained
// Schedule for the degenerate 1-task case), so the compiled-kernel machines and
// the record/replay profiler carry over per task; the cross-task timeline —
// release times, precedence waits, per-core serialization and inter-task mode
// transitions — is pure arithmetic assembled afterwards. Task simulations are
// independent, which makes the parallel and serial execution paths
// bit-identical by construction.

// TaskPlacement fixes where and how one task runs: the core it is assigned to
// and the DVS mode it executes at.
type TaskPlacement struct {
	Core int `json:"core"`
	Mode int `json:"mode"`
}

// GraphSchedule is the executable schedule of a task graph: the mode set and
// regulator, the core count, per-task placements, the per-core execution
// order, and optionally a per-task edge-grained intra-task schedule.
type GraphSchedule struct {
	Modes     *volt.ModeSet
	Regulator volt.Regulator
	// Cores is the number of machine instances.
	Cores int
	// Placement[t] is task t's core and mode.
	Placement []TaskPlacement
	// Order[c] lists the tasks of core c in execution order. Every task
	// appears exactly once, on its placed core, in an order consistent with
	// the precedence edges.
	Order [][]int
	// Intra[t], when non-nil, runs task t under the edge-grained Schedule
	// instead of a fixed mode — the seam through which the single-program
	// optimizer's output executes bit-identically inside a task graph. An
	// intra-task schedule leaves the core's exit mode unspecified, so it is
	// only allowed for a task that is alone on its core (nil Intra, or a
	// shorter slice, means every task is fixed-mode).
	Intra []*Schedule
}

// Validate checks the schedule against the graph it is meant to execute.
func (s *GraphSchedule) Validate(g *ir.TaskGraph) error {
	if s == nil || s.Modes == nil {
		return fmt.Errorf("sim: nil graph schedule")
	}
	n := len(g.Tasks)
	if s.Cores < 1 {
		return fmt.Errorf("sim: graph schedule has %d cores", s.Cores)
	}
	if len(s.Placement) != n {
		return fmt.Errorf("sim: graph schedule places %d tasks, graph has %d", len(s.Placement), n)
	}
	if len(s.Order) != s.Cores {
		return fmt.Errorf("sim: graph schedule orders %d cores, want %d", len(s.Order), s.Cores)
	}
	for t, pl := range s.Placement {
		if pl.Core < 0 || pl.Core >= s.Cores {
			return fmt.Errorf("sim: task %d placed on core %d of %d", t, pl.Core, s.Cores)
		}
		if pl.Mode < 0 || pl.Mode >= s.Modes.Len() {
			return fmt.Errorf("sim: task %d uses mode %d of %d", t, pl.Mode, s.Modes.Len())
		}
	}
	seen := make([]bool, n)
	for c, order := range s.Order {
		for _, t := range order {
			if t < 0 || t >= n {
				return fmt.Errorf("sim: core %d orders unknown task %d", c, t)
			}
			if seen[t] {
				return fmt.Errorf("sim: task %d ordered twice", t)
			}
			seen[t] = true
			if s.Placement[t].Core != c {
				return fmt.Errorf("sim: task %d ordered on core %d but placed on core %d", t, c, s.Placement[t].Core)
			}
		}
	}
	for t := 0; t < n; t++ {
		if !seen[t] {
			return fmt.Errorf("sim: task %d missing from core orders", t)
		}
	}
	for t := 0; t < len(s.Intra) && t < n; t++ {
		if s.Intra[t] != nil && len(s.Order[s.Placement[t].Core]) != 1 {
			return fmt.Errorf("sim: task %d has an intra-task schedule but shares core %d", t, s.Placement[t].Core)
		}
	}
	return nil
}

// intra returns task t's intra-task schedule, nil when fixed-mode.
func (s *GraphSchedule) intra(t int) *Schedule {
	if t < len(s.Intra) {
		return s.Intra[t]
	}
	return nil
}

// TaskRun is one task's slot in the executed timeline.
type TaskRun struct {
	Task int    `json:"task"`
	Name string `json:"name"`
	Core int    `json:"core"`
	Mode int    `json:"mode"`
	// StartUS/FinishUS bound the task's execution (µs from graph start);
	// the entering mode transition, if any, happens immediately before
	// StartUS and is reported separately.
	StartUS  float64 `json:"start_us"`
	FinishUS float64 `json:"finish_us"`
	// TimeUS and EnergyUJ are the task's own execution time and energy.
	TimeUS   float64 `json:"time_us"`
	EnergyUJ float64 `json:"energy_uj"`
	// TransitionTimeUS/TransitionEnergyUJ price the mode switch entering this
	// task (zero for the first task on a core).
	TransitionTimeUS   float64 `json:"transition_time_us"`
	TransitionEnergyUJ float64 `json:"transition_energy_uj"`
}

// GraphResult is the outcome of executing a task graph.
type GraphResult struct {
	Graph string
	Runs  []TaskRun

	// MakespanUS is the latest task finish time.
	MakespanUS float64
	// EnergyUJ totals task energies plus inter-task transition energies.
	EnergyUJ     float64
	TaskEnergyUJ float64

	Transitions        int64
	TransitionTimeUS   float64
	TransitionEnergyUJ float64

	// CoreBusyUS is per-core busy time (execution plus transitions).
	CoreBusyUS []float64
	// MissedDeadlines counts tasks finishing after their per-task deadline.
	MissedDeadlines int
}

// MeetsDeadline reports whether the whole graph finished within deadlineUS
// and no per-task deadline was missed (same tolerance as the single-program
// measurements).
func (r *GraphResult) MeetsDeadline(deadlineUS float64) bool {
	return r.MissedDeadlines == 0 && r.MakespanUS <= deadlineUS*(1+1e-9)
}

// PlanGraph assembles the execution timeline of a schedule from per-task
// durations and energies, without running a simulator. The optimizer's
// predictions, the timelines exp plans from profiles and the measured
// results of SimulateGraph all flow through this one function — with
// durations taken from profiles (which are bit-identical to fixed-mode
// simulation), predicted and measured timelines agree exactly.
func PlanGraph(g *ir.TaskGraph, s *GraphSchedule, durUS, energyUJ []float64) (*GraphResult, error) {
	if err := s.Validate(g); err != nil {
		return nil, err
	}
	if len(durUS) != len(g.Tasks) || len(energyUJ) != len(g.Tasks) {
		return nil, fmt.Errorf("sim: %d durations and %d energies for %d tasks", len(durUS), len(energyUJ), len(g.Tasks))
	}
	n := len(g.Tasks)
	res := &GraphResult{
		Graph:      g.Name,
		Runs:       make([]TaskRun, n),
		CoreBusyUS: make([]float64, s.Cores),
	}
	preds := g.Preds()
	finish := make([]float64, n)
	done := make([]bool, n)
	next := make([]int, s.Cores)    // per-core index into Order
	curMode := make([]int, s.Cores) // mode the core is currently in
	first := make([]bool, s.Cores)  // no transition before a core's first task
	for c := range first {
		first[c] = true
	}
	remaining := n
	for remaining > 0 {
		progressed := false
		for c := 0; c < s.Cores; c++ {
			for next[c] < len(s.Order[c]) {
				t := s.Order[c][next[c]]
				ready := true
				avail := g.Tasks[t].ReleaseUS
				for _, p := range preds[t] {
					if !done[p] {
						ready = false
						break
					}
					if finish[p] > avail {
						avail = finish[p]
					}
				}
				if !ready {
					break
				}
				if busy := res.CoreBusyUS[c]; busy > avail {
					avail = busy
				}
				mode := s.Placement[t].Mode
				var transT, transE float64
				if !first[c] && curMode[c] != mode {
					vi := s.Modes.Mode(curMode[c]).V
					vj := s.Modes.Mode(mode).V
					transT = s.Regulator.TransitionTime(vi, vj)
					transE = s.Regulator.TransitionEnergy(vi, vj)
					res.Transitions++
				}
				start := avail + transT
				end := start + durUS[t]
				res.Runs[t] = TaskRun{
					Task: t, Name: g.Tasks[t].Name, Core: c, Mode: mode,
					StartUS: start, FinishUS: end,
					TimeUS: durUS[t], EnergyUJ: energyUJ[t],
					TransitionTimeUS: transT, TransitionEnergyUJ: transE,
				}
				finish[t] = end
				done[t] = true
				res.CoreBusyUS[c] = end
				curMode[c] = mode
				first[c] = false
				next[c]++
				remaining--
				progressed = true

				res.TaskEnergyUJ += energyUJ[t]
				res.TransitionTimeUS += transT
				res.TransitionEnergyUJ += transE
				if end > res.MakespanUS {
					res.MakespanUS = end
				}
				if dl := g.Tasks[t].DeadlineUS; dl > 0 && end > dl*(1+1e-9) {
					res.MissedDeadlines++
				}
			}
		}
		if !progressed {
			return nil, fmt.Errorf("sim: task graph %q deadlocked: core orders contradict precedence", g.Name)
		}
	}
	res.EnergyUJ = res.TaskEnergyUJ + res.TransitionEnergyUJ
	return res, nil
}

// MachinePool supplies machines for task simulations. Acquire must return a
// machine ready for exclusive use; Release returns it. SinglePool adapts one
// machine for serial use. Production graph execution (exp.SimulateGraph)
// plans timelines from profiles and borrows no machines; SimulateGraph over
// a pool is the reference it is tested against.
type MachinePool interface {
	Acquire() *Machine
	Release(*Machine)
}

// SinglePool is the trivial MachinePool over one machine; only valid for
// serial simulation (workers = 1).
type SinglePool struct{ M *Machine }

// Acquire returns the wrapped machine.
func (p SinglePool) Acquire() *Machine { return p.M }

// Release is a no-op; the machine is reset on the next run's entry.
func (p SinglePool) Release(*Machine) {}

// SimulateGraph executes the task graph under the schedule: every task runs
// as one single-program simulation on a pool machine (fixed-mode Run or
// intra-task RunDVS), then the cross-task timeline is assembled by PlanGraph.
// workers bounds the simulation fan-out; results are bit-identical for every
// worker count because task simulations share no state.
func SimulateGraph(pool MachinePool, g *ir.TaskGraph, s *GraphSchedule, workers int) (*GraphResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(g); err != nil {
		return nil, err
	}
	n := len(g.Tasks)
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	durUS := make([]float64, n)
	energyUJ := make([]float64, n)
	runTask := func(t int) error {
		m := pool.Acquire()
		defer pool.Release(m)
		task := g.Tasks[t]
		var (
			r   *Result
			err error
		)
		if intra := s.intra(t); intra != nil {
			r, err = m.RunDVS(task.Program, task.Input, intra)
		} else {
			r, err = m.Run(task.Program, task.Input, s.Modes.Mode(s.Placement[t].Mode))
		}
		if err != nil {
			return fmt.Errorf("sim: task %q: %w", task.Name, err)
		}
		durUS[t] = r.TimeUS
		energyUJ[t] = r.EnergyUJ
		return nil
	}
	if workers == 1 {
		for t := 0; t < n; t++ {
			if err := runTask(t); err != nil {
				return nil, err
			}
		}
	} else {
		errs := make([]error, n)
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for t := 0; t < n; t++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(t int) {
				defer wg.Done()
				defer func() { <-sem }()
				errs[t] = runTask(t)
			}(t)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return PlanGraph(g, s, durUS, energyUJ)
}
