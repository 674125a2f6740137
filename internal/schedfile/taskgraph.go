package schedfile

import (
	"encoding/json"
	"fmt"
	"io"

	"ctdvs/internal/ir"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// This file adds the task-graph spec format: the JSON interchange through
// which dvs-opt, dvs-sim and dvs-serve accept multi-core task-graph
// workloads. A spec names corpus benchmarks, wires them into a DAG, and fixes
// the core count and deadline; the heavy ir.TaskGraph (with real programs) is
// only built after the spec passes structural validation, so cyclic graphs,
// dangling edges and oversized task counts are rejected before any
// program-scale allocation happens.

// GraphVersion identifies the current task-graph spec format. Version 2
// records the voltage level count and the regulator capacitance the graph
// was solved under, so a reader solves the same problem. A version-1 spec,
// which has neither, reads as 3 levels under volt.DefaultRegulator — what
// its readers assumed.
const GraphVersion = 2

// MaxGraphEdges caps the edge list a spec may carry; with ir.MaxTasks tasks a
// DAG has at most n(n−1)/2 edges, and this looser bound is checked before the
// adjacency structures are allocated.
const MaxGraphEdges = 4 * ir.MaxTasks

// GraphFile is the on-disk task-graph spec.
type GraphFile struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	Cores   int    `json:"cores"`
	// Levels (3, 7 or 13) and CapacitanceF (farads) are the mode set and
	// the regulator capacitance of the solve; version 2 sets both, version
	// 1 neither (see LevelCount and Regulator).
	Levels       int     `json:"levels,omitempty"`
	CapacitanceF float64 `json:"capacitance_f,omitempty"`
	// Exactly one of DeadlineUS (absolute, µs) and DeadlineFrac (fraction of
	// the [all-fastest, all-slowest] placed-makespan span) must be set.
	DeadlineUS   float64         `json:"deadline_us,omitempty"`
	DeadlineFrac float64         `json:"deadline_frac,omitempty"`
	Tasks        []GraphTaskJSON `json:"tasks"`
	Edges        [][2]int        `json:"edges"`
}

// GraphTaskJSON is one task reference: a corpus benchmark plus optional input
// index and release/per-task deadline.
type GraphTaskJSON struct {
	Bench      string  `json:"bench"`
	Input      int     `json:"input,omitempty"`
	ReleaseUS  float64 `json:"release_us,omitempty"`
	DeadlineUS float64 `json:"deadline_us,omitempty"`
}

// ValidateTopology checks a task-count/edge-list pair structurally: task
// count within (0, ir.MaxTasks], every edge in range, no self edges, no
// duplicate edges, and no cycles. It is shared by the spec loader and the
// serve request decoder, and sized so nothing larger than O(n + edges) is
// allocated for hostile input.
func ValidateTopology(n int, edges [][2]int) error {
	if n < 1 {
		return fmt.Errorf("schedfile: graph has no tasks")
	}
	if n > ir.MaxTasks {
		return fmt.Errorf("schedfile: graph has %d tasks, max %d", n, ir.MaxTasks)
	}
	if len(edges) > MaxGraphEdges {
		return fmt.Errorf("schedfile: graph has %d edges, max %d", len(edges), MaxGraphEdges)
	}
	seen := make(map[[2]int]bool, len(edges))
	indeg := make([]int, n)
	succs := make([][]int, n)
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return fmt.Errorf("schedfile: dangling edge %d→%d in a %d-task graph", e[0], e[1], n)
		}
		if e[0] == e[1] {
			return fmt.Errorf("schedfile: self edge on task %d", e[0])
		}
		if seen[e] {
			return fmt.Errorf("schedfile: duplicate edge %d→%d", e[0], e[1])
		}
		seen[e] = true
		succs[e[0]] = append(succs[e[0]], e[1])
		indeg[e[1]]++
	}
	// Kahn's algorithm: if not every task drains, the remainder is cyclic.
	queue := make([]int, 0, n)
	for t := 0; t < n; t++ {
		if indeg[t] == 0 {
			queue = append(queue, t)
		}
	}
	drained := 0
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		drained++
		for _, s := range succs[t] {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if drained != n {
		return fmt.Errorf("schedfile: graph contains a cycle")
	}
	return nil
}

// Validate checks the spec structurally (it does not resolve benchmark names;
// that happens when the spec is built against the suite).
func (f *GraphFile) Validate() error {
	switch f.Version {
	case 1:
		if f.Levels != 0 || f.CapacitanceF != 0 {
			return fmt.Errorf("schedfile: a version 1 task-graph spec carries no levels or capacitance_f")
		}
	case GraphVersion:
		if _, err := volt.Levels(f.Levels); err != nil {
			return fmt.Errorf("schedfile: task-graph spec levels: %w", err)
		}
		if err := f.Regulator().Validate(); err != nil {
			return fmt.Errorf("schedfile: task-graph spec capacitance_f: %w", err)
		}
	default:
		return fmt.Errorf("schedfile: unsupported task-graph spec version %d", f.Version)
	}
	if f.Name == "" {
		return fmt.Errorf("schedfile: task-graph spec has no name")
	}
	if f.Cores < 1 || f.Cores > ir.MaxTasks {
		return fmt.Errorf("schedfile: task-graph spec targets %d cores", f.Cores)
	}
	hasUS := f.DeadlineUS != 0
	hasFrac := f.DeadlineFrac != 0
	if hasUS == hasFrac {
		return fmt.Errorf("schedfile: task-graph spec must set exactly one of deadline_us and deadline_frac")
	}
	if hasUS && f.DeadlineUS < 0 {
		return fmt.Errorf("schedfile: negative deadline_us %v", f.DeadlineUS)
	}
	if hasFrac && (f.DeadlineFrac < 0 || f.DeadlineFrac > 1) {
		return fmt.Errorf("schedfile: deadline_frac %v outside [0, 1]", f.DeadlineFrac)
	}
	if err := ValidateTopology(len(f.Tasks), f.Edges); err != nil {
		return err
	}
	for i, task := range f.Tasks {
		if task.Bench == "" {
			return fmt.Errorf("schedfile: task %d names no benchmark", i)
		}
		if task.Input < 0 {
			return fmt.Errorf("schedfile: task %d selects negative input %d", i, task.Input)
		}
		if task.ReleaseUS < 0 || task.DeadlineUS < 0 {
			return fmt.Errorf("schedfile: task %d has a negative release or deadline", i)
		}
	}
	return nil
}

// LevelCount is the voltage level count the spec was solved at: Levels,
// or 3 for a version-1 spec.
func (f *GraphFile) LevelCount() int {
	if f.Version == 1 {
		return 3
	}
	return f.Levels
}

// Regulator is the regulator the spec was solved under: the default
// regulator with capacitance CapacitanceF, or the default regulator itself
// for a version-1 spec.
func (f *GraphFile) Regulator() volt.Regulator {
	if f.Version == 1 {
		return volt.DefaultRegulator()
	}
	return volt.DefaultRegulator().WithCapacitance(f.CapacitanceF)
}

// Spec converts a validated file to the workloads representation.
func (f *GraphFile) Spec() (*workloads.GraphSpec, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	gs := &workloads.GraphSpec{
		Name:         f.Name,
		Cores:        f.Cores,
		Edges:        f.Edges,
		DeadlineFrac: f.DeadlineFrac,
	}
	for _, task := range f.Tasks {
		gs.Tasks = append(gs.Tasks, workloads.TaskRef{
			Bench:      task.Bench,
			Input:      task.Input,
			ReleaseUS:  task.ReleaseUS,
			DeadlineUS: task.DeadlineUS,
		})
	}
	return gs, nil
}

// NewGraphFile builds the canonical spec representation of a workloads graph
// solved at the given level count under a regulator with capacitance capF
// (farads). deadlineUS, when non-zero, overrides the spec's fractional
// deadline with an absolute one.
func NewGraphFile(gs *workloads.GraphSpec, deadlineUS float64, levels int, capF float64) (*GraphFile, error) {
	if gs == nil {
		return nil, fmt.Errorf("schedfile: nil graph spec")
	}
	f := &GraphFile{
		Version:      GraphVersion,
		Name:         gs.Name,
		Cores:        gs.Cores,
		Levels:       levels,
		CapacitanceF: capF,
		Edges:        gs.Edges,
	}
	if deadlineUS != 0 {
		f.DeadlineUS = deadlineUS
	} else {
		f.DeadlineFrac = gs.DeadlineFrac
	}
	for _, ref := range gs.Tasks {
		f.Tasks = append(f.Tasks, GraphTaskJSON{
			Bench:      ref.Bench,
			Input:      ref.Input,
			ReleaseUS:  ref.ReleaseUS,
			DeadlineUS: ref.DeadlineUS,
		})
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// EncodeGraph renders the canonical indented JSON of the spec; equal specs
// encode to equal bytes (struct fields emit in declaration order and the edge
// list is stored as given).
func (f *GraphFile) EncodeGraph() ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("schedfile: %w", err)
	}
	return append(data, '\n'), nil
}

// SaveGraphSpec writes the canonical spec for a workloads graph solved at
// the given level count and regulator capacitance (see NewGraphFile).
func SaveGraphSpec(w io.Writer, gs *workloads.GraphSpec, deadlineUS float64, levels int, capF float64) error {
	f, err := NewGraphFile(gs, deadlineUS, levels, capF)
	if err != nil {
		return err
	}
	data, err := f.EncodeGraph()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// LoadGraphSpec reads and validates a task-graph spec. The returned file has
// passed structural validation (version, levels, capacitance, cores,
// deadline, topology); resolve it against the benchmark suite with
// Spec().Build(), at LevelCount levels under Regulator.
func LoadGraphSpec(r io.Reader) (*GraphFile, error) {
	var f GraphFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("schedfile: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}
