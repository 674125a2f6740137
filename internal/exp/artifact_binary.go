package exp

import (
	"fmt"

	"ctdvs/internal/pipeline"
	"ctdvs/internal/schedfile"
	"ctdvs/internal/sim"
)

// Binary codecs for the solve and graphsolve artifacts, the stages' only
// on-disk codecs. Layouts follow the artifact structs field for field
// (round-trip tested), including the embedded schedule file.

func putSolverStats(w *pipeline.BinWriter, s solverStatsJSON) {
	w.Varint(int64(s.Status))
	w.Float(s.Objective)
	w.Float(s.Bound)
	w.Varint(int64(s.Nodes))
	w.Varint(int64(s.LPIters))
	w.Varint(int64(s.Workers))
	w.Varint(s.SolveTimeNS)
	w.Varint(int64(s.WarmSolves))
	w.Varint(int64(s.ColdSolves))
	w.Varint(int64(s.WarmFallbacks))
	w.Varint(int64(s.LPPivots))
	w.Varint(s.LPTimeNS)
	w.Varint(int64(s.AnalyticPrunes))
}

func readSolverStats(r *pipeline.BinReader) solverStatsJSON {
	return solverStatsJSON{
		Status:         r.Int(),
		Objective:      r.Float(),
		Bound:          r.Float(),
		Nodes:          r.Int(),
		LPIters:        r.Int(),
		Workers:        r.Int(),
		SolveTimeNS:    r.Varint(),
		WarmSolves:     r.Int(),
		ColdSolves:     r.Int(),
		WarmFallbacks:  r.Int(),
		LPPivots:       r.Int(),
		LPTimeNS:       r.Varint(),
		AnalyticPrunes: r.Int(),
	}
}

func putScheduleFile(w *pipeline.BinWriter, f *schedfile.File) {
	w.Varint(int64(f.Version))
	w.String(f.Program)
	w.Uvarint(uint64(len(f.Modes)))
	for _, m := range f.Modes {
		w.Float(m.Volts)
		w.Float(m.MHz)
	}
	w.Varint(int64(f.Initial))
	w.Float(f.Regulator.CapacitanceF)
	w.Float(f.Regulator.Efficiency)
	w.Float(f.Regulator.IMaxA)
	w.Uvarint(uint64(len(f.Assignments)))
	for _, a := range f.Assignments {
		w.Varint(int64(a.From))
		w.Varint(int64(a.To))
		w.Varint(int64(a.Mode))
	}
}

func readScheduleFile(r *pipeline.BinReader) *schedfile.File {
	f := &schedfile.File{
		Version: r.Int(),
		Program: r.String(),
	}
	nModes := r.Len()
	// Each mode is 16 raw bytes; bound before allocating.
	if r.Err() != nil || nModes > r.Remaining()/16 {
		return nil
	}
	f.Modes = make([]schedfile.ModeJSON, nModes)
	for i := range f.Modes {
		f.Modes[i] = schedfile.ModeJSON{Volts: r.Float(), MHz: r.Float()}
	}
	f.Initial = r.Int()
	f.Regulator = schedfile.RegulatorJSON{
		CapacitanceF: r.Float(),
		Efficiency:   r.Float(),
		IMaxA:        r.Float(),
	}
	nAssign := r.Len()
	// Each assignment is at least 3 varint bytes; bound before allocating.
	if r.Err() != nil || nAssign > r.Remaining()/3 {
		return nil
	}
	f.Assignments = make([]schedfile.AssignmentJSON, nAssign)
	for i := range f.Assignments {
		from := r.Varint()
		to := r.Varint()
		f.Assignments[i] = schedfile.AssignmentJSON{From: int(from), To: int(to), Mode: r.Int()}
	}
	if r.Err() != nil {
		return nil
	}
	return f
}

func encodeSolveBinary(a *solveArtifact) ([]byte, error) {
	hint := 256
	if a.Schedule != nil {
		hint += 32*len(a.Schedule.Modes) + 8*len(a.Schedule.Assignments)
	}
	w := pipeline.NewBinWriter(pipeline.BinTagSolve, hint)
	w.Varint(int64(a.Version))
	w.Bool(a.Infeasible)
	w.Bool(a.Schedule != nil)
	if a.Schedule != nil {
		putScheduleFile(w, a.Schedule)
	}
	w.Float(a.PredictedEnergyUJ)
	w.Floats(a.PredictedTimeUS)
	w.Varint(int64(a.IndependentEdges))
	w.Varint(int64(a.TotalEdges))
	putSolverStats(w, a.Solver)
	return w.Bytes(), nil
}

func decodeSolveBinary(data []byte) (*solveArtifact, error) {
	r, err := pipeline.NewBinReader(data, pipeline.BinTagSolve)
	if err != nil {
		return nil, err
	}
	a := &solveArtifact{
		Version:    r.Int(),
		Infeasible: r.Bool(),
	}
	if hasSchedule := r.Bool(); hasSchedule {
		if a.Schedule = readScheduleFile(r); a.Schedule == nil {
			return nil, fmt.Errorf("exp: solve artifact schedule: %w", r.Err())
		}
	}
	a.PredictedEnergyUJ = r.Float()
	a.PredictedTimeUS = emptyToNil(r.Floats())
	a.IndependentEdges = r.Int()
	a.TotalEdges = r.Int()
	a.Solver = readSolverStats(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	if a.Version != solveArtifactVersion {
		return nil, fmt.Errorf("exp: solve artifact version %d, want %d", a.Version, solveArtifactVersion)
	}
	return a, nil
}

func encodeGraphSolveBinary(a *graphSolveArtifact) ([]byte, error) {
	hint := 256 + 8*len(a.Placement) + 16*len(a.Order)
	w := pipeline.NewBinWriter(pipeline.BinTagGraphSolve, hint)
	w.Varint(int64(a.Version))
	w.Bool(a.Infeasible)
	w.Varint(int64(a.Cores))
	w.Uvarint(uint64(len(a.Placement)))
	for _, p := range a.Placement {
		w.Varint(int64(p.Core))
		w.Varint(int64(p.Mode))
	}
	w.Uvarint(uint64(len(a.Order)))
	for _, core := range a.Order {
		w.Uvarint(uint64(len(core)))
		for _, t := range core {
			w.Varint(int64(t))
		}
	}
	w.Float(a.PredictedEnergyUJ)
	w.Float(a.PredictedMakespanUS)
	putSolverStats(w, a.Solver)
	return w.Bytes(), nil
}

func decodeGraphSolveBinary(data []byte) (*graphSolveArtifact, error) {
	r, err := pipeline.NewBinReader(data, pipeline.BinTagGraphSolve)
	if err != nil {
		return nil, err
	}
	a := &graphSolveArtifact{
		Version:    r.Int(),
		Infeasible: r.Bool(),
		Cores:      r.Int(),
	}
	nPlace := r.Len()
	// Each placement is at least 2 varint bytes; bound before allocating.
	if r.Err() == nil && nPlace > r.Remaining()/2 {
		return nil, fmt.Errorf("exp: graph solve artifact placement count %d exceeds input", nPlace)
	}
	if r.Err() == nil && nPlace > 0 {
		a.Placement = make([]sim.TaskPlacement, nPlace)
		for i := range a.Placement {
			a.Placement[i] = sim.TaskPlacement{Core: r.Int(), Mode: r.Int()}
		}
	}
	nCores := r.Len()
	if r.Err() == nil && nCores > r.Remaining() {
		return nil, fmt.Errorf("exp: graph solve artifact order count %d exceeds input", nCores)
	}
	if r.Err() == nil && nCores > 0 {
		a.Order = make([][]int, nCores)
		for i := range a.Order {
			n := r.Len()
			if r.Err() != nil || n > r.Remaining() {
				return nil, fmt.Errorf("exp: graph solve artifact order run %d exceeds input", n)
			}
			a.Order[i] = make([]int, n)
			for j := range a.Order[i] {
				a.Order[i][j] = r.Int()
			}
		}
	}
	a.PredictedEnergyUJ = r.Float()
	a.PredictedMakespanUS = r.Float()
	a.Solver = readSolverStats(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	if a.Version != graphSolveArtifactVersion {
		return nil, fmt.Errorf("exp: graph solve artifact version %d, want %d", a.Version, graphSolveArtifactVersion)
	}
	return a, nil
}

// emptyToNil maps a decoded empty slice to nil, matching what the JSON codec
// produces for an omitted/null field — the shape every real artifact has.
func emptyToNil(vs []float64) []float64 {
	if len(vs) == 0 {
		return nil
	}
	return vs
}
