package exp

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ctdvs/internal/pipeline"
	"ctdvs/internal/schedfile"
	"ctdvs/internal/sim"
)

// randSolverStats draws a plausible solver-statistics record.
func randSolverStats(rng *rand.Rand) solverStatsJSON {
	return solverStatsJSON{
		Status:         rng.Intn(4),
		Objective:      rng.Float64() * 1e4,
		Bound:          rng.Float64() * 1e4,
		Nodes:          rng.Intn(1 << 20),
		LPIters:        rng.Intn(1 << 20),
		Workers:        1 + rng.Intn(16),
		SolveTimeNS:    rng.Int63n(1e12),
		WarmSolves:     rng.Intn(1000),
		ColdSolves:     rng.Intn(1000),
		WarmFallbacks:  rng.Intn(100),
		LPPivots:       rng.Intn(1 << 20),
		LPTimeNS:       rng.Int63n(1e12),
		AnalyticPrunes: rng.Intn(1000),
	}
}

// randScheduleFile draws a schedule file with the shape schedfile.New
// produces: at least one mode, non-nil assignments.
func randScheduleFile(rng *rand.Rand) *schedfile.File {
	nModes := 1 + rng.Intn(5)
	f := &schedfile.File{
		Version: 1,
		Program: "prog",
		Modes:   make([]schedfile.ModeJSON, nModes),
		Initial: rng.Intn(nModes),
		Regulator: schedfile.RegulatorJSON{
			CapacitanceF: rng.Float64() * 1e-4,
			Efficiency:   rng.Float64(),
			IMaxA:        rng.Float64() * 5,
		},
		Assignments: make([]schedfile.AssignmentJSON, rng.Intn(8)),
	}
	for i := range f.Modes {
		f.Modes[i] = schedfile.ModeJSON{Volts: 0.7 + rng.Float64(), MHz: 100 + rng.Float64()*900}
	}
	for i := range f.Assignments {
		f.Assignments[i] = schedfile.AssignmentJSON{
			From: rng.Intn(20) - 1, To: rng.Intn(20), Mode: rng.Intn(nModes),
		}
	}
	return f
}

// TestSolveArtifactBinaryParity is the round-trip property over randomly
// drawn solve artifacts with the shapes real solves produce: the binary
// codec, the stage's only one, must decode to the artifact value for value
// and re-encode to identical bytes.
func TestSolveArtifactBinaryParity(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := &solveArtifact{Version: solveArtifactVersion, Solver: randSolverStats(rng)}
		if rng.Intn(4) == 0 {
			a.Infeasible = true // infeasible artifacts carry no schedule
		} else {
			a.Schedule = randScheduleFile(rng)
			a.PredictedEnergyUJ = rng.Float64() * 1e6
			a.PredictedTimeUS = make([]float64, 1+rng.Intn(4))
			for i := range a.PredictedTimeUS {
				a.PredictedTimeUS[i] = rng.Float64() * 1e5
			}
			a.IndependentEdges = rng.Intn(100)
			a.TotalEdges = a.IndependentEdges + rng.Intn(100)
		}

		bdata, err := solveStage.EncodeBinary(a)
		if err != nil || !pipeline.IsBinaryArtifact(bdata) {
			return false
		}
		fromBin, err := solveStage.DecodeBinary(bdata)
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(a, fromBin) {
			t.Logf("seed %d:\nwant   %+v\nbinary %+v", seed, a, fromBin)
			return false
		}
		bdata2, err := solveStage.EncodeBinary(fromBin)
		return err == nil && string(bdata) == string(bdata2)
	}, &quick.Config{MaxCount: 80})
	if err != nil {
		t.Error(err)
	}
}

// TestGraphSolveArtifactBinaryParity is the same round-trip property for
// task-graph solve artifacts.
func TestGraphSolveArtifactBinaryParity(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := &graphSolveArtifact{Version: graphSolveArtifactVersion, Solver: randSolverStats(rng)}
		if rng.Intn(4) == 0 {
			a.Infeasible = true
		} else {
			nTasks := 1 + rng.Intn(12)
			a.Cores = 1 + rng.Intn(4)
			a.Placement = make([]sim.TaskPlacement, nTasks)
			for i := range a.Placement {
				a.Placement[i] = sim.TaskPlacement{Core: rng.Intn(a.Cores), Mode: rng.Intn(5)}
			}
			a.Order = make([][]int, a.Cores)
			for c := range a.Order {
				a.Order[c] = make([]int, rng.Intn(nTasks))
				for i := range a.Order[c] {
					a.Order[c][i] = rng.Intn(nTasks)
				}
			}
			a.PredictedEnergyUJ = rng.Float64() * 1e6
			a.PredictedMakespanUS = rng.Float64() * 1e5
		}

		bdata, err := graphSolveStage.EncodeBinary(a)
		if err != nil || !pipeline.IsBinaryArtifact(bdata) {
			return false
		}
		fromBin, err := graphSolveStage.DecodeBinary(bdata)
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(a, fromBin) {
			t.Logf("seed %d:\nwant   %+v\nbinary %+v", seed, a, fromBin)
			return false
		}
		bdata2, err := graphSolveStage.EncodeBinary(fromBin)
		return err == nil && string(bdata) == string(bdata2)
	}, &quick.Config{MaxCount: 80})
	if err != nil {
		t.Error(err)
	}
}

// TestSolveArtifactBinaryRejectsTruncation holds both binary artifact
// decoders to clean rejection of every truncation.
func TestSolveArtifactBinaryRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := &solveArtifact{
		Version:           solveArtifactVersion,
		Schedule:          randScheduleFile(rng),
		PredictedEnergyUJ: 12.5,
		PredictedTimeUS:   []float64{1, 2, 3},
		IndependentEdges:  3,
		TotalEdges:        9,
		Solver:            randSolverStats(rng),
	}
	data, err := encodeSolveBinary(a)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := decodeSolveBinary(data[:n]); err == nil {
			t.Fatalf("solve: truncation to %d of %d bytes accepted", n, len(data))
		}
	}

	g := &graphSolveArtifact{
		Version:   graphSolveArtifactVersion,
		Cores:     2,
		Placement: []sim.TaskPlacement{{Core: 0, Mode: 1}, {Core: 1, Mode: 2}},
		Order:     [][]int{{0}, {1}},
		Solver:    randSolverStats(rng),
	}
	gdata, err := encodeGraphSolveBinary(g)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(gdata); n++ {
		if _, err := decodeGraphSolveBinary(gdata[:n]); err == nil {
			t.Fatalf("graphsolve: truncation to %d of %d bytes accepted", n, len(gdata))
		}
	}
}
