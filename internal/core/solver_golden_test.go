package core_test

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctdvs/internal/core"
	"ctdvs/internal/exp"
	"ctdvs/internal/milp"
	"ctdvs/internal/volt"
)

var update = flag.Bool("update", false, "rewrite testdata/solver.golden from the current code")

// goldenCell is one solver-golden instance.
type goldenCell struct {
	name  string
	solve func() (string, error)
}

// TestSolverGolden pins the whole solver — simplex, dual-simplex repair,
// branch-and-bound, analytic bound — bit for bit on the paper workloads:
// every solve-sweep cell (7 levels, unfiltered, c = 10 µF) at one and two
// workers, filtered 3- and 13-level cells at c = 1 and 100 µF, and two
// corpus task graphs. Each line records the objective's and bound's bits,
// a digest of the incumbent's bits, the schedule, and every search counter
// (nodes, LP solves, pivots, warm/cold/fallback solves, analytic prunes).
// Wall times are not recorded; neither is PredictedTimeUS, whose value is
// a sum over the profile rather than a solver output. A change to the LP
// arithmetic or to the search order shows up here as a changed line; a
// change that is meant to leave the solver alone must leave the file as
// it is.
func TestSolverGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the solver golden solves 182 MILPs")
	}
	cells := goldenCells(t)
	var b strings.Builder
	for _, c := range cells {
		line, err := c.solve()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s: %s\n", c.name, line)
	}
	got := b.String()
	path := filepath.Join("testdata", "solver.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(wantBytes), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(want) != len(have) {
		t.Fatalf("%d golden lines, %d computed", len(want), len(have))
	}
	bad := 0
	for i := range want {
		if want[i] != have[i] {
			bad++
			if bad <= 10 {
				t.Errorf("line %d differs:\n  want %s\n  got  %s", i+1, want[i], have[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d cells differ from testdata/solver.golden", bad, len(want))
	}
}

// goldenCells lists the instances in file order.
func goldenCells(t *testing.T) []goldenCell {
	t.Helper()
	cfg := exp.NewConfig(benchScale)
	var cells []goldenCell
	single := func(bench string, levels, k int, capF float64, filter bool, workers int) {
		spec, err := cfg.Spec(bench)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := cfg.Profile(bench, 0, levels)
		if err != nil {
			t.Fatal(err)
		}
		n := pr.Modes.Len()
		dl := spec.Deadline(k, pr.TotalTimeUS[n-1], pr.TotalTimeUS[0])
		o := goldenOptions(capF, workers)
		if !filter {
			o.FilterTail = -1
		}
		name := fmt.Sprintf("%s L%d D%d c=%gµF filter=%v w%d", bench, levels, k, capF*1e6, filter, workers)
		cells = append(cells, goldenCell{name, func() (string, error) {
			res, err := core.OptimizeSingle(pr, dl, o)
			if errors.Is(err, core.ErrInfeasible) {
				return "infeasible", nil
			}
			if err != nil {
				return "", err
			}
			var sched strings.Builder
			fmt.Fprintf(&sched, "%d/", res.Schedule.Initial)
			for _, e := range pr.Graph.Edges {
				sched.WriteString(modeDigit(res.Schedule.Assignment[e]))
			}
			return fmt.Sprintf("energy=%016x %s %s", math.Float64bits(res.PredictedEnergyUJ),
				solverLine(res.Solver), sched.String()), nil
		}})
	}
	for _, workers := range []int{1, 2} {
		for _, bench := range exp.Suite() {
			for k := 1; k <= 5; k++ {
				single(bench, 7, k, 10e-6, false, workers)
			}
		}
	}
	for _, levels := range []int{3, 13} {
		for _, capF := range []float64{1e-6, 100e-6} {
			for _, bench := range exp.Suite() {
				for k := 1; k <= 5; k++ {
					single(bench, levels, k, capF, true, 1)
				}
			}
		}
	}
	for _, name := range []string{"fork-join-2w", "mpi-mix"} {
		gw, err := cfg.TaskGraph(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, goldenCell{name + " L7", func() (string, error) {
			res, err := core.OptimizeGraph(gw.Graph, gw.Profiles, gw.Cores, gw.DeadlineUS, goldenOptions(10e-6, 1))
			if errors.Is(err, core.ErrInfeasible) {
				return "infeasible", nil
			}
			if err != nil {
				return "", err
			}
			var sched strings.Builder
			for _, p := range res.Schedule.Placement {
				fmt.Fprintf(&sched, "%d:%s", p.Core, modeDigit(p.Mode))
				sched.WriteByte(' ')
			}
			fmt.Fprint(&sched, res.Schedule.Order)
			return fmt.Sprintf("energy=%016x %s %s", math.Float64bits(res.PredictedEnergyUJ),
				solverLine(res.Solver), sched.String()), nil
		}})
	}
	return cells
}

// goldenOptions are dvs-opt's solver settings at capacitance capF, with a
// fixed branch-and-bound worker count.
func goldenOptions(capF float64, workers int) *core.Options {
	return &core.Options{
		Regulator: volt.DefaultRegulator().WithCapacitance(capF),
		MILP:      &milp.Options{TimeLimit: 2 * time.Minute, Workers: workers},
	}
}

// solverLine renders a branch-and-bound result without its wall times.
func solverLine(r *milp.Result) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range r.X {
		bits := math.Float64bits(x)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%v obj=%016x bound=%016x x=%016x nodes=%d lps=%d pivots=%d warm=%d cold=%d fallback=%d prunes=%d",
		r.Status, math.Float64bits(r.Objective), math.Float64bits(r.Bound), h.Sum64(),
		r.Nodes, r.LPIters, r.LPPivots, r.WarmSolves, r.ColdSolves, r.WarmFallbacks, r.AnalyticPrunes)
}

// modeDigit renders a mode index (at most 13 levels) as one character.
func modeDigit(m int) string { return string("0123456789abcdefghijklmnopqrstuvwxyz"[m]) }
