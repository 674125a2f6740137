package workloads

import (
	"math"
	"testing"

	"ctdvs/internal/ir"
	"ctdvs/internal/profile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
)

// Full-scale calibration targets from the paper (Tables 4 and 7).
type target struct {
	nCacheK, nOverlapK, nDependentK float64 // Kcycles
	tInvariantUS                    float64
	t200MS, t600MS, t800MS          float64 // Table 4, milliseconds
}

var targets = map[string]target{
	"adpcm/encode": {732.7, 735.6, 4302.0, 915.9, 29.5, 9.9, 7.4},
	"epic":         {8835.6, 12190.4, 9290.1, 4955.9, 152.6, 53.6, 41.0},
	"gsm/encode":   {13979.6, 13383.0, 29438.3, 389.0, 334.0, 111.4, 83.6},
	"mpeg/decode":  {42621.1, 44068.7, 27592.1, 2713.4, 557.6, 187.3, 141.0},
	"mpg123":       {0, 0, 0, 0, 177.7, 59.2, 44.4},
	"ghostscript":  {0, 0, 0, 0, 2.0, 0.89, 0.74},
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return math.Abs(got-want) / want
}

// TestCalibrationFullScale checks the measured program parameters and
// fixed-mode runtimes against the paper's published values. The tolerance is
// deliberately loose (35%): the goal is that the optimization problems have
// the paper's shape, not digit-exact replication of a 2003 testbed.
func TestCalibrationFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale calibration is slow")
	}
	m := sim.MustNew(sim.DefaultConfig())
	for _, spec := range All(1.0) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tgt, ok := targets[spec.Name]
			if !ok {
				t.Fatalf("no target for %s", spec.Name)
			}
			pr, err := profile.Collect(m, spec.Program, spec.Inputs[0], volt.XScale3())
			if err != nil {
				t.Fatal(err)
			}
			const tol = 0.35
			if tgt.nCacheK > 0 {
				p := pr.Params
				checks := []struct {
					name       string
					got, wantK float64
				}{
					{"Ncache", float64(p.NCache) / 1e3, tgt.nCacheK},
					{"Noverlap", float64(p.NOverlap) / 1e3, tgt.nOverlapK},
					{"Ndependent", float64(p.NDependent) / 1e3, tgt.nDependentK},
					{"tinvariant", p.TInvariantUS, tgt.tInvariantUS},
				}
				for _, c := range checks {
					if e := relErr(c.got, c.wantK); e > tol {
						t.Errorf("%s = %.1f, paper %.1f (err %.0f%%)", c.name, c.got, c.wantK, e*100)
					}
				}
			}
			times := []struct {
				mode   int
				wantMS float64
			}{{0, tgt.t200MS}, {1, tgt.t600MS}, {2, tgt.t800MS}}
			for _, c := range times {
				gotMS := pr.TotalTimeUS[c.mode] / 1e3
				if e := relErr(gotMS, c.wantMS); e > tol {
					t.Errorf("t%v = %.2f ms, paper %.2f ms (err %.0f%%)",
						pr.Modes.Mode(c.mode).F, gotMS, c.wantMS, e*100)
				}
			}
			t.Logf("%s: %s", spec.Name, sim.FormatParams(pr.Params))
			t.Logf("%s: t200=%.1fms t600=%.1fms t800=%.1fms", spec.Name,
				pr.TotalTimeUS[0]/1e3, pr.TotalTimeUS[1]/1e3, pr.TotalTimeUS[2]/1e3)
		})
	}
}

func TestDeadlineOrderingAndFeasibility(t *testing.T) {
	m := sim.MustNew(sim.DefaultConfig())
	for _, spec := range All(0.02) {
		pr, err := profile.Collect(m, spec.Program, spec.Inputs[0], volt.XScale3())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		tFast := pr.TotalTimeUS[pr.Modes.Len()-1]
		tSlow := pr.TotalTimeUS[0]
		dls := spec.Deadlines(tFast, tSlow)
		prev := tFast
		for k, dl := range dls {
			if dl < prev {
				t.Errorf("%s: deadline %d (%v) below previous (%v)", spec.Name, k+1, dl, prev)
			}
			if dl < tFast {
				t.Errorf("%s: deadline %d infeasible (%v < fastest %v)", spec.Name, k+1, dl, tFast)
			}
			prev = dl
		}
		if spec.Deadline(1, tFast, tSlow) != dls[0] || spec.Deadline(5, tFast, tSlow) != dls[4] {
			t.Errorf("%s: Deadline accessor mismatch", spec.Name)
		}
	}
}

func TestDeadlinePanicsOutOfRange(t *testing.T) {
	spec := Adpcm(0.01)
	defer func() {
		if recover() == nil {
			t.Error("Deadline(0) did not panic")
		}
	}()
	spec.Deadline(0, 1, 2)
}

func TestAllProgramsValid(t *testing.T) {
	for _, scale := range []float64{0.01, 0.1, 1.0} {
		for _, spec := range All(scale) {
			if err := spec.Program.Validate(); err != nil {
				t.Errorf("%s at scale %v: %v", spec.Name, scale, err)
			}
			if len(spec.Inputs) == 0 {
				t.Errorf("%s: no inputs", spec.Name)
			}
		}
	}
	if len(Table7Suite(0.1)) != 4 {
		t.Error("Table7Suite should have 4 benchmarks")
	}
}

func TestMpegInputCategories(t *testing.T) {
	m := sim.MustNew(sim.DefaultConfig())
	spec := MpegDecode(0.05)
	if len(spec.Inputs) != 4 {
		t.Fatalf("mpeg inputs = %d", len(spec.Inputs))
	}
	mode := volt.XScale3().Mode(2)
	times := map[string]float64{}
	bframes := map[string]int64{}
	for _, in := range spec.Inputs {
		res, err := m.Run(spec.Program, in, mode)
		if err != nil {
			t.Fatal(err)
		}
		times[in.Name] = res.TimeUS
		// Block 3 is mb-bframe.
		bframes[in.Name] = res.Blocks[3].Invocations
	}
	// No-B-frame inputs never execute the B path; B-frame inputs do.
	for _, name := range []string{"100b.m2v", "bbc.m2v"} {
		if bframes[name] != 0 {
			t.Errorf("%s executed B-frame path %d times", name, bframes[name])
		}
	}
	for _, name := range []string{"flwr.m2v", "cact.m2v"} {
		if bframes[name] == 0 {
			t.Errorf("%s never executed B-frame path", name)
		}
	}
	// Runtimes differ across inputs (the Figure 19 premise).
	if times["flwr.m2v"] == times["bbc.m2v"] {
		t.Error("flwr and bbc runtimes identical; categories indistinguishable")
	}
}

func TestScaleShrinksRuntime(t *testing.T) {
	m := sim.MustNew(sim.DefaultConfig())
	mode := volt.XScale3().Mode(2)
	small, err := m.Run(Adpcm(0.02).Program, ir.Input{Name: "x", Seed: 1}, mode)
	if err != nil {
		t.Fatal(err)
	}
	big, err := m.Run(Adpcm(0.2).Program, ir.Input{Name: "x", Seed: 1}, mode)
	if err != nil {
		t.Fatal(err)
	}
	if big.TimeUS < 5*small.TimeUS {
		t.Errorf("scale 0.2 (%v µs) not ≈10× scale 0.02 (%v µs)", big.TimeUS, small.TimeUS)
	}
}

var workloadSink *ir.Program

// BenchmarkWorkloadConstruction times building the six-benchmark suite at
// scale 0.1.
func BenchmarkWorkloadConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range All(0.1) {
			workloadSink = s.Program
		}
	}
}
