package analytic_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ctdvs/internal/analytic"
	"ctdvs/internal/volt"
)

var update = flag.Bool("update", false, "rewrite testdata/continuous.golden from the current code")

// figVRange is exp's calibrated range for the analytic figures:
// f(3.5 V) = 6 GHz under the alpha-power law with a = 1.5, vt = 0.45 V.
func figVRange() analytic.VRange {
	sc := volt.Scaling{A: volt.Alpha, Vt: volt.VThreshold, K: 1}
	sc.K = 6000 / sc.Freq(3.5)
	return analytic.VRange{Lo: 0.5, Hi: 3.5, Scaling: sc}
}

// grid is exp's evenly spaced axis of n points over [lo, hi].
func grid(lo, hi float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return xs
}

// surfacePoint is one grid point of a continuous surface figure.
type surfacePoint struct {
	fig, i, j int
	p         analytic.Params
}

// fig567 returns the parameter sets of exp's Figures 5, 6 and 7 on an n×n
// grid, in the order exp evaluates them.
func fig567(n int) []surfacePoint {
	defs := []struct {
		fig                int
		xlo, xhi, ylo, yhi float64
		params             func(x, y float64) analytic.Params
	}{
		{5, 200, 1800, 0, 1500, func(x, y float64) analytic.Params {
			return analytic.Params{NOverlap: x * 1e3, NDependent: y * 1e3, NCache: 3e5, TInvariant: 1000, DeadlineUS: 3000}
		}},
		{6, 200, 1800, 500, 3500, func(x, y float64) analytic.Params {
			return analytic.Params{NOverlap: 4e6, NDependent: 5.8e6, NCache: x * 1e3, TInvariant: y, DeadlineUS: 5000}
		}},
		{7, 1500, 5000, 500, 4000, func(x, y float64) analytic.Params {
			return analytic.Params{NOverlap: 4e6, NDependent: 5.7e6, NCache: y * 1e3, TInvariant: 1000, DeadlineUS: x}
		}},
	}
	var pts []surfacePoint
	for _, d := range defs {
		for i, x := range grid(d.xlo, d.xhi, n) {
			for j, y := range grid(d.ylo, d.yhi, n) {
				pts = append(pts, surfacePoint{d.fig, i, j, d.params(x, y)})
			}
		}
	}
	return pts
}

// hexBits renders floats as their IEEE-754 bit patterns, so a golden
// comparison is exact to the last bit.
func hexBits(xs ...float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%016x", math.Float64bits(x))
	}
	return b.String()
}

// writeContinuous appends one point's continuous optimum, baseline and
// savings ratio, or the errors they return.
func writeContinuous(b *bytes.Buffer, p analytic.Params, vr analytic.VRange) {
	if sol, err := analytic.OptimizeContinuous(p, vr); err != nil {
		fmt.Fprintf(b, " opt-err %q", err)
	} else {
		fmt.Fprintf(b, " opt %s %d", hexBits(sol.EnergyVC, sol.V1, sol.F1, sol.V2, sol.F2), sol.Case)
	}
	if v, f, e, err := analytic.BaselineContinuous(p, vr); err != nil {
		fmt.Fprintf(b, " base-err %q", err)
	} else {
		fmt.Fprintf(b, " base %s", hexBits(v, f, e))
	}
	if s, err := analytic.SavingsContinuous(p, vr); err != nil {
		fmt.Fprintf(b, " save-err %q", err)
	} else {
		fmt.Fprintf(b, " save %s", hexBits(s))
	}
}

// continuousGolden renders, bit for bit, everything the continuous model
// computes through voltage inversion: the Figure 5–7 surfaces at n = 6,
// random parameter sets on the repository-standard range, the exact
// (Li–Yao–Yuan) optimum of their two-phase encodings, and the Figure 2–4
// energy curves.
func continuousGolden() []byte {
	var b bytes.Buffer
	fvr := figVRange()
	for _, pt := range fig567(6) {
		fmt.Fprintf(&b, "fig%d %d %d", pt.fig, pt.i, pt.j)
		writeContinuous(&b, pt.p, fvr)
		b.WriteByte('\n')
	}

	dvr := analytic.DefaultVRange()
	rng := rand.New(rand.NewSource(13))
	for k := 0; k < 32; k++ {
		p := analytic.Params{
			NOverlap:   rng.Float64() * 8e6,
			NDependent: rng.Float64() * 8e6,
			NCache:     rng.Float64() * 2e6,
			TInvariant: rng.Float64() * 8000,
			DeadlineUS: 8000 + rng.Float64()*24000,
		}
		fmt.Fprintf(&b, "random %d", k)
		writeContinuous(&b, p, dvr)
		if sol, err := analytic.OptimizeContinuousExact(analytic.TwoPhaseJobs(p), dvr); err != nil {
			fmt.Fprintf(&b, " exact-err %q", err)
		} else {
			fmt.Fprintf(&b, " exact %s %s %s", hexBits(sol.EnergyVC), hexBits(sol.FreqMHz...), hexBits(sol.VoltV...))
		}
		b.WriteByte('\n')
	}

	curves := []analytic.Params{
		{NOverlap: 4e6, NDependent: 5.8e6, NCache: 3e5, TInvariant: 100, DeadlineUS: 9000},
		{NOverlap: 4e6, NDependent: 5.8e6, NCache: 3e5, TInvariant: 3000, DeadlineUS: 5000},
		{NOverlap: 2e5, NDependent: 5e6, NCache: 2e6, TInvariant: 2000, DeadlineUS: 9000},
	}
	for k, p := range curves {
		ys := analytic.EnergyVsV1(p, fvr, grid(fvr.Lo, fvr.Hi, 120))
		fmt.Fprintf(&b, "curve%d %s\n", k+2, hexBits(ys...))
	}
	return b.Bytes()
}

// TestContinuousGolden pins every continuous result to the bits recorded
// in testdata/continuous.golden, so a faster voltage inversion or optimizer
// must reproduce them exactly. Run with -update to rewrite the file.
func TestContinuousGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden bits were recorded on amd64; other architectures may fuse multiply-adds")
	}
	path := filepath.Join("testdata", "continuous.golden")
	got := continuousGolden()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gl) != len(wl) {
		t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
	}
	bad := 0
	for i := range gl {
		if !bytes.Equal(gl[i], wl[i]) {
			if bad++; bad <= 5 {
				t.Errorf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("%d lines differ in all", bad)
	}
}
