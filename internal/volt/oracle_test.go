package volt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bisectVoltage is the plain 80-step bisection Voltage reproduces, kept
// verbatim as the reference: Voltage must return its bits for every input
// on which it does not panic.
func bisectVoltage(s Scaling, f float64) float64 {
	if f < 0 {
		panic(fmt.Sprintf("volt: negative frequency %v", f))
	}
	if f == 0 {
		return s.Vt
	}
	lo, hi := s.Vt, s.Vt+1
	for s.Freq(hi) < f {
		hi *= 2
		if hi > 1e6 {
			panic(fmt.Sprintf("volt: frequency %v MHz unattainable", f))
		}
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if s.Freq(mid) < f {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// scalingLaw is a named scaling law for the oracle comparisons.
type scalingLaw struct {
	name string
	s    Scaling
}

// oracleLaws are the scaling laws the inversion is checked under: the
// repository default, exp's figure calibration, and two other exponents.
func oracleLaws() []scalingLaw {
	calibrated := func(a, v, f float64) Scaling {
		s := Scaling{A: a, Vt: VThreshold, K: 1}
		s.K = f / s.Freq(v)
		return s
	}
	return []scalingLaw{
		{"default", DefaultScaling()},
		{"figure", calibrated(Alpha, 3.5, 6000)},
		{"a1.3", calibrated(1.3, 1.65, 800)},
		{"a2", calibrated(2, 1.65, 800)},
	}
}

// edgeFreqs returns the frequencies where the inversion is most fragile:
// near zero, on both sides of every bracket-doubling boundary
// Freq((Vt+1)·2^k) and of every Freq(Vt+2^k), and at the top of both
// repository voltage ranges, including the optimizer's 1e-12 tolerance
// above it.
func edgeFreqs(s Scaling) []float64 {
	around := func(f float64) []float64 {
		return []float64{math.Nextafter(f, 0), f, math.Nextafter(f, math.Inf(1))}
	}
	fs := []float64{0, math.SmallestNonzeroFloat64, 0x1p-1022, 1e-300, 0x1p-900, 1e-100, 1e-12, 1e-6, 1e-3}
	for h := 1.0; s.Vt+h <= 4*MaxVoltage; h *= 2 {
		fs = append(fs, around(s.Freq((s.Vt+1)*h))...)
		fs = append(fs, around(s.Freq(s.Vt+h))...)
	}
	for _, v := range []float64{0.5, 0.7, 1.65, 3.5, MaxVoltage} {
		fs = append(fs, around(s.Freq(v))...)
		fs = append(fs, s.Freq(v)*(1+1e-12))
	}
	return fs
}

// invert calls fn(f) and reports whether it panicked.
func invert(fn func(float64) float64, f float64) (v float64, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return fn(f), false
}

// checkOracle reports an input on which Voltage and the bisection differ in
// their bits or in whether they panic.
func checkOracle(t *testing.T, s Scaling, f float64) bool {
	t.Helper()
	want, wantPanic := invert(func(f float64) float64 { return bisectVoltage(s, f) }, f)
	got, gotPanic := invert(s.Voltage, f)
	if gotPanic != wantPanic || !gotPanic && math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%+v: Voltage(%v) = %v (panic %v), bisection %v (panic %v)",
			s, f, got, gotPanic, want, wantPanic)
		return false
	}
	return true
}

// TestVoltageMatchesBisection checks Voltage against the bisection bit for
// bit on more than a million inputs: every edge frequency, then 250,000
// random ones per law, drawn from the figures' voltage span, from a
// log-uniform spread over 14 decades, and from just above and below the
// exact frequencies of the span.
func TestVoltageMatchesBisection(t *testing.T) {
	n := 250000
	if testing.Short() {
		n = 10000
	}
	for k, law := range oracleLaws() {
		k, law := k, law
		t.Run(law.name, func(t *testing.T) {
			t.Parallel()
			s := law.s
			for _, f := range edgeFreqs(s) {
				checkOracle(t, s, f)
			}
			rng := rand.New(rand.NewSource(int64(k) + 1))
			bad := 0
			for i := 0; i < n && bad < 10; i++ {
				var f float64
				switch i % 3 {
				case 0:
					f = s.Freq(0.5 + 3*rng.Float64())
				case 1:
					f = math.Pow(10, -6+14*rng.Float64())
				default:
					f = s.Freq(0.5 + 3*rng.Float64())
					steps, dir := rng.Intn(9)-4, math.Inf(1)
					if steps < 0 {
						steps, dir = -steps, math.Inf(-1)
					}
					for ; steps > 0; steps-- {
						f = math.Nextafter(f, dir)
					}
				}
				if !checkOracle(t, s, f) {
					bad++
				}
			}
		})
	}
}

// TestWindowCertifiesInRange guards the speed of the inversion: across both
// repository voltage ranges the certified window must hold, so the
// bisection evaluates Freq only inside it.
func TestWindowCertifiesInRange(t *testing.T) {
	for _, law := range oracleLaws() {
		s := law.s
		for i := 0; i <= 1000; i++ {
			f := s.Freq(0.5 + 3*float64(i)/1000)
			hi := s.Vt + 1
			for s.Freq(hi) < f {
				hi *= 2
			}
			if a, b := s.window(f, hi); math.IsInf(a, 0) || math.IsInf(b, 0) {
				t.Fatalf("%s: no certified window at f = %v MHz", law.name, f)
			}
		}
	}
}

// FuzzVoltage compares Voltage with the bisection on arbitrary monotone
// laws (K > 0, A ≥ 1, Vt ≥ 0) and frequencies, including the laws where
// the window is not certified and every midpoint is evaluated.
func FuzzVoltage(f *testing.F) {
	for _, law := range oracleLaws() {
		for _, fr := range edgeFreqs(law.s) {
			f.Add(law.s.K, law.s.A, law.s.Vt, fr)
		}
	}
	f.Add(1.0, 1.0, 0.0, 0.5)      // constant law f = K
	f.Add(2000.0, 9.0, 0.3, 100.0) // exponent above the window's bound
	f.Fuzz(func(t *testing.T, k, a, vt, fr float64) {
		finite := func(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }
		if !(k > 0 && a >= 1 && vt >= 0 && fr >= 0) || !finite(k) || !finite(a) || !finite(vt) {
			t.Skip()
		}
		checkOracle(t, Scaling{K: k, A: a, Vt: vt}, fr)
	})
}

var voltageSink float64

// BenchmarkVoltage times one inversion by the bisection and by Voltage,
// over 1,024 frequencies spanning exp's figure range [0.5 V, 3.5 V].
func BenchmarkVoltage(b *testing.B) {
	s := oracleLaws()[1].s
	fs := make([]float64, 1024)
	for i := range fs {
		fs[i] = s.Freq(0.5 + 3*float64(i)/float64(len(fs)-1))
	}
	for _, impl := range []struct {
		name string
		fn   func(float64) float64
	}{
		{"bisection", func(f float64) float64 { return bisectVoltage(s, f) }},
		{"voltage", s.Voltage},
	} {
		b.Run(impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				voltageSink = impl.fn(fs[i%len(fs)])
			}
		})
	}
}
