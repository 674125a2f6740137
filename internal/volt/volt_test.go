package volt

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDefaultScalingCalibration(t *testing.T) {
	s := DefaultScaling()
	// The calibration anchor: 1.65 V must give exactly 800 MHz.
	if f := s.Freq(1.65); !almostEqual(f, 800, 1e-9) {
		t.Errorf("Freq(1.65) = %v, want 800", f)
	}
	// The paper's other two XScale points should be approximated within a
	// few percent (the paper rounds to 600 and 200 MHz).
	if f := s.Freq(1.30); math.Abs(f-600)/600 > 0.03 {
		t.Errorf("Freq(1.30) = %v, want within 3%% of 600", f)
	}
	if f := s.Freq(0.70); math.Abs(f-200)/200 > 0.15 {
		t.Errorf("Freq(0.70) = %v, want within 15%% of 200", f)
	}
}

func TestFreqMonotone(t *testing.T) {
	s := DefaultScaling()
	prev := 0.0
	for v := 0.5; v <= 3.0; v += 0.01 {
		f := s.Freq(v)
		if f < prev {
			t.Fatalf("Freq not monotone at v=%v: %v < %v", v, f, prev)
		}
		prev = f
	}
}

func TestFreqBelowThreshold(t *testing.T) {
	s := DefaultScaling()
	if f := s.Freq(VThreshold); f != 0 {
		t.Errorf("Freq(vt) = %v, want 0", f)
	}
	if f := s.Freq(0.1); f != 0 {
		t.Errorf("Freq(0.1) = %v, want 0", f)
	}
}

func TestVoltageInvertsFreq(t *testing.T) {
	s := DefaultScaling()
	err := quick.Check(func(raw float64) bool {
		f := math.Abs(math.Mod(raw, 2000)) // frequencies up to 2 GHz
		if f < 1 {
			f = 1
		}
		v := s.Voltage(f)
		return almostEqual(s.Freq(v), f, 1e-6*f+1e-9)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestVoltageZeroAndPanic(t *testing.T) {
	s := DefaultScaling()
	if v := s.Voltage(0); v != s.Vt {
		t.Errorf("Voltage(0) = %v, want threshold %v", v, s.Vt)
	}
	for _, f := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Voltage(%v) did not panic", f)
				}
			}()
			s.Voltage(f)
		}()
	}
}

func TestXScale3(t *testing.T) {
	ms := XScale3()
	if ms.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ms.Len())
	}
	want := []Mode{{0.70, 200}, {1.30, 600}, {1.65, 800}}
	for i, m := range ms.Modes() {
		if m != want[i] {
			t.Errorf("mode %d = %v, want %v", i, m, want[i])
		}
	}
	if ms.Max().F != 800 || ms.Min().F != 200 {
		t.Errorf("Max/Min wrong: %v %v", ms.Max(), ms.Min())
	}
}

func TestNewModeSetErrors(t *testing.T) {
	cases := []struct {
		name  string
		modes []Mode
	}{
		{"empty", nil},
		{"nonpositive freq", []Mode{{V: 1, F: 0}}},
		{"nonpositive volt", []Mode{{V: 0, F: 100}}},
		{"duplicate freq", []Mode{{V: 1, F: 100}, {V: 1.2, F: 100}}},
		{"voltage not increasing", []Mode{{V: 1.2, F: 100}, {V: 1.0, F: 200}}},
	}
	for _, c := range cases {
		if _, err := NewModeSet(c.modes); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestNewModeSetSorts(t *testing.T) {
	ms, err := NewModeSet([]Mode{{V: 1.65, F: 800}, {V: 0.7, F: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if ms.Mode(0).F != 200 || ms.Mode(1).F != 800 {
		t.Errorf("modes not sorted: %v", ms.Modes())
	}
}

func TestUniformLevels(t *testing.T) {
	for _, n := range []int{7, 13} {
		ms, err := Levels(n)
		if err != nil {
			t.Fatal(err)
		}
		if ms.Len() != n {
			t.Fatalf("Levels(%d).Len = %d", n, ms.Len())
		}
		if !almostEqual(ms.Min().V, 0.7, 1e-12) || !almostEqual(ms.Max().V, 1.65, 1e-12) {
			t.Errorf("Levels(%d) voltage range [%v, %v], want [0.7, 1.65]",
				n, ms.Min().V, ms.Max().V)
		}
		// Voltage steps must be uniform.
		step := ms.Mode(1).V - ms.Mode(0).V
		for i := 1; i < n; i++ {
			if !almostEqual(ms.Mode(i).V-ms.Mode(i-1).V, step, 1e-9) {
				t.Errorf("Levels(%d): non-uniform step at %d", n, i)
			}
		}
	}
	if _, err := Levels(5); err == nil {
		t.Error("Levels(5) should fail")
	}
}

func TestUniformErrors(t *testing.T) {
	s := DefaultScaling()
	if _, err := Uniform(1, 0.7, 1.65, s); err == nil {
		t.Error("Uniform(1,...) should fail")
	}
	if _, err := Uniform(3, 0.4, 1.65, s); err == nil {
		t.Error("Uniform below threshold should fail")
	}
	if _, err := Uniform(3, 1.65, 0.7, s); err == nil {
		t.Error("Uniform with inverted range should fail")
	}
}

func TestNeighbors(t *testing.T) {
	ms := XScale3()
	cases := []struct {
		f      float64
		lo, hi int
	}{
		{100, 0, 0},
		{200, 0, 0},
		{300, 0, 1},
		{600, 1, 1},
		{700, 1, 2},
		{800, 2, 2},
		{900, 2, 2},
	}
	for _, c := range cases {
		lo, hi := ms.Neighbors(c.f)
		if lo != c.lo || hi != c.hi {
			t.Errorf("Neighbors(%v) = (%d,%d), want (%d,%d)", c.f, lo, hi, c.lo, c.hi)
		}
	}
}

func TestNeighborsProperty(t *testing.T) {
	ms, _ := Levels(13)
	err := quick.Check(func(raw float64) bool {
		f := math.Abs(math.Mod(raw, 1200))
		lo, hi := ms.Neighbors(f)
		if lo > hi || lo < 0 || hi >= ms.Len() {
			return false
		}
		// Bracketing property, respecting clamping at the ends.
		if f >= ms.Min().F && ms.Mode(lo).F > f {
			return false
		}
		if f <= ms.Max().F && ms.Mode(hi).F < f {
			return false
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestIndex(t *testing.T) {
	ms := XScale3()
	if i := ms.Index(600); i != 1 {
		t.Errorf("Index(600) = %d, want 1", i)
	}
	if i := ms.Index(555); i != -1 {
		t.Errorf("Index(555) = %d, want -1", i)
	}
}

func TestSlowestMeeting(t *testing.T) {
	ms := XScale3()
	// Execution takes 1000/f seconds at mode i.
	timeAt := func(i int) float64 { return 100000 / ms.Mode(i).F }
	// At deadline 500 only the 800 MHz mode (125) and 600 MHz (166) meet it;
	// the slowest is 200 MHz with 500 exactly.
	if i := ms.SlowestMeeting(500, timeAt); i != 0 {
		t.Errorf("SlowestMeeting(500) = %d, want 0", i)
	}
	if i := ms.SlowestMeeting(200, timeAt); i != 1 {
		t.Errorf("SlowestMeeting(200) = %d, want 1", i)
	}
	if i := ms.SlowestMeeting(100, timeAt); i != -1 {
		t.Errorf("SlowestMeeting(100) = %d, want -1", i)
	}
}

func TestModeString(t *testing.T) {
	m := Mode{V: 1.3, F: 600}
	if got := m.String(); got != "600MHz@1.30V" {
		t.Errorf("String = %q", got)
	}
}

func TestEnergyPerCycle(t *testing.T) {
	m := Mode{V: 1.3, F: 600}
	if !almostEqual(m.EnergyPerCycle(), 1.69, 1e-12) {
		t.Errorf("EnergyPerCycle = %v", m.EnergyPerCycle())
	}
}

func TestDefaultRegulatorCalibration(t *testing.T) {
	r := DefaultRegulator()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper Section 6.2: 600 MHz/1.3 V → 200 MHz/0.7 V at c = 10 µF costs
	// 12 µs and 1.2 µJ.
	if st := r.TransitionTime(1.3, 0.7); !almostEqual(st, 12, 1e-9) {
		t.Errorf("TransitionTime(1.3,0.7) = %v µs, want 12", st)
	}
	if se := r.TransitionEnergy(1.3, 0.7); !almostEqual(se, 1.2, 1e-9) {
		t.Errorf("TransitionEnergy(1.3,0.7) = %v µJ, want 1.2", se)
	}
}

func TestTransitionSymmetryAndZero(t *testing.T) {
	r := DefaultRegulator()
	err := quick.Check(func(a, b float64) bool {
		va := 0.5 + math.Abs(math.Mod(a, 2))
		vb := 0.5 + math.Abs(math.Mod(b, 2))
		return almostEqual(r.TransitionEnergy(va, vb), r.TransitionEnergy(vb, va), 1e-12) &&
			almostEqual(r.TransitionTime(va, vb), r.TransitionTime(vb, va), 1e-12) &&
			r.TransitionEnergy(va, va) == 0 && r.TransitionTime(va, va) == 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestCapacitanceScalesCosts(t *testing.T) {
	r := DefaultRegulator()
	r2 := r.WithCapacitance(r.C / 10)
	if !almostEqual(r2.TransitionTime(1.3, 0.7)*10, r.TransitionTime(1.3, 0.7), 1e-9) {
		t.Error("TransitionTime not linear in capacitance")
	}
	if !almostEqual(r2.TransitionEnergy(1.3, 0.7)*10, r.TransitionEnergy(1.3, 0.7), 1e-9) {
		t.Error("TransitionEnergy not linear in capacitance")
	}
}

func TestCECTMatchCostFunctions(t *testing.T) {
	r := DefaultRegulator()
	vi, vj := 1.65, 0.7
	if se := r.CE() * math.Abs(vi*vi-vj*vj); !almostEqual(se, r.TransitionEnergy(vi, vj), 1e-9) {
		t.Errorf("CE-based SE = %v, want %v", se, r.TransitionEnergy(vi, vj))
	}
	if st := r.CT() * math.Abs(vi-vj); !almostEqual(st, r.TransitionTime(vi, vj), 1e-9) {
		t.Errorf("CT-based ST = %v, want %v", st, r.TransitionTime(vi, vj))
	}
}

func TestRegulatorValidate(t *testing.T) {
	bad := []Regulator{
		{C: 0, U: 0.9, IMax: 1},
		{C: 1e-6, U: 1.0, IMax: 1},
		{C: 1e-6, U: -0.1, IMax: 1},
		{C: 1e-6, U: 0.9, IMax: 0},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestRegulatorValidateNonFinite sets each parameter of the default
// regulator to NaN and to both infinities; every one must be rejected.
func TestRegulatorValidateNonFinite(t *testing.T) {
	params := []struct {
		name string
		set  func(r *Regulator, v float64)
	}{
		{"C", func(r *Regulator, v float64) { r.C = v }},
		{"U", func(r *Regulator, v float64) { r.U = v }},
		{"IMax", func(r *Regulator, v float64) { r.IMax = v }},
	}
	for _, p := range params {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			r := DefaultRegulator()
			p.set(&r, v)
			if err := r.Validate(); err == nil {
				t.Errorf("%s = %v: expected validation error", p.name, v)
			}
		}
	}
}
