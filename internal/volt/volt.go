// Package volt models the voltage/frequency/energy physics used throughout
// the reproduction of Xie, Martonosi and Malik, "Compile-Time Dynamic Voltage
// Scaling Settings: Opportunities and Limits" (PLDI 2003).
//
// The package provides:
//
//   - the alpha-power delay model relating supply voltage and clock frequency,
//     f = k·(v − vt)^a / v (Sakurai–Newton), with the paper's constants
//     a = 1.5 and vt = 0.45 V, calibrated so that the XScale-like operating
//     points 0.7 V → 200 MHz, 1.3 V → 600 MHz and 1.65 V → 800 MHz hold;
//   - DVS mode tables (discrete (V, f) sets) including the paper's 3-level
//     XScale-like set and evenly spaced 7- and 13-level sets;
//   - the voltage-regulator transition cost model of Burd and Brodersen,
//     SE = (1 − u)·c·|vi² − vj²| and ST = (2c/IMAX)·|vi − vj|, with defaults
//     calibrated to the paper's 12 µs / 1.2 µJ for a 600 MHz → 200 MHz switch
//     at c = 10 µF.
//
// Units are consistent across the repository: volts, MHz (cycles per
// microsecond), microseconds, and microjoules.
package volt

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Physical constants used by the paper (Section 3.1 and Section 5.1).
const (
	// Alpha is the technology-dependent velocity-saturation exponent in the
	// alpha-power model ("currently around 1.5" per the paper).
	Alpha = 1.5

	// VThreshold is the device threshold voltage in volts (paper: 0.45 V).
	VThreshold = 0.45
)

// Scaling captures an alpha-power voltage/frequency relationship
// f = K·(v − Vt)^A / v, with f in MHz and v in volts.
type Scaling struct {
	K  float64 // technology constant, MHz·V/(V^A)
	A  float64 // velocity-saturation exponent
	Vt float64 // threshold voltage, volts
}

// DefaultScaling returns the scaling law calibrated so that 1.65 V maps to
// 800 MHz with a = 1.5 and vt = 0.45 V. Under this calibration the paper's
// other two XScale-like points fall out naturally: 1.3 V → ~605 MHz and
// 0.7 V → ~179 MHz (the paper rounds these to 600 and 200 MHz).
func DefaultScaling() Scaling {
	s := Scaling{A: Alpha, Vt: VThreshold, K: 1}
	// Solve K from f(1.65 V) = 800 MHz.
	s.K = 800 / s.freqUnit(1.65)
	return s
}

// freqUnit evaluates (v − vt)^A / v, the voltage-dependent factor of f.
func (s Scaling) freqUnit(v float64) float64 {
	if v <= s.Vt {
		return 0
	}
	return math.Pow(v-s.Vt, s.A) / v
}

// Freq returns the clock frequency in MHz sustainable at supply voltage v.
// Voltages at or below the threshold yield 0.
func (s Scaling) Freq(v float64) float64 {
	return s.K * s.freqUnit(v)
}

// MaxVoltage is the highest supply voltage whose frequency Voltage is sure to
// invert. Voltage's bracket doubling first reaches the root below
// 2·MaxVoltage; it gives up only past 4·MaxVoltage, which leaves room for
// one more doubling when rounding, or a frequency a hair above
// Freq(MaxVoltage), needs it.
const MaxVoltage = 2.5e5

// Voltage returns the minimum supply voltage (in volts) at which the device
// can run at frequency f MHz: the midpoint of an 80-step bisection of Freq
// over [Vt, hi], where hi starts at Vt+1 and doubles until Freq(hi) ≥ f.
// The result is exactly that bisection's, but most comparisons
// Freq(mid) < f are decided without evaluating Freq: the bisection stops
// once the bracket holds two adjacent floats, and a window certified around
// a Newton estimate of the root decides every midpoint outside it (see
// DESIGN.md, "Voltage inversion"). Voltage returns the threshold voltage
// for f = 0; it panics if f is negative or NaN, or unattainable below
// 4·MaxVoltage.
func (s Scaling) Voltage(f float64) float64 {
	if !(f >= 0) {
		panic(fmt.Sprintf("volt: invalid frequency %v", f))
	}
	if f == 0 {
		return s.Vt
	}
	lo, hi := s.Vt, s.Vt+1
	for s.Freq(hi) < f {
		hi *= 2
		if hi > 4*MaxVoltage {
			panic(fmt.Sprintf("volt: frequency %v MHz unattainable", f))
		}
	}
	a, b := s.window(f, hi)
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			// Freq(lo) < f ≤ Freq(hi): every remaining step keeps the bracket.
			break
		}
		if mid < a || mid <= b && s.Freq(mid) < f {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Certified-window constants: the window's half-width relative to the root
// estimate, and the relative margin by which Freq must clear f at its
// edges. The margin is about 900 units of roundoff (2^-53), several times
// the worst rounding error of Freq where the window is used (see
// DESIGN.md).
const (
	windowWidth = 4e-13
	windowClear = 1e-13
)

// window returns [a, b] such that, for every midpoint the bisection toward
// f can visit, Freq(mid) < f when mid < a and Freq(mid) ≥ f when mid > b.
// It needs a law that increases in v (K > 0, A ≥ 1, Vt ≥ 0) with Freq's
// rounding error bounded (A ≤ 8, f and the window clear of the float
// range's ends), and Freq evaluated at a and b clearing f by windowClear.
// Otherwise it returns [-Inf, +Inf], and every midpoint is evaluated.
func (s Scaling) window(f, hi float64) (a, b float64) {
	none, all := math.Inf(-1), math.Inf(1)
	if !(s.K > 0 && s.A >= 1 && s.A <= 8 && s.Vt >= 0 && f >= 0x1p-900) {
		return none, all
	}
	v, ok := s.newtonRoot(f, hi)
	if !ok {
		return none, all
	}
	a, b = v*(1-windowWidth), v*(1+windowWidth)
	if !(a-s.Vt >= 0x1p-64 && s.Freq(a) <= f*(1-windowClear) && s.Freq(b) >= f*(1+windowClear)) {
		return none, all
	}
	return a, b
}

// newtonRoot estimates the root of g(v) = K·(v−Vt)^A − f·v by Newton's
// method from v ≥ the root. g is convex for A ≥ 1, so the iterates fall
// monotonically onto the root. ok is false if they leave (Vt, ∞) or have
// not settled to 1e-15·v within 64 steps.
func (s Scaling) newtonRoot(f, v float64) (root float64, ok bool) {
	for i := 0; i < 64; i++ {
		d := v - s.Vt
		if !(d > 0) {
			return 0, false
		}
		w := math.Pow(d, s.A-1) // a Sqrt at the paper's A = 1.5
		step := (s.K*d*w - f*v) / (s.K*s.A*w - f)
		v -= step
		if math.Abs(step) <= 1e-15*v {
			return v, true
		}
	}
	return 0, false
}

// Mode is one discrete DVS operating point: a supply voltage paired with the
// clock frequency the hardware runs at that voltage.
type Mode struct {
	V float64 // supply voltage, volts
	F float64 // clock frequency, MHz
}

// String formats the mode as e.g. "600MHz@1.30V".
func (m Mode) String() string {
	return fmt.Sprintf("%.0fMHz@%.2fV", m.F, m.V)
}

// EnergyPerCycle returns the dynamic energy of one active clock cycle at this
// mode, in the normalized unit V² used by the paper's analytic model.
// Multiply by an effective switched capacitance to obtain joules.
func (m Mode) EnergyPerCycle() float64 { return m.V * m.V }

// ModeSet is an ordered set of DVS modes, sorted ascending by frequency.
type ModeSet struct {
	modes []Mode
}

// NewModeSet builds a mode set from explicit (V, f) points. It sorts the
// modes by frequency and rejects empty input, non-positive values, and
// duplicate frequencies.
func NewModeSet(modes []Mode) (*ModeSet, error) {
	if len(modes) == 0 {
		return nil, errors.New("volt: empty mode set")
	}
	ms := make([]Mode, len(modes))
	copy(ms, modes)
	sort.Slice(ms, func(i, j int) bool { return ms[i].F < ms[j].F })
	for i, m := range ms {
		if m.V <= 0 || m.F <= 0 {
			return nil, fmt.Errorf("volt: mode %d has non-positive V or F: %v", i, m)
		}
		if i > 0 {
			if ms[i-1].F == m.F {
				return nil, fmt.Errorf("volt: duplicate frequency %v MHz", m.F)
			}
			if ms[i-1].V >= m.V {
				return nil, fmt.Errorf("volt: voltage not increasing with frequency at %v", m)
			}
		}
	}
	return &ModeSet{modes: ms}, nil
}

// MustModeSet is NewModeSet but panics on error; for package-level tables.
func MustModeSet(modes []Mode) *ModeSet {
	ms, err := NewModeSet(modes)
	if err != nil {
		panic(err)
	}
	return ms
}

// XScale3 returns the paper's 3-level XScale-like mode set (Section 5.1):
// 200 MHz @ 0.70 V, 600 MHz @ 1.30 V, 800 MHz @ 1.65 V.
func XScale3() *ModeSet {
	return MustModeSet([]Mode{
		{V: 0.70, F: 200},
		{V: 1.30, F: 600},
		{V: 1.65, F: 800},
	})
}

// Uniform returns a mode set with n voltage levels evenly spaced over
// [vLow, vHigh], with frequencies derived from the scaling law s. The paper's
// 7- and 13-level experiments use Uniform(7, 0.7, 1.65, s) etc.
func Uniform(n int, vLow, vHigh float64, s Scaling) (*ModeSet, error) {
	if n < 2 {
		return nil, fmt.Errorf("volt: need at least 2 levels, got %d", n)
	}
	if vLow <= s.Vt || vHigh <= vLow {
		return nil, fmt.Errorf("volt: invalid voltage range [%v, %v]", vLow, vHigh)
	}
	modes := make([]Mode, n)
	for i := range modes {
		v := vLow + (vHigh-vLow)*float64(i)/float64(n-1)
		modes[i] = Mode{V: v, F: s.Freq(v)}
	}
	return NewModeSet(modes)
}

// Levels returns standard mode sets for the paper's 3-, 7- and 13-level
// experiments. Level 3 is the XScale-like set; 7 and 13 are uniform over
// [0.7 V, 1.65 V] with DefaultScaling.
func Levels(n int) (*ModeSet, error) {
	switch n {
	case 3:
		return XScale3(), nil
	case 7, 13:
		return Uniform(n, 0.7, 1.65, DefaultScaling())
	default:
		return nil, fmt.Errorf("volt: no standard %d-level mode set", n)
	}
}

// Len returns the number of modes.
func (ms *ModeSet) Len() int { return len(ms.modes) }

// Mode returns the i-th mode in ascending frequency order.
func (ms *ModeSet) Mode(i int) Mode { return ms.modes[i] }

// Modes returns a copy of all modes in ascending frequency order.
func (ms *ModeSet) Modes() []Mode {
	out := make([]Mode, len(ms.modes))
	copy(out, ms.modes)
	return out
}

// Max returns the highest-frequency mode.
func (ms *ModeSet) Max() Mode { return ms.modes[len(ms.modes)-1] }

// Min returns the lowest-frequency mode.
func (ms *ModeSet) Min() Mode { return ms.modes[0] }

// Index returns the index of the mode with frequency f, or -1 if absent.
func (ms *ModeSet) Index(f float64) int {
	for i, m := range ms.modes {
		if m.F == f {
			return i
		}
	}
	return -1
}

// Neighbors returns the indices (lo, hi) of the modes bracketing frequency f:
// the fastest mode with F ≤ f and the slowest with F ≥ f. If f lies below the
// slowest mode both return 0; above the fastest, both return Len()-1. If f
// matches a mode exactly, lo == hi.
func (ms *ModeSet) Neighbors(f float64) (lo, hi int) {
	n := len(ms.modes)
	if f <= ms.modes[0].F {
		return 0, 0
	}
	if f >= ms.modes[n-1].F {
		return n - 1, n - 1
	}
	// First mode with F >= f.
	hi = sort.Search(n, func(i int) bool { return ms.modes[i].F >= f })
	if ms.modes[hi].F == f {
		return hi, hi
	}
	return hi - 1, hi
}

// SlowestMeeting returns the index of the slowest mode m such that
// timeAt(m) ≤ deadline, where timeAt gives the execution time at mode index i.
// It returns -1 if no mode meets the deadline. timeAt must be non-increasing
// in i (faster modes never take longer), which holds for all models in this
// repository.
func (ms *ModeSet) SlowestMeeting(deadline float64, timeAt func(i int) float64) int {
	for i := range ms.modes {
		if timeAt(i) <= deadline {
			return i
		}
	}
	return -1
}
