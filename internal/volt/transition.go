package volt

import (
	"fmt"
	"math"
)

// Regulator models the DC-DC voltage regulator that implements DVS mode
// switches, following Burd and Brodersen's cost model as used in paper
// Section 4.2:
//
//	SE(vi, vj) = (1 − u) · c · |vi² − vj²|   (energy cost, joules)
//	ST(vi, vj) = (2c / IMAX) · |vi − vj|     (time cost, seconds)
//
// where c is the regulator capacitance, u its energy efficiency, and IMAX the
// maximum allowed current. The repository-wide units are µJ and µs, so the
// accessors below scale accordingly.
type Regulator struct {
	C    float64 // regulator capacitance, farads
	U    float64 // energy efficiency of the regulator, in [0, 1)
	IMax float64 // maximum allowed current, amperes
}

// DefaultRegulator returns the paper's typical regulator: c = 10 µF, and
// u, IMAX calibrated so a 600 MHz/1.3 V → 200 MHz/0.7 V switch costs 12 µs
// and 1.2 µJ (paper Section 6.2). That calibration gives u = 0.9, IMAX = 1 A.
func DefaultRegulator() Regulator {
	return Regulator{C: 10e-6, U: 0.9, IMax: 1.0}
}

// WithCapacitance returns a copy of r with capacitance c (farads). The
// paper's Figure 15 sweeps c over 100 µF … 0.01 µF with u and IMAX fixed.
func (r Regulator) WithCapacitance(c float64) Regulator {
	r.C = c
	return r
}

// TransitionEnergy returns SE(vi, vj) in microjoules.
func (r Regulator) TransitionEnergy(vi, vj float64) float64 {
	return (1 - r.U) * r.C * math.Abs(vi*vi-vj*vj) * 1e6
}

// TransitionTime returns ST(vi, vj) in microseconds.
func (r Regulator) TransitionTime(vi, vj float64) float64 {
	return 2 * r.C / r.IMax * math.Abs(vi-vj) * 1e6
}

// CE returns the constant c·(1−u) from the linearized MILP formulation, in
// microjoules per squared volt, such that SE = CE·|vi² − vj²|.
func (r Regulator) CE() float64 { return r.C * (1 - r.U) * 1e6 }

// CT returns the constant 2c/IMAX from the linearized MILP formulation, in
// microseconds per volt, such that ST = CT·|vi − vj|.
func (r Regulator) CT() float64 { return 2 * r.C / r.IMax * 1e6 }

// Validate reports whether the regulator parameters are physically sensible.
// NaN and infinite values are rejected: they would price every transition as
// NaN or infinity.
func (r Regulator) Validate() error {
	if !(r.C > 0) || math.IsInf(r.C, 1) {
		return fmt.Errorf("volt: regulator capacitance must be positive and finite, got %v", r.C)
	}
	if !(r.U >= 0 && r.U < 1) {
		return fmt.Errorf("volt: regulator efficiency must be in [0,1), got %v", r.U)
	}
	if !(r.IMax > 0) || math.IsInf(r.IMax, 1) {
		return fmt.Errorf("volt: regulator IMAX must be positive and finite, got %v", r.IMax)
	}
	return nil
}
