// Package analytic implements the paper's Section 3 analytical model for the
// maximum energy savings obtainable from compile-time intra-program DVS.
//
// A program (or program region) is summarized by four parameters measured by
// profiling (paper Section 3.2, Table 7):
//
//   - NOverlap: computation cycles that may run concurrently with memory;
//   - NDependent: computation cycles that must wait for memory;
//   - NCache: cycles of cache-hit memory operations;
//   - TInvariant: absolute service time of cache misses (frequency-invariant,
//     since memory is asynchronous with the CPU).
//
// Execution is modelled as an overlapped region followed by the dependent
// computation; at a single frequency f the execution time is
//
//	T(f) = max(tinvariant + NCache/f, NOverlap/f) + NDependent/f
//
// and the CPU's active (ungated) cycle count in the overlapped region is
// max(NOverlap, NCache) — the paper charges NOverlap·v² in its
// computation-dominated and memory-dominated cases and NCache·v² in its
// memory-dominated-with-slack case; the max unifies the three. Energies are
// reported in the paper's normalized unit, volts² × cycles.
//
// The package provides the continuous-voltage optimum (paper Section 3.3,
// Figures 2–7), the discrete-voltage optimum (Section 3.4, Figures 8–11)
// computed exactly as a small linear program over per-mode cycle
// allocations — the optimization the paper's neighbour-frequency
// construction solves by hand — plus that hand construction itself
// (EminOfY, Figure 8), and the single-frequency baselines that savings
// ratios are normalized against.
package analytic

import (
	"fmt"
	"math"

	"ctdvs/internal/volt"
)

// Params are the analytic-model inputs: the four program parameters plus the
// deadline. Cycle counts are in CPU cycles, times in microseconds.
type Params struct {
	NOverlap   float64
	NDependent float64
	NCache     float64
	TInvariant float64
	DeadlineUS float64
}

// Validate reports parameter errors: a NaN or infinite field, a negative
// one, or a deadline that is not positive.
func (p Params) Validate() error {
	for _, x := range [...]float64{p.NOverlap, p.NDependent, p.NCache, p.TInvariant, p.DeadlineUS} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("analytic: non-finite parameter: %+v", p)
		}
	}
	if p.NOverlap < 0 || p.NDependent < 0 || p.NCache < 0 || p.TInvariant < 0 {
		return fmt.Errorf("analytic: negative parameter: %+v", p)
	}
	if p.DeadlineUS <= 0 {
		return fmt.Errorf("analytic: deadline must be positive, got %v", p.DeadlineUS)
	}
	return nil
}

// R1 returns the active cycle count of the overlapped region,
// max(NOverlap, NCache).
func (p Params) R1() float64 { return math.Max(p.NOverlap, p.NCache) }

// ExecTimeUS returns the single-frequency execution time T(f) in µs for
// f in MHz.
func (p Params) ExecTimeUS(f float64) float64 {
	return math.Max(p.TInvariant+p.NCache/f, p.NOverlap/f) + p.NDependent/f
}

// FInvariant returns the paper's f_invariant: the frequency at which
// executing NOverlap − NCache computation cycles exactly fills the cache-miss
// service time. Below it the program is computation-dominated. Zero when
// NCache ≥ NOverlap or TInvariant is zero-slack.
func (p Params) FInvariant() float64 {
	if p.NOverlap <= p.NCache || p.TInvariant <= 0 {
		return 0
	}
	return (p.NOverlap - p.NCache) / p.TInvariant
}

// FIdeal returns the paper's f_ideal, the single frequency that exactly
// meets the deadline ignoring memory invariance:
// (NOverlap+NDependent)/deadline for the computation-dominated analysis.
func (p Params) FIdeal() float64 {
	return (p.NOverlap + p.NDependent) / p.DeadlineUS
}

// Case classifies which of the paper's three regimes the parameters fall in
// at the continuous optimum.
type Case int

// Model regimes (paper Figures 1a, 1b, 1c).
const (
	// ComputeDominated: a single voltage is optimal (Figure 2).
	ComputeDominated Case = iota
	// MemoryDominated: two voltages are optimal (Figure 3).
	MemoryDominated
	// MemorySlack: cache-hit memory operations outlast the overlapped
	// computation; a single voltage is optimal (Figure 4).
	MemorySlack
)

// String names the case.
func (c Case) String() string {
	switch c {
	case ComputeDominated:
		return "computation-dominated"
	case MemoryDominated:
		return "memory-dominated"
	case MemorySlack:
		return "memory-dominated-with-slack"
	}
	return fmt.Sprintf("Case(%d)", int(c))
}

// VRange is a continuously scalable voltage range with its frequency law.
type VRange struct {
	Lo, Hi  float64 // volts
	Scaling volt.Scaling
}

// DefaultVRange returns the repository-standard continuous range
// [0.7 V, 1.65 V] under the default scaling law.
func DefaultVRange() VRange {
	return VRange{Lo: 0.7, Hi: 1.65, Scaling: volt.DefaultScaling()}
}

// Validate reports a range the optimizers cannot search: a NaN or infinite
// bound, Lo ≥ Hi, or Hi above volt.MaxVoltage, the highest voltage whose
// frequency Scaling.Voltage is sure to invert.
func (vr VRange) Validate() error {
	if math.IsNaN(vr.Lo) || math.IsInf(vr.Lo, 0) || math.IsNaN(vr.Hi) || math.IsInf(vr.Hi, 0) {
		return fmt.Errorf("analytic: non-finite voltage range [%v, %v]", vr.Lo, vr.Hi)
	}
	if vr.Lo >= vr.Hi {
		return fmt.Errorf("analytic: empty voltage range [%v, %v]", vr.Lo, vr.Hi)
	}
	if vr.Hi > volt.MaxVoltage {
		return fmt.Errorf("analytic: voltage range top %v V exceeds %v V", vr.Hi, volt.MaxVoltage)
	}
	return nil
}

// FLo returns the frequency at the low end of the range.
func (vr VRange) FLo() float64 { return vr.Scaling.Freq(vr.Lo) }

// FHi returns the frequency at the high end of the range.
func (vr VRange) FHi() float64 { return vr.Scaling.Freq(vr.Hi) }

// ErrDeadlineInfeasible reports that even the fastest available setting
// cannot meet the deadline.
type ErrDeadlineInfeasible struct {
	NeedUS float64 // execution time at the fastest setting
	HaveUS float64 // the deadline
}

func (e *ErrDeadlineInfeasible) Error() string {
	return fmt.Sprintf("analytic: deadline %v µs infeasible: fastest setting needs %v µs", e.HaveUS, e.NeedUS)
}
