// Package sim is the cycle-level CPU/cache/power simulator that stands in
// for the Wattch + SimpleScalar toolchain of the original paper. It executes
// ir.Programs at a fixed DVS mode or under a DVS schedule (mode-set
// instructions on control-flow edges), producing:
//
//   - total execution time (µs) and energy (µJ);
//   - per-block, per-mode time and energy (the paper's T_jm, E_jm);
//   - edge traversal counts G_ij and local-path counts D_hij;
//   - the aggregate program parameters of the paper's analytic model
//     (N_cache, N_overlap, N_dependent in cycles; t_invariant in µs);
//   - under DVS schedules, the dynamic mode-transition count and the
//     time/energy spent in transitions (Table 5, Figures 15/17/19).
//
// The timing model matches the paper's assumptions (Section 3.1): memory is
// asynchronous with the CPU (miss service time is independent of clock
// frequency), the clock is gated while the processor waits on memory (idle
// cycles consume no energy), and program control flow is independent of
// frequency.
package sim

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int // total capacity
	Assoc     int // ways per set
	LineBytes int // line size
	// LatencyCycles is the access latency in CPU cycles (on-chip, so it
	// scales with clock frequency).
	LatencyCycles int
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Assoc * c.LineBytes) }

// Config is the machine configuration. DefaultConfig mirrors the paper's
// Table 2 where the parameter exists in our model; parameters of the 4-wide
// out-of-order core that our block-level timing abstracts away (RUU/LSQ/fetch
// widths) are represented by the block cycle weights of the workloads
// themselves.
type Config struct {
	L1 CacheConfig // unified treatment of I/D: workloads express data traffic
	L2 CacheConfig

	// MemLatencyUS is the absolute main-memory service time per miss in
	// microseconds; it does not scale with CPU frequency (asynchronous
	// memory, paper assumption 2).
	MemLatencyUS float64

	// MemChannels is the number of misses the memory system can service
	// concurrently (MSHR-style memory-level parallelism). The paper's model
	// — and the default — is a single serialized channel; higher values are
	// an extension for studying how overlap opportunities change with
	// memory parallelism.
	MemChannels int

	// StaticPowerMW is leakage power in milliwatts, drawn for the whole
	// wall-clock duration including clock-gated stalls. The paper assumes
	// zero (assumption 3 charges nothing while gated) and lists leakage as
	// future work; a non-zero value quantifies how leakage erodes the
	// benefit of running slowly. Leakage energy is reported separately and
	// excluded from per-block stats.
	StaticPowerMW float64

	// PredictorEntries is the number of 2-bit counters in the bimodal branch
	// predictor (Table 2 lists a 2K-entry bimodal component).
	PredictorEntries int
	// MispredictPenaltyCycles is the pipeline refill penalty.
	MispredictPenaltyCycles int

	// RecordBudgetEvents bounds the size of the event stream Machine.Record
	// may capture, in events (block executions + memory accesses + executed
	// branches); a run that would exceed it aborts recording with
	// ErrUnrecordable and callers fall back to per-mode simulation. Zero
	// selects DefaultRecordBudget; a negative value disables recording
	// entirely (every Record reports ErrUnrecordable). The budget is checked
	// at block granularity, so the captured stream may overshoot it by the
	// events of one block.
	RecordBudgetEvents int

	// Effective switched capacitance per activity, in nanofarads: energy per
	// event is Ceff·V² nanojoules (reported in µJ). Calibrated so a ~1.65 V,
	// 800 MHz run dissipates on the order of 1 W, matching Wattch-era
	// XScale-class estimates.
	CeffComputeNF float64 // per computation cycle
	CeffL1NF      float64 // per L1 access
	CeffL2NF      float64 // per L2 access cycle
}

// DefaultConfig returns the Table 2 machine: 64 KB 4-way 32 B L1 (1 cycle),
// 512 KB 4-way 32 B unified L2 (16 cycles), 2K-entry bimodal predictor.
// Main memory latency is 0.1 µs (100 ns, a 2003-era DRAM access).
func DefaultConfig() Config {
	return Config{
		L1:                      CacheConfig{SizeBytes: 64 << 10, Assoc: 4, LineBytes: 32, LatencyCycles: 1},
		L2:                      CacheConfig{SizeBytes: 512 << 10, Assoc: 4, LineBytes: 32, LatencyCycles: 16},
		MemLatencyUS:            0.1,
		MemChannels:             1,
		PredictorEntries:        2048,
		MispredictPenaltyCycles: 4,
		CeffComputeNF:           0.45,
		CeffL1NF:                0.55,
		CeffL2NF:                0.90,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.L1.validate("L1"); err != nil {
		return err
	}
	if err := c.L2.validate("L2"); err != nil {
		return err
	}
	if c.MemLatencyUS <= 0 {
		return errf("memory latency must be positive, got %v", c.MemLatencyUS)
	}
	if c.MemChannels < 1 {
		return errf("memory channels must be at least 1, got %d", c.MemChannels)
	}
	if c.StaticPowerMW < 0 {
		return errf("negative static power")
	}
	if c.PredictorEntries <= 0 || c.PredictorEntries&(c.PredictorEntries-1) != 0 {
		return errf("predictor entries must be a positive power of two, got %d", c.PredictorEntries)
	}
	if c.MispredictPenaltyCycles < 0 {
		return errf("negative mispredict penalty")
	}
	if c.CeffComputeNF <= 0 || c.CeffL1NF <= 0 || c.CeffL2NF <= 0 {
		return errf("effective capacitances must be positive")
	}
	return nil
}

func (c CacheConfig) validate(name string) error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 || c.LatencyCycles <= 0 {
		return errf("%s: all parameters must be positive: %+v", name, c)
	}
	if c.SizeBytes%(c.Assoc*c.LineBytes) != 0 {
		return errf("%s: size %d not divisible by assoc×line %d", name, c.SizeBytes, c.Assoc*c.LineBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return errf("%s: set count %d is not a power of two", name, sets)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return errf("%s: line size %d is not a power of two", name, c.LineBytes)
	}
	return nil
}
