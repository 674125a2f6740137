// Package exp regenerates every table and figure of the paper's evaluation.
// Each experiment is a function returning structured data plus a Render
// method producing a paper-style text table; cmd/dvs-bench drives them all
// and bench_test.go wraps each in a testing.B benchmark.
//
// See DESIGN.md for the experiment index (which paper table/figure each
// function reproduces, with workload and parameters) and EXPERIMENTS.md for
// recorded paper-vs-measured results.
package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"ctdvs/internal/ir"
	"ctdvs/internal/milp"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/profile"
	"ctdvs/internal/schedfile"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// Config carries the shared experiment environment. Every experiment is a
// pipeline run: profiles, MILP solves and schedule re-simulations resolve
// through the Pipeline runner, which deduplicates concurrent requests,
// memoizes results in-process and — when backed by an artifact store — skips
// simulation and solving entirely on repeated runs. A Config is safe for
// concurrent use: parallel experiment cells draw private simulators from an
// internal machine pool (the Machine field itself is single-threaded, like
// every sim.Machine).
type Config struct {
	// Scale is the workload scale factor (1.0 = paper-comparable sizes).
	Scale float64
	// Machine simulates; defaults to sim.DefaultConfig. Serial code paths
	// use it directly; parallel cells use pooled machines built from its
	// configuration instead, because a sim.Machine must not run two
	// simulations at once.
	Machine *sim.Machine
	// MILP bounds each solver call.
	MILP *milp.Options
	// Workers bounds the experiment fan-out: independent (workload,
	// category-set, deadline) cells run on up to this many goroutines.
	// 0 selects runtime.GOMAXPROCS(0); 1 runs every cell sequentially.
	Workers int
	// Pipeline resolves record/profile/solve/validate stages. NewConfig
	// installs a memory-only runner; attach a disk-backed one
	// (pipeline.NewRunner over a pipeline.Store) to persist artifacts across
	// processes.
	Pipeline *pipeline.Runner

	mu           sync.Mutex
	specs        map[string]*workloads.Spec
	machines     sync.Pool
	fingerprints sync.Map // *profile.Profile -> string

	// Machine-pool accounting: outstanding borrows and the high-water mark.
	// The no-leak invariant (outstanding returns to zero) is asserted under
	// the race detector in tests.
	poolOutstanding atomic.Int64
	poolPeak        atomic.Int64
}

// NewConfig returns an experiment configuration at the given workload scale.
func NewConfig(scale float64) *Config {
	c := &Config{
		Scale:    scale,
		Machine:  sim.MustNew(sim.DefaultConfig()),
		Pipeline: pipeline.NewRunner(nil),
		specs:    make(map[string]*workloads.Spec),
	}
	c.machines.New = func() interface{} {
		return sim.MustNew(c.Machine.Config())
	}
	return c
}

// acquireMachine returns a simulator for exclusive use by one experiment
// cell; pair with releaseMachine. Machines are pooled because construction
// is cheap but not free and cells are short-lived.
func (c *Config) acquireMachine() *sim.Machine {
	out := c.poolOutstanding.Add(1)
	for {
		peak := c.poolPeak.Load()
		if out <= peak || c.poolPeak.CompareAndSwap(peak, out) {
			break
		}
	}
	return c.machines.Get().(*sim.Machine)
}

// releaseMachine resets the machine before returning it to the pool, so no
// borrower inherits another cell's EdgeHook or warmed microarchitectural
// state.
func (c *Config) releaseMachine(m *sim.Machine) {
	m.Reset()
	c.machines.Put(m)
	c.poolOutstanding.Add(-1)
}

// PoolStats reports the machine pool's current outstanding borrows and its
// high-water mark. Outstanding must be zero whenever no experiment cell is
// running — a non-zero value means a borrower leaked a machine.
func (c *Config) PoolStats() (outstanding, peak int64) {
	return c.poolOutstanding.Load(), c.poolPeak.Load()
}

// solverOpts returns the MILP options experiment cells should pass to the
// optimizer. When the experiment layer itself fans out, per-solve
// parallelism defaults to a single worker so cells do not oversubscribe the
// machine; an explicitly configured MILP.Workers always wins.
func (c *Config) solverOpts() *milp.Options {
	var o milp.Options
	if c.MILP != nil {
		o = *c.MILP
	}
	if o.Workers == 0 && c.workers() > 1 {
		o.Workers = 1
	}
	return &o
}

// Spec returns (and caches) the named workload at the configured scale.
func (c *Config) Spec(name string) (*workloads.Spec, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.specs[name]; ok {
		return s, nil
	}
	if len(c.specs) == 0 {
		for _, s := range workloads.All(c.Scale) {
			c.specs[s.Name] = s
		}
	}
	if s, ok := c.specs[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("exp: unknown benchmark %q", name)
}

// Profile returns (and caches) the profile of one benchmark input under a
// mode set identified by its level count, via the pipeline's profile stage:
// concurrent callers block only on the key they ask for, repeated in-process
// calls return the identical *profile.Profile, and with a disk store attached
// the collection is skipped entirely on repeated runs.
//
// The profile is replayed from the pipeline's record stage — one recorded
// simulation per (benchmark, input) whose mode-invariant event stream serves
// every mode set — so asking for 3-, 7- and 13-level profiles of one input
// costs one simulation, not 23. Workloads outside the recording envelope
// (sim.Config.RecordBudgetEvents) fall back to per-mode simulation with
// bit-identical results.
func (c *Config) Profile(bench string, input int, levels int) (*profile.Profile, error) {
	return c.ProfileCtx(context.Background(), bench, input, levels)
}

// ProfileCtx is Profile under a caller context: a request cancelled while
// queued never starts the profiling simulation, and an in-flight collection
// is aborted only when every caller waiting on it has cancelled (see
// pipeline.RunCtx).
func (c *Config) ProfileCtx(ctx context.Context, bench string, input int, levels int) (*profile.Profile, error) {
	spec, err := c.Spec(bench)
	if err != nil {
		return nil, err
	}
	if input < 0 || input >= len(spec.Inputs) {
		return nil, fmt.Errorf("exp: %s has no input %d", bench, input)
	}
	ms, err := volt.Levels(levels)
	if err != nil {
		return nil, err
	}
	st := pipeline.Stage[*profile.Profile]{
		Kind:         pipeline.StageProfile,
		EncodeBinary: profile.EncodeBinary,
		DecodeBinary: func(data []byte) (*profile.Profile, error) {
			return profile.DecodeBinary(data, spec.Program, spec.Inputs[input], ms)
		},
		// Zero-copy warm reads: the matrices alias the mmap'd artifact,
		// which the runner's slot cache keeps alive (see Stage.DecodeMapped).
		DecodeMapped: func(data []byte) (*profile.Profile, error) {
			return profile.DecodeBinaryMapped(data, spec.Program, spec.Inputs[input], ms)
		},
	}
	return pipeline.RunCtx(ctx, c.runner(), st, c.profileKey(bench, input, levels), func(ctx context.Context) (*profile.Profile, error) {
		rec, err := c.recording(ctx, spec, bench, input)
		if err == nil {
			return profile.FromRecording(rec, spec.Program, spec.Inputs[input], ms)
		}
		if !errors.Is(err, sim.ErrUnrecordable) {
			return nil, err
		}
		m := c.acquireMachine()
		defer c.releaseMachine(m)
		return profile.CollectPerMode(m, spec.Program, spec.Inputs[input], ms)
	})
}

// recording returns (and caches) the replayable event stream of one benchmark
// input via the pipeline's record stage. The recording run itself happens at
// the fastest XScale mode, but the captured stream is mode-invariant, so the
// artifact is shared by every mode set — a second Profile call with a
// different level count replays the cached stream instead of simulating.
func (c *Config) recording(ctx context.Context, spec *workloads.Spec, bench string, input int) (*sim.Recording, error) {
	st := pipeline.Stage[*sim.Recording]{
		Kind:         pipeline.StageRecording,
		EncodeBinary: schedfile.EncodeRecordingBinary,
		DecodeBinary: func(data []byte) (*sim.Recording, error) {
			return schedfile.DecodeRecordingBinary(data, spec.Program, spec.Inputs[input], c.Machine.Config())
		},
		// Zero-copy warm reads: the trace and outcome bitstreams alias the
		// mmap'd artifact and replay straight out of the page cache, which
		// the runner's slot cache keeps alive (see Stage.DecodeMapped).
		DecodeMapped: func(data []byte) (*sim.Recording, error) {
			return schedfile.DecodeRecordingBinaryMapped(data, spec.Program, spec.Inputs[input], c.Machine.Config())
		},
	}
	return pipeline.RunCtx(ctx, c.runner(), st, c.recordKey(bench, input), func(context.Context) (*sim.Recording, error) {
		m := c.acquireMachine()
		defer c.releaseMachine(m)
		rec, _, err := m.Record(spec.Program, spec.Inputs[input], volt.XScale3().Max())
		return rec, err
	})
}

// Deadlines returns the benchmark's five paper deadlines (µs) at the current
// scale, measured from its 3-level profile. Index 0 is Deadline 1 (most
// stringent).
func (c *Config) Deadlines(bench string) ([5]float64, error) {
	spec, err := c.Spec(bench)
	if err != nil {
		return [5]float64{}, err
	}
	pr, err := c.Profile(bench, 0, 3)
	if err != nil {
		return [5]float64{}, err
	}
	n := pr.Modes.Len()
	return spec.Deadlines(pr.TotalTimeUS[n-1], pr.TotalTimeUS[0]), nil
}

// DefaultInput returns the benchmark's profiling input.
func (c *Config) DefaultInput(bench string) (ir.Input, error) {
	spec, err := c.Spec(bench)
	if err != nil {
		return ir.Input{}, err
	}
	return spec.Inputs[0], nil
}

// Suite lists the benchmark names used by the MILP experiments, in the
// paper's order.
func Suite() []string {
	return []string{"mpeg/decode", "gsm/encode", "mpg123", "adpcm/encode", "epic", "ghostscript"}
}

// Table7Benchmarks lists the benchmarks with Table 1/6/7 rows.
func Table7Benchmarks() []string {
	return []string{"adpcm/encode", "epic", "gsm/encode", "mpeg/decode"}
}

// Table is a rendered experiment: a title, column headers and string cells.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// JSON renders the table as a machine-readable object: one map per row,
// keyed by header.
func (t *Table) JSON(w io.Writer) error {
	type doc struct {
		Title string              `json:"title"`
		Rows  []map[string]string `json:"rows"`
	}
	d := doc{Title: t.Title}
	for _, r := range t.Rows {
		m := make(map[string]string, len(t.Headers))
		for i, h := range t.Headers {
			if i < len(r) {
				m[h] = r[i]
			}
		}
		d.Rows = append(d.Rows, m)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Render writes the table in aligned text form.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
		return err
	}
	if err := line(t.Headers); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Curve is a sampled 1-D relationship (the paper's Figures 2, 3, 4, 8 and
// the per-benchmark series of Figures 14, 15, 17, 18).
type Curve struct {
	Name   string
	XLabel string
	YLabel string
	X, Y   []float64
}

// Table renders the curve as a two-column table.
func (c *Curve) Table() *Table {
	t := &Table{Title: c.Name, Headers: []string{c.XLabel, c.YLabel}}
	for i := range c.X {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.6g", c.X[i]),
			fmt.Sprintf("%.6g", c.Y[i]),
		})
	}
	return t
}

// Surface is a sampled 2-D relationship (the paper's Figures 5–7 and 9–11).
// Z[i][j] corresponds to (X[i], Y[j]).
type Surface struct {
	Name   string
	XLabel string
	YLabel string
	ZLabel string
	X, Y   []float64
	Z      [][]float64
}

// Table renders the surface as a grid with X down the rows and Y across the
// columns.
func (s *Surface) Table() *Table {
	headers := []string{s.XLabel + `\` + s.YLabel}
	for _, y := range s.Y {
		headers = append(headers, fmt.Sprintf("%.4g", y))
	}
	t := &Table{Title: fmt.Sprintf("%s (%s)", s.Name, s.ZLabel), Headers: headers}
	for i, x := range s.X {
		row := []string{fmt.Sprintf("%.4g", x)}
		for j := range s.Y {
			row = append(row, fmt.Sprintf("%.4f", s.Z[i][j]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Max returns the largest finite Z value (the peak savings of a surface).
func (s *Surface) Max() float64 {
	best := 0.0
	for _, row := range s.Z {
		for _, z := range row {
			if z > best {
				best = z
			}
		}
	}
	return best
}
