// Package cli holds the flag and pipeline wiring shared by the dvs-*
// commands: every binary gets -cache-dir/-no-cache/-manifest and the pprof
// flags, and the optimizing ones add -scale and the MILP budget flags. The
// point is that all six tools draw from one artifact store — a schedule
// solved by dvs-opt is a cache hit for dvs-bench, and a run validated by
// dvs-bench is a cache hit for dvs-sim.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ctdvs/internal/exp"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/workloads"
)

// App carries the shared command state: parsed common flags and the pipeline
// runner they imply.
type App struct {
	// Name prefixes error messages ("dvs-opt: ...").
	Name string

	// Scale is the workload scale factor; registered by ScaleFlag, 1.0
	// otherwise.
	Scale float64
	// CacheDir, NoCache and Manifest are the cache flags every command
	// registers.
	CacheDir string
	NoCache  bool
	Manifest string

	// SolveLimit and Workers are registered by SolveFlags.
	SolveLimit time.Duration
	Workers    int

	// CPUProfile and MemProfile are the pprof output paths every command
	// registers; empty disables the profile.
	CPUProfile string
	MemProfile string

	runner  *pipeline.Runner
	cpuProf *os.File
}

// New returns an App and registers the cache flags. Call the optional
// ScaleFlag/SolveFlags next, then Parse.
func New(name string) *App {
	a := &App{Name: name, Scale: 1.0}
	flag.StringVar(&a.CacheDir, "cache-dir", "",
		"artifact cache directory: repeated runs with the same configuration skip profiling and MILP solves (empty = in-memory only)")
	flag.BoolVar(&a.NoCache, "no-cache", false,
		"ignore -cache-dir and recompute everything (artifacts stay in memory for this run)")
	flag.StringVar(&a.Manifest, "manifest", "",
		"write a JSON run manifest (per-stage cache hits, misses and timings) to this file")
	flag.StringVar(&a.CPUProfile, "cpuprofile", "",
		"write a pprof CPU profile of the whole run to this file")
	flag.StringVar(&a.MemProfile, "memprofile", "",
		"write a pprof heap profile (taken at exit) to this file")
	return a
}

// ScaleFlag registers -scale.
func (a *App) ScaleFlag() {
	flag.Float64Var(&a.Scale, "scale", 1.0, "workload scale factor (1.0 = paper-comparable)")
}

// SolveFlags registers the MILP budget flags.
func (a *App) SolveFlags() {
	flag.DurationVar(&a.SolveLimit, "solve-limit", 2*time.Minute, "time limit per MILP solve")
	flag.IntVar(&a.Workers, "workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
}

// Parse parses the command line, rejects a -scale that is not a finite
// positive number, and starts CPU profiling if -cpuprofile was given; the
// profile runs until Close.
func (a *App) Parse() {
	flag.Parse()
	if err := workloads.CheckScale(a.Scale); err != nil {
		a.Die(err)
	}
	if a.CPUProfile != "" {
		f, err := os.Create(a.CPUProfile)
		if err != nil {
			a.Die(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			a.Die(err)
		}
		a.cpuProf = f
	}
}

// Runner returns the pipeline runner implied by the cache flags: disk-backed
// when -cache-dir is set and -no-cache is not, memory-only otherwise. Every
// disk store is set up the same way: binary artifacts, zero-copy mapped reads
// where the platform has mmap, and writes coalesced into per-shard batches
// that Close flushes.
func (a *App) Runner() *pipeline.Runner {
	if a.runner == nil {
		var store *pipeline.Store
		if a.CacheDir != "" && !a.NoCache {
			s, err := pipeline.Open(a.CacheDir)
			if err != nil {
				a.Die(err)
			}
			s.EnableWriteBatching(pipeline.BatchConfig{})
			store = s
		}
		a.runner = pipeline.NewRunner(store)
	}
	return a.runner
}

// Config returns an experiment configuration at the app's scale, wired to the
// app's pipeline runner. Solver budget and fan-out remain per-command.
func (a *App) Config() *exp.Config {
	c := exp.NewConfig(a.Scale)
	c.Pipeline = a.Runner()
	return c
}

// Close finishes the run's bookkeeping: it flushes batched store writes,
// stops the CPU profile, writes the heap profile, and writes the run
// manifest, each only if the corresponding flag was given. Call it once,
// after the command's work is done.
func (a *App) Close() {
	if a.runner != nil {
		if store := a.runner.Store(); store != nil {
			if err := store.Close(); err != nil {
				a.Die(err)
			}
		}
	}
	if a.cpuProf != nil {
		pprof.StopCPUProfile()
		if err := a.cpuProf.Close(); err != nil {
			a.Die(err)
		}
		a.cpuProf = nil
	}
	if a.MemProfile != "" {
		f, err := os.Create(a.MemProfile)
		if err != nil {
			a.Die(err)
		}
		runtime.GC() // settle the heap so the profile reflects live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			a.Die(err)
		}
		if err := f.Close(); err != nil {
			a.Die(err)
		}
	}
	if a.Manifest == "" {
		return
	}
	if err := a.Runner().Manifest().WriteFile(a.Manifest); err != nil {
		a.Die(err)
	}
}

// Die prints the error with the command prefix and exits nonzero.
func (a *App) Die(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", a.Name, err)
	os.Exit(1)
}

// Dief is Die with Printf formatting.
func (a *App) Dief(format string, args ...interface{}) {
	a.Die(fmt.Errorf(format, args...))
}
