// Command perfbench is the repository's end-to-end benchmark. It drives the
// paths users run — the dvs-opt request flow on a cold and on a warm
// artifact store, hot POST /optimize serving, the MILP deadline sweep and the
// paper sweep — in-process through the packages' public functions, checks
// every answer, and prints one JSON result line.
//
// Usage (from the repository root, via run.sh, which builds it):
//
//	bash perfbench/run.sh --workload request-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs a
// fixed amount of work twice with the same seed — once through the opaque
// calls, once with each opaque call replaced by the public calls of the
// layers beneath it, each under a span — and reports per-layer metrics; the
// two runs' answers must be equal. --record-expected regenerates the
// expected-answer file the checks compare against.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload gets: the seed, the time budget, whether this
// is the traced run, a scratch directory and the expected answers.
type env struct {
	name    string
	seed    int64
	seconds float64
	traced  bool
	work    string
	want    *expectedFile
	out     io.Writer
	// setup accounts the checked operations the set-ups run (serve-hot's
	// fill requests) over every set-up of the run; they count in the
	// result.
	setup outcome
}

// outcome is what a workload measured. Timed runs fill lat, opsPerS and
// ratios; traced runs fill layers.
type outcome struct {
	attempted, failed int
	lat               latencies
	opsPerS           float64
	ratios            []float64
	layers            map[string]float64
	// windows, on serve-hot, replaces lat: latency statistics per window
	// of the timed phase.
	windows *windowStats
	// failures holds the first few failed checks, for the report.
	failures []string
}

// record accounts one timed operation: a failed one (a refused request, a
// server error, a transport error or a failed check) counts as failed and
// as missing every latency limit.
func (o *outcome) record(ms float64, err error) {
	o.attempted++
	if err != nil {
		o.fail("%v", err)
		o.lat.failed()
		return
	}
	o.lat.ok(ms)
}

// fail records a failed operation or check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload: setup builds what the timed phase
// needs (it runs several times; set-up time is their median), measure runs
// the timed phase or the traced run, and close releases the state.
type workload struct {
	name    string
	opUnit  string
	setup   func(e *env) (state, error)
	measure func(e *env, s state) (*outcome, error)
}

// state is a workload's set-up product.
type state interface{ close() error }

// A run sets its workload up at least minSetups times, and more, up to
// maxSetups, while the set-ups so far have taken under setupBudget in all:
// a cheap set-up's median then rests on more samples.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = time.Second
)

var allWorkloads = []workload{requestCold, requestWarm, serveHot, solveSweep, paperSweep}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := flag.Int64("seed", 1, "workload seed (same seed, same inputs)")
	seconds := flag.Float64("seconds", 15, "measurement time of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced, per-layer run instead of the timed one")
	record := flag.String("record-expected", "", "compute every expected answer and write them to this file, then exit")
	flag.Parse()

	if *record != "" {
		if err := recordExpected(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var res *result
	var err error
	if *name == "all" {
		res, err = runAll(*seed, *seconds, *trace == 1)
	} else if w, ok := findWorkload(*name); ok {
		res, err = run(w, *seed, *seconds, *trace == 1)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, workloadNames())
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(3)
	}
}

// runAll runs every workload in turn and prints each one's result line; the
// combined result keys each metric by workload.
func runAll(seed int64, seconds float64, traced bool) (*result, error) {
	fmt.Println("workloads: " + workloadNames() + " (the dvs-opt request workload is split into its cold and warm halves, so each reports the same metric names)")
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range allWorkloads {
		res, err := run(w, seed, seconds, traced)
		if err != nil {
			return nil, err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		fmt.Printf("result %s: %s\n", w.name, line)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[w.name+"."+k] = m
		}
	}
	return all, nil
}

func workloadNames() string {
	var ns []string
	for _, w := range allWorkloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run sets the workload up several times, measures, and assembles the
// result. The scratch directory lives under .bench_build in the working
// directory and is removed on return.
func run(w workload, seed int64, seconds float64, traced bool) (*result, error) {
	want, err := loadExpected()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{name: w.name, seed: seed, seconds: seconds, traced: traced, work: work, want: want, out: os.Stdout}

	host := hostRecord()
	fmt.Fprintf(e.out, "host: %s\n", host)
	fmt.Fprintf(e.out, "workload %s, seed %d, %s run, started %s\n", w.name, seed,
		map[bool]string{false: "timed", true: "traced"}[traced], time.Now().UTC().Format(time.RFC3339Nano))

	var setups []float64
	var st state
	var spent time.Duration
	for len(setups) < minSetups || len(setups) < maxSetups && spent < setupBudget {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if st, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(e.out, "peak RSS not reset, so it includes the set-ups: %v\n", err)
	}
	oc, err := w.measure(e, st)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	oc.attempted += e.setup.attempted
	oc.failed += e.setup.failed
	oc.failures = append(e.setup.failures, oc.failures...)
	for _, f := range oc.failures {
		fmt.Fprintf(e.out, "FAILED: %s\n", f)
	}

	res := &result{
		Correct:   oc.failed == 0 && oc.attempted > 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: oc.layers[m.name], Unit: m.unit}
		}
		printLayers(e.out, oc.layers)
		return res, nil
	}
	p50, tv, pct, beyond, n := oc.latencyStats()
	rss := peakRSSMB()
	okRatio := 0.0
	if oc.attempted > 0 {
		okRatio = 1 - float64(oc.failed)/float64(oc.attempted)
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["p50_ms"] = metric{finite(p50), "ms"}
	res.Metrics["tail_ms"] = metric{finite(tv), "ms"}
	res.Metrics["ops_per_s"] = metric{oc.opsPerS, "1/s"}
	res.Metrics["energy_ratio_geomean"] = metric{geomean(oc.ratios), "ratio"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	res.Metrics["ok_ratio"] = metric{okRatio, "ratio"}
	fmt.Fprintf(e.out, "set-up: %d runs, median %.4f s, all %v\n", len(setups), median(setups), fmtFloats(setups))
	fmt.Fprintf(e.out, "%s latency: p50 %.4f ms, p%d %.4f ms (%d of %d samples beyond); ops_per_s %.2f\n",
		w.opUnit, p50, pct, tv, beyond, n, oc.opsPerS)
	fmt.Fprintf(e.out, "energy ratio to best single mode: geomean %.6f over %d answers\n", geomean(oc.ratios), len(oc.ratios))
	fmt.Fprintf(e.out, "peak RSS %.1f MB; %d attempted, %d failed\n", rss, oc.attempted, oc.failed)
	return res, nil
}

// latencyStats returns the median and the tail of the operation latencies,
// the tail's percentile, how many samples lie beyond it and the sample
// count. On serve-hot both statistics are taken per window of the timed
// phase and the medians over windows reported, with the counts of one
// window.
func (o *outcome) latencyStats() (p50, tv float64, pct, beyond, n int) {
	if w := o.windows; w != nil {
		return median(w.p50), median(w.tail), w.pct, w.beyond, w.ops
	}
	tv, pct, beyond = tail(o.lat.ms)
	return median(o.lat.ms), tv, pct, beyond, len(o.lat.ms)
}

// finite reports a latency that failed operations made infinite as the
// largest float, which JSON can carry and no limit admits.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// hostRecord describes the machine the numbers were measured on, with the
// absolute start time. Every solve the benchmark asks for leaves the MILP
// worker count at its default, GOMAXPROCS; only the paper sweep's exp
// fan-out narrows its own cells to one worker each.
func hostRecord() string {
	rec := map[string]any{
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"go":           runtime.Version(),
		"cpu":          cpuModel(),
		"milp_workers": runtime.GOMAXPROCS(0),
		"unix_ns":      time.Now().UnixNano(),
	}
	b, _ := json.Marshal(rec) // a map of strings and numbers always marshals
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// resetPeakRSS hands the heap's free pages back to the OS and resets the
// resident-set high-water mark to the current resident set (Linux
// clear_refs 5), so peak_rss_mb is the measured phase's own peak, not the
// set-ups' or an earlier workload's.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// printLayers writes the per-layer metrics, grouped by layer, with each
// layer's share of the traced time.
func printLayers(w io.Writer, layers map[string]float64) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %.6g\n", n, layers[n])
	}
}

var errNoExpected = errors.New("no expected answer recorded")
