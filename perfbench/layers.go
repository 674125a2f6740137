package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ctdvs/internal/pipeline"
)

// perLayer lists the traced run's metrics. Times are milliseconds of self
// time per operation of the traced run (one request on request-* and
// serve-hot, one pass on the sweeps); counts are per operation too, except
// go.gc_cycles, which counts collections over the reference run.
var perLayer = []struct{ name, unit string }{
	{"sim.record_ms", "ms"}, {"sim.validate_ms", "ms"}, {"sim.baseline_ms", "ms"},
	{"sim.graph_ms", "ms"}, {"sim.trace_blocks", "count"},
	{"profile.replay_ms", "ms"}, {"profile.decode_ms", "ms"}, {"profile.encode_ms", "ms"},
	{"profile.fingerprint_ms", "ms"},
	{"core.prepare_ms", "ms"}, {"core.filter_ms", "ms"}, {"core.formulate_ms", "ms"},
	{"core.solve_ms", "ms"}, {"core.graph_ms", "ms"}, {"core.independent_edges", "count"},
	{"milp.nodes", "count"}, {"milp.lp_solves", "count"}, {"milp.analytic_prunes", "count"},
	{"milp.warm_hit_rate", "ratio"}, {"milp.search_ms", "ms"},
	{"lp.pivots", "count"}, {"lp.busy_ms", "ms"},
	{"analytic.continuous_ms", "ms"}, {"analytic.continuous_calls", "count"},
	{"analytic.discrete_ms", "ms"}, {"analytic.discrete_calls", "count"},
	{"pipeline.open_ms", "ms"}, {"pipeline.put_ms", "ms"}, {"pipeline.put_bytes", "bytes"},
	{"pipeline.puts", "count"}, {"pipeline.close_ms", "ms"}, {"pipeline.read_ms", "ms"},
	{"pipeline.read_bytes", "bytes"}, {"pipeline.mem_ms", "ms"},
	{"pipeline.mem_hits", "count"}, {"pipeline.disk_hits", "count"}, {"pipeline.misses", "count"},
	{"pipeline.hit_ratio", "ratio"},
	{"schedfile.fingerprint_ms", "ms"}, {"schedfile.codec_ms", "ms"},
	{"exp.self_ms", "ms"}, {"exp.config_ms", "ms"}, {"exp.codec_ms", "ms"}, {"exp.surfaces_ms", "ms"},
	{"exp.tables_ms", "ms"}, {"exp.deadline_sweep_ms", "ms"}, {"exp.other_ms", "ms"},
	{"serve.decode_ms", "ms"}, {"serve.encode_ms", "ms"}, {"serve.http_ms", "ms"},
	{"serve.coalesced", "count"}, {"serve.rejected", "count"},
	{"go.allocs_per_op", "count"}, {"go.alloc_bytes_per_op", "bytes"}, {"go.gc_cycles", "count"},
	{"trace.coverage", "ratio"}, {"trace.overhead_ms", "ms"},
}

// spanMetric maps span names to the per-layer time metric their self time
// feeds. Every other exp span is exp glue and feeds exp.self_ms; an
// operation root's self time feeds none (see untraced).
var spanMetric = map[string]string{
	"sim.record": "sim.record_ms", "sim.validate": "sim.validate_ms",
	"sim.baseline": "sim.baseline_ms", "sim.graph": "sim.graph_ms",
	"profile.replay": "profile.replay_ms", "profile.decode": "profile.decode_ms",
	"profile.encode": "profile.encode_ms", "profile.fingerprint": "profile.fingerprint_ms",
	"core.prepare": "core.prepare_ms", "core.filter": "core.filter_ms",
	"core.formulate": "core.formulate_ms", "core.solve": "core.solve_ms", "core.graph": "core.graph_ms",
	"analytic.continuous": "analytic.continuous_ms", "analytic.discrete": "analytic.discrete_ms",
	"pipeline.open": "pipeline.open_ms", "pipeline.put": "pipeline.put_ms",
	"pipeline.close": "pipeline.close_ms", "pipeline.read": "pipeline.read_ms",
	"pipeline.mem":          "pipeline.mem_ms",
	"schedfile.fingerprint": "schedfile.fingerprint_ms", "schedfile.codec": "schedfile.codec_ms",
	"exp.config": "exp.config_ms", "exp.spec": "exp.config_ms",
	"exp.codec": "exp.codec_ms", "exp.surfaces": "exp.surfaces_ms", "exp.tables": "exp.tables_ms",
	"exp.deadline_sweep": "exp.deadline_sweep_ms", "exp.other": "exp.other_ms",
	"serve.decode": "serve.decode_ms", "serve.encode": "serve.encode_ms",
}

// manifestCounts sums pipeline hit/miss accounting over runners.
type manifestCounts struct{ mem, disk, miss int64 }

func (m *manifestCounts) add(man *pipeline.Manifest) {
	for _, s := range man.Stats() {
		m.mem += int64(s.MemHits)
		m.disk += int64(s.DiskHits)
		m.miss += int64(s.Misses)
	}
}

// layerReport turns a traced run into the per-layer metrics: span self
// times and work counts per operation, plus how well the spans cover the
// traced time. extra adds time no span covers to a layer (serve's HTTP
// share) for the printed shares.
func layerReport(w io.Writer, spans []Span, n *counters, man manifestCounts, ops int, extra map[string]time.Duration) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = 0
	}
	ts := summarize(spans)
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / float64(ops) }
	for name, d := range ts.selfByName {
		if m, ok := spanMetric[name]; ok {
			out[m] += per(d)
		} else if layerOf(name) == "exp" {
			out["exp.self_ms"] += per(d)
		}
	}
	f := func(x int64) float64 { return float64(x) / float64(ops) }
	out["sim.trace_blocks"] = f(n.traceBlocks)
	out["core.independent_edges"] = f(n.independentEdges)
	out["milp.nodes"] = f(n.nodes)
	out["milp.lp_solves"] = f(n.lpSolves)
	out["milp.analytic_prunes"] = f(n.prunes)
	if total := n.warmSolves + n.coldSolves + n.fallbacks; total > 0 {
		out["milp.warm_hit_rate"] = float64(n.warmSolves) / float64(total)
	}
	out["milp.search_ms"] = per(n.searchTime)
	out["lp.pivots"] = f(n.pivots)
	out["lp.busy_ms"] = per(n.lpTime)
	out["analytic.continuous_calls"] = f(n.continuousCalls)
	out["analytic.discrete_calls"] = f(n.discreteCalls)
	out["pipeline.puts"] = f(n.puts)
	out["pipeline.put_bytes"] = f(n.putBytes)
	out["pipeline.read_bytes"] = f(n.readBytes)
	out["pipeline.mem_hits"] = f(man.mem)
	out["pipeline.disk_hits"] = f(man.disk)
	out["pipeline.misses"] = f(man.miss)
	if total := man.mem + man.disk + man.miss; total > 0 {
		out["pipeline.hit_ratio"] = float64(man.mem+man.disk) / float64(total)
	}
	out["trace.coverage"] = ts.coverage()
	for l, d := range extra {
		ts.selfByLayer[l] += d
		ts.rootTotal += d
	}
	fmt.Fprintf(w, "layer shares of %.1f ms traced (%.2f%% covered by layer spans): %s\n",
		float64(ts.rootTotal.Nanoseconds())/1e6, 100*out["trace.coverage"], shares(ts.selfByLayer, ts.rootTotal))
	if ops > 1 && len(extra) == 0 {
		fmt.Fprintf(w, "median per-operation layer shares: %s\n", medianShares(spans))
	}
	return out
}

// shares formats each layer's share of total, largest first.
func shares(byLayer map[string]time.Duration, total time.Duration) string {
	type share struct {
		layer string
		x     float64
	}
	var ss []share
	for l, d := range byLayer {
		ss = append(ss, share{l, float64(d) / float64(total)})
	}
	sort.Slice(ss, func(a, b int) bool { return ss[a].x > ss[b].x })
	var parts []string
	for _, s := range ss {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", s.layer, 100*s.x))
	}
	return strings.Join(parts, ", ")
}

// medianShares is each layer's median share of an operation's traced time,
// so one heavy operation does not speak for the rest.
func medianShares(spans []Span) string {
	self := selfTimes(spans)
	type opTimes struct {
		root    time.Duration
		byLayer map[string]time.Duration
	}
	ops := map[int64]*opTimes{}
	layers := map[string]bool{}
	for i, s := range spans {
		o := ops[s.Op]
		if o == nil {
			o = &opTimes{byLayer: map[string]time.Duration{}}
			ops[s.Op] = o
		}
		if s.Parent < 0 {
			o.root += s.End - s.Start
		}
		o.byLayer[bucketOf(s)] += self[i]
		layers[bucketOf(s)] = true
	}
	med := map[string]time.Duration{}
	for l := range layers {
		var xs []float64
		for _, o := range ops {
			if o.root > 0 {
				xs = append(xs, float64(o.byLayer[l])/float64(o.root))
			}
		}
		med[l] = time.Duration(median(xs) * 1e9)
	}
	return shares(med, time.Second)
}

// tracedFlow carries the traced request run: spans, counters and manifest
// totals of the halves the workload times. The other halves run the same
// composed flow without spans.
type tracedFlow struct {
	timedWarm bool
	op        int64
	t         *Tracer
	n         *counters
	man       manifestCounts
}

func (tf *tracedFlow) begin(warm bool) sp {
	if warm != tf.timedWarm {
		return sp{}
	}
	tf.op++
	if warm {
		return tf.t.root(tf.op, "op.warm")
	}
	return tf.t.root(tf.op, "op.cold")
}

func (tf *tracedFlow) counters(warm bool) *counters {
	if warm == tf.timedWarm {
		return tf.n
	}
	return &counters{}
}

func (tf *tracedFlow) pipelineStats(warm bool, man *pipeline.Manifest) {
	if warm == tf.timedWarm {
		tf.man.add(man)
	}
}

// traceRequest is the traced run of the request workloads: the seed's first
// round of requests, once through exp's calls (the reference, which also
// gives the allocation counts) and once composed and traced. The answers
// must match. A fixed round makes the work counts repeat exactly.
func traceRequest(e *env, st *requestState, warmTimed bool) (*outcome, error) {
	reqs := st.gen.nextRound()
	timed := func(h *halves) (ms float64, mallocs, bytes uint64) {
		if warmTimed {
			return h.warmMS[0], h.warmMallocs, h.warmBytes
		}
		return h.coldMS, h.coldMallocs, h.coldBytes
	}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	ref := runRound(e, reqs, 1, warmTimed, nil, true)
	runtime.ReadMemStats(&gc1)
	var refMS, trMS float64
	var mallocs, bytes uint64
	for _, h := range ref {
		if h.err != nil {
			return nil, h.err
		}
		ms, m, b := timed(h)
		refMS += ms
		mallocs += m
		bytes += b
	}

	oc := &outcome{}
	tf := &tracedFlow{timedWarm: warmTimed, t: newTracer(), n: &counters{}}
	for i, h := range runRound(e, reqs, 1, warmTimed, tf, false) {
		r := reqs[i]
		oc.attempted++
		err := checkOp(e, r, h)
		if err == nil && (!same(h.cold, ref[i].cold) || !same(h.warm[0], ref[i].warm[0])) {
			err = fmt.Errorf("%s: traced answer %+v differs from untraced %+v", r.key(), h.cold, ref[i].cold)
		}
		if err != nil {
			oc.fail("%v", err)
			continue
		}
		ms, _, _ := timed(h)
		trMS += ms
	}
	n := float64(len(reqs))
	oc.layers = layerReport(e.out, tf.t.Spans(), tf.n, tf.man, len(reqs), nil)
	oc.layers["go.allocs_per_op"] = float64(mallocs) / n
	oc.layers["go.alloc_bytes_per_op"] = float64(bytes) / n
	oc.layers["go.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	oc.layers["trace.overhead_ms"] = (trMS - refMS) / n
	fmt.Fprintf(e.out, "traced %d requests: %.3f ms/request untraced, %.3f ms/request traced\n",
		len(reqs), refMS/n, trMS/n)
	return oc, writeSpans(e, tf.t)
}

// writeSpans dumps the traced run's spans next to the scratch directory,
// under .bench_build/perfbench, named by workload and seed.
func writeSpans(e *env, t *Tracer) error {
	path := filepath.Join(filepath.Dir(e.work), fmt.Sprintf("spans-%s-%d.jsonl", e.name, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "spans written to %s\n", path)
	return nil
}
