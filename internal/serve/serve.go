// Package serve exposes the DVS optimization pipeline as an HTTP/JSON
// service. One Server owns one exp.Config (and through it one artifact
// store), so every request — whichever client sent it — shares the same
// content-addressed cache dvs-opt and dvs-bench use offline.
//
// Three mechanisms keep a burst of traffic from melting the solver:
//
//   - Single-flight: identical in-flight requests coalesce onto one
//     execution keyed by the canonical request (and, one layer down, the
//     pipeline deduplicates per-artifact, so even *different* requests that
//     share a profile collect it once). A thundering herd of N identical
//     requests costs one simulation and one solve.
//   - Backpressure: at most Workers optimizations run concurrently, at most
//     QueueDepth more wait. Beyond that the server answers 429 with a
//     Retry-After hint instead of accepting unbounded work.
//   - Cancellation: a disconnected client or an expired request timeout
//     propagates through context into the pipeline, aborting queued waits,
//     simulations at stage boundaries, and the branch-and-bound search
//     between rounds — unless another live request still wants the result.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ctdvs/internal/core"
	"ctdvs/internal/exp"
	"ctdvs/internal/milp"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/schedfile"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// ErrBusy reports that the request was rejected because the worker pool and
// the queue are both full. HTTP maps it to 429 Too Many Requests.
var ErrBusy = errors.New("serve: server is at capacity")

// Options configures a Server. The zero value is usable: defaults are
// applied by New.
type Options struct {
	// Workers bounds concurrent optimizations (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker (default 16); beyond
	// Workers+QueueDepth admitted requests, new work is rejected with ErrBusy.
	QueueDepth int
	// SolveLimit is the MILP time limit. It participates in solve cache keys,
	// so it must match the dvs-opt -solve-limit used against the same store
	// for artifacts to be shared (default 2m, dvs-opt's default). Per-request
	// deadlines never change it — they cancel via context instead.
	SolveLimit time.Duration
	// SolveWorkers is the branch-and-bound parallelism per solve (default 0:
	// the solver's own default). Also part of solve cache keys.
	SolveWorkers int
	// RequestTimeout bounds each request's wall time (default 0: none). A
	// request's timeout_ms field overrides it.
	RequestTimeout time.Duration
	// RetryAfter is the hint sent with 429/503 responses (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// StoreBudgetBytes, when positive and the configuration has a disk
	// store, bounds the store's size: a background pass runs Store.Compact
	// to this budget every CompactInterval, evicting least-recently-used
	// artifacts (by file mtime, which every disk hit refreshes). Evictions
	// are visible in /statsz store gauges. Default 0: no compaction.
	StoreBudgetBytes int64
	// CompactInterval is the cadence of the compaction pass (default 1m).
	CompactInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.SolveLimit <= 0 {
		o.SolveLimit = 2 * time.Minute
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.CompactInterval <= 0 {
		o.CompactInterval = time.Minute
	}
	return o
}

// flight is one in-flight request execution shared by every concurrent
// request with the same canonical key. Its lifecycle mirrors the pipeline's
// singleflight slot: the execution runs under a private context cancelled
// only when every waiter is gone, and the flight is removed from the table
// as soon as it finishes (responses are not cached here — artifact reuse is
// the pipeline store's job, and it keeps hit/miss accounting honest).
type flight struct {
	done chan struct{}

	resp *Response
	err  error

	waiters  int // guarded by Server.mu
	cancel   context.CancelFunc
	finished bool // guarded by Server.mu
}

// Server runs optimization requests against one experiment configuration.
// Create with New; serve its Handler; call Drain before process exit.
type Server struct {
	cfg   *exp.Config
	opts  Options
	start time.Time

	// queue admits up to Workers+QueueDepth request executions; active
	// releases up to Workers of them into the pipeline. Channel lengths
	// double as the /statsz occupancy gauges.
	queue  chan struct{}
	active chan struct{}

	mu      sync.Mutex
	flights map[string]*flight

	draining atomic.Bool
	inflight sync.WaitGroup

	// compactStop ends the background store-compaction loop; closed once by
	// Drain via stopCompact. compactDone lets Drain wait for the loop to
	// exit, so no compaction runs after Drain returns.
	compactStop chan struct{}
	stopCompact sync.Once
	compactDone sync.WaitGroup

	stats stats

	// testHook, when set (tests only, before any request), runs inside
	// execute after worker admission — it lets tests hold a worker busy or
	// observe the execution context deterministically.
	testHook func(context.Context, *Request)
}

// New returns a server over cfg. The caller keeps ownership of cfg (and of
// closing its manifest/store); the server only runs work through it.
func New(cfg *exp.Config, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		cfg:         cfg,
		opts:        opts,
		start:       time.Now(),
		queue:       make(chan struct{}, opts.Workers+opts.QueueDepth),
		active:      make(chan struct{}, opts.Workers),
		flights:     make(map[string]*flight),
		compactStop: make(chan struct{}),
	}
	if opts.StoreBudgetBytes > 0 && s.store() != nil {
		s.compactDone.Add(1)
		go s.compactLoop()
	}
	return s
}

// store returns the configuration's disk store, nil when memory-only.
func (s *Server) store() *pipeline.Store {
	if s.cfg.Pipeline == nil {
		return nil
	}
	return s.cfg.Pipeline.Store()
}

// compactLoop is the fleet-cache GC: every CompactInterval it compacts the
// store to StoreBudgetBytes. Compaction is unlink-based and safe under
// concurrent readers (see pipeline.Store.Compact), so it needs no
// coordination with in-flight requests; Drain stops the loop.
func (s *Server) compactLoop() {
	defer s.compactDone.Done()
	t := time.NewTicker(s.opts.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-s.compactStop:
			return
		case <-t.C:
			if store := s.store(); store != nil {
				_, _ = store.Compact(s.opts.StoreBudgetBytes)
			}
		}
	}
}

// Handler returns the server's HTTP mux:
//
//	POST /optimize  — run (or coalesce onto, or load from cache) one request
//	GET  /healthz   — 200 "ok" while serving, 503 while draining
//	GET  /statsz    — counters, queue occupancy, latency percentiles, cache stats
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/optimize", s.handleOptimize)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	return mux
}

// Drain stops admitting new optimization requests (they get 503) and the
// background compaction loop, and blocks until every in-flight execution and
// the loop have finished. Call it on SIGTERM before http.Server.Shutdown so
// responses still reach their clients.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.stopCompact.Do(func() { close(s.compactStop) })
	s.compactDone.Wait()
	s.inflight.Wait()
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.draining.Load() {
		s.stats.rejected.Add(1)
		s.retryAfter(w)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	req, err := DecodeRequest(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		s.stats.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Workload existence is a client error, caught before any queueing.
	if req.Graph != nil {
		if err := s.checkGraphWorkloads(req.Graph); err != nil {
			s.stats.badRequests.Add(1)
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	} else {
		spec, err := s.cfg.Spec(req.Bench)
		if err != nil {
			s.stats.badRequests.Add(1)
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if req.Input >= len(spec.Inputs) {
			s.stats.badRequests.Add(1)
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("%s has %d inputs, no input %d", req.Bench, len(spec.Inputs), req.Input))
			return
		}
	}
	s.stats.requests.Add(1)

	ctx := r.Context()
	timeout := s.opts.RequestTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	start := time.Now()
	resp, err := s.do(ctx, req)
	elapsedMS := float64(time.Since(start).Microseconds()) / 1e3

	switch {
	case err == nil:
		s.stats.completed.Add(1)
		if resp.Infeasible {
			s.stats.infeasible.Add(1)
		}
		s.stats.latency.add(elapsedMS)
		// Coalesced requests share one *Response; give each its own elapsed.
		out := *resp
		out.ElapsedMS = elapsedMS
		writeJSON(w, http.StatusOK, &out)
	case errors.Is(err, ErrBusy):
		s.stats.rejected.Add(1)
		s.retryAfter(w)
		writeError(w, http.StatusTooManyRequests, ErrBusy.Error())
	case isCtxErr(err):
		s.stats.cancelled.Add(1)
		if r.Context().Err() != nil {
			// The client is gone; there is nobody to answer.
			return
		}
		writeError(w, http.StatusGatewayTimeout, "request timed out")
	default:
		s.stats.failed.Add(1)
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// do coalesces identical requests onto one execution. Like pipeline.RunCtx,
// it retries when it inherits another caller's cancellation: the dead flight
// is guaranteed gone from the table, so the retry starts (or joins) a live
// one.
func (s *Server) do(ctx context.Context, req *Request) (*Response, error) {
	for {
		resp, err := s.doOnce(ctx, req)
		if isCtxErr(err) && ctx.Err() == nil {
			continue
		}
		return resp, err
	}
}

func (s *Server) doOnce(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := req.key()

	s.mu.Lock()
	f, ok := s.flights[key]
	leader := false
	if !ok {
		fctx, cancel := context.WithCancel(context.Background())
		f = &flight{done: make(chan struct{}), cancel: cancel}
		s.flights[key] = f
		leader = true
		s.inflight.Add(1)
		go func() {
			defer s.inflight.Done()
			resp, err := s.execute(fctx, req)
			s.mu.Lock()
			f.resp, f.err, f.finished = resp, err, true
			delete(s.flights, key)
			s.mu.Unlock()
			cancel()
			close(f.done)
		}()
	}
	f.waiters++
	s.mu.Unlock()

	select {
	case <-f.done:
		if !leader {
			s.stats.coalesced.Add(1)
		}
		return f.resp, f.err
	case <-ctx.Done():
		s.mu.Lock()
		f.waiters--
		if f.waiters == 0 && !f.finished {
			f.cancel()
		}
		s.mu.Unlock()
		return nil, ctx.Err()
	}
}

// execute admits one request through the queue and worker gates, then runs
// the dvs-opt flow under ctx. Admission is non-blocking: a full queue is an
// immediate ErrBusy, never a hidden wait.
func (s *Server) execute(ctx context.Context, req *Request) (*Response, error) {
	select {
	case s.queue <- struct{}{}:
		defer func() { <-s.queue }()
	default:
		return nil, ErrBusy
	}
	select {
	case s.active <- struct{}{}:
		defer func() { <-s.active }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if s.testHook != nil {
		s.testHook(ctx, req)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.optimize(ctx, req)
}

// optimize mirrors cmd/dvs-opt exactly — same profile, deadline resolution,
// regulator, options and measurement — so a served response is built from
// the same artifacts the CLI reads and writes.
func (s *Server) optimize(ctx context.Context, req *Request) (*Response, error) {
	if req.Graph != nil {
		return s.optimizeGraph(ctx, req)
	}
	spec, err := s.cfg.Spec(req.Bench)
	if err != nil {
		return nil, err
	}
	pr, err := s.cfg.ProfileCtx(ctx, req.Bench, req.Input, req.Levels)
	if err != nil {
		return nil, err
	}

	dl := req.DeadlineUS
	if dl == 0 {
		n := pr.Modes.Len()
		dl = spec.Deadline(req.Deadline, pr.TotalTimeUS[n-1], pr.TotalTimeUS[0])
	}

	reg := volt.DefaultRegulator().WithCapacitance(req.CapacitanceF)
	opts := &core.Options{
		Regulator:         reg,
		NoTransitionCosts: req.NoTransitionCosts,
		BlockBased:        req.BlockBased,
		MILP:              &milp.Options{TimeLimit: s.opts.SolveLimit, Workers: s.opts.SolveWorkers},
	}
	if req.NoFilter {
		opts.FilterTail = -1
	}

	resp := &Response{
		Bench:      spec.Name,
		Input:      spec.Inputs[req.Input].Name,
		Levels:     req.Levels,
		DeadlineUS: dl,
	}

	res, err := s.cfg.OptimizeSingleCtx(ctx, pr, dl, opts)
	if errors.Is(err, core.ErrInfeasible) {
		resp.Infeasible = true
		return resp, nil
	}
	if err != nil {
		return nil, err
	}

	resp.PredictedEnergyUJ = res.PredictedEnergyUJ
	resp.PredictedTimeUS = res.PredictedTimeUS[0]
	resp.IndependentEdges = res.IndependentEdges
	resp.TotalEdges = res.TotalEdges
	resp.Solver = solverStats(res.Solver)
	s.stats.analyticPrunes.Add(int64(res.Solver.AnalyticPrunes))

	if req.IncludeSchedule {
		f, err := schedfile.New(spec.Name, res.Schedule)
		if err != nil {
			return nil, err
		}
		resp.Schedule = f
	}

	if !req.SkipMeasure {
		ev, err := s.cfg.MeasureCtx(ctx, pr, res.Schedule, dl)
		if err != nil {
			return nil, err
		}
		resp.Measured = &Measured{Run: ev.Run, MeetsDeadline: ev.MeetsDeadline, SlackUS: ev.SlackUS}
		if mode, baseE, ok := pr.BestSingleMode(dl); ok {
			sv, err := s.cfg.SavingsCtx(ctx, pr, res.Schedule, dl, reg)
			if err != nil {
				return nil, err
			}
			resp.Baseline = &Baseline{
				Mode:     pr.Modes.Mode(mode).String(),
				EnergyUJ: baseE,
				Savings:  sv,
			}
		}
	}
	return resp, nil
}

// checkGraphWorkloads rejects graph requests naming unknown corpus graphs,
// unknown benchmarks or out-of-range inputs before they consume a queue slot.
func (s *Server) checkGraphWorkloads(g *GraphRequest) error {
	if g.Name != "" {
		if _, ok := workloads.Graph(g.Name); !ok {
			return fmt.Errorf("unknown task graph %q", g.Name)
		}
		return nil
	}
	for i, task := range g.Tasks {
		spec, err := s.cfg.Spec(task.Bench)
		if err != nil {
			return fmt.Errorf("graph task %d: %w", i, err)
		}
		if task.Input >= len(spec.Inputs) {
			return fmt.Errorf("graph task %d: %s has %d inputs, no input %d",
				i, task.Bench, len(spec.Inputs), task.Input)
		}
	}
	return nil
}

// graphSpec resolves the request's graph selector to a workload spec: the
// corpus graph by name, or an inline spec built from the request body.
func (s *Server) graphSpec(req *Request) (*workloads.GraphSpec, error) {
	g := req.Graph
	if g.Name != "" {
		gs, ok := workloads.Graph(g.Name)
		if !ok {
			return nil, fmt.Errorf("unknown task graph %q", g.Name)
		}
		return gs, nil
	}
	gs := &workloads.GraphSpec{
		Name:         "inline",
		Cores:        g.Cores,
		DeadlineFrac: g.DeadlineFrac,
		Tasks:        make([]workloads.TaskRef, len(g.Tasks)),
		Edges:        g.Edges,
	}
	for i, task := range g.Tasks {
		gs.Tasks[i] = workloads.TaskRef{
			Bench:      task.Bench,
			Input:      task.Input,
			ReleaseUS:  task.ReleaseUS,
			DeadlineUS: task.DeadlineUS,
		}
	}
	return gs, nil
}

// optimizeGraph mirrors the exp task-graph flow: build the workload, solve the
// per-core placement and mode assignment, then (unless skip_measure) execute
// the static schedule and the slack-reclaiming governed schedule, whose
// timelines are planned from the task profiles. Every stage runs through the
// same artifact store the single-program path uses — the degenerate
// 1-task/1-core graph resolves from single-program artifacts.
func (s *Server) optimizeGraph(ctx context.Context, req *Request) (*Response, error) {
	gs, err := s.graphSpec(req)
	if err != nil {
		return nil, err
	}
	gw, err := s.cfg.BuildGraphCtx(ctx, gs, req.Levels, req.DeadlineUS)
	if err != nil {
		return nil, err
	}

	reg := volt.DefaultRegulator().WithCapacitance(req.CapacitanceF)
	opts := &core.Options{
		Regulator:         reg,
		NoTransitionCosts: req.NoTransitionCosts,
		MILP:              &milp.Options{TimeLimit: s.opts.SolveLimit, Workers: s.opts.SolveWorkers},
	}

	names := make([]string, len(gw.Graph.Tasks))
	for t, task := range gw.Graph.Tasks {
		names[t] = task.Name
	}
	gresp := &GraphResponse{
		Name:       gs.Name,
		Cores:      gw.Cores,
		Tasks:      names,
		DeadlineUS: gw.DeadlineUS,
	}
	resp := &Response{
		Levels:     req.Levels,
		DeadlineUS: gw.DeadlineUS,
		Graph:      gresp,
	}

	res, err := s.cfg.OptimizeGraphCtx(ctx, gw, opts)
	if errors.Is(err, core.ErrInfeasible) {
		resp.Infeasible = true
		return resp, nil
	}
	if err != nil {
		return nil, err
	}

	gresp.Degenerate = res.Degenerate
	gresp.Placement = res.Schedule.Placement
	gresp.Order = res.Schedule.Order
	gresp.PredictedEnergyUJ = res.PredictedEnergyUJ
	gresp.PredictedMakespanUS = res.PredictedMakespanUS
	modes := make([]string, len(res.Schedule.Placement))
	for t, pl := range res.Schedule.Placement {
		modes[t] = res.Schedule.Modes.Mode(pl.Mode).String()
	}
	gresp.Modes = modes
	resp.Solver = solverStats(res.Solver)
	s.stats.analyticPrunes.Add(int64(res.Solver.AnalyticPrunes))

	if !req.SkipMeasure {
		static, err := s.cfg.SimulateGraphCtx(ctx, gw, res.Schedule)
		if err != nil {
			return nil, err
		}
		gresp.Static = graphMeasured(static, gw.DeadlineUS)
		// The governor runs over coarse task-grained schedules; the degenerate
		// path's intra-task schedule is already slack-optimal per the MILP.
		if !res.Degenerate {
			governed, _, _, err := s.cfg.ReclaimGraph(gw, res.Schedule)
			if err != nil {
				return nil, err
			}
			grun, err := s.cfg.SimulateGraphCtx(ctx, gw, governed)
			if err != nil {
				return nil, err
			}
			gresp.Governed = graphMeasured(grun, gw.DeadlineUS)
		}
	}
	return resp, nil
}

func graphMeasured(run exp.GraphRunSummary, deadlineUS float64) *GraphMeasured {
	return &GraphMeasured{Run: run, MeetsDeadline: run.MeetsDeadline(deadlineUS), SlackUS: deadlineUS - run.MakespanUS}
}

// solverStats is the response's view of a solve's statistics.
func solverStats(r *milp.Result) *SolverStats {
	return &SolverStats{
		Status:         r.Status.String(),
		Nodes:          r.Nodes,
		LPIters:        r.LPIters,
		SolveTimeNS:    r.SolveTime.Nanoseconds(),
		WarmSolves:     r.WarmSolves,
		ColdSolves:     r.ColdSolves,
		WarmFallbacks:  r.WarmFallbacks,
		LPPivots:       r.LPPivots,
		AnalyticPrunes: r.AnalyticPrunes,
		ObjectiveUJ:    r.Objective,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the server's counters and gauges.
func (s *Server) Stats() *Stats {
	admitted, active := len(s.queue), len(s.active)
	queued := admitted - active
	if queued < 0 {
		queued = 0 // the two gauges are read racily; never report negative
	}
	st := &Stats{
		UptimeS:        time.Since(s.start).Seconds(),
		Requests:       s.stats.requests.Load(),
		Completed:      s.stats.completed.Load(),
		Infeasible:     s.stats.infeasible.Load(),
		BadRequests:    s.stats.badRequests.Load(),
		Rejected:       s.stats.rejected.Load(),
		Cancelled:      s.stats.cancelled.Load(),
		Failed:         s.stats.failed.Load(),
		Coalesced:      s.stats.coalesced.Load(),
		AnalyticPrunes: s.stats.analyticPrunes.Load(),
		Workers:        s.opts.Workers,
		QueueDepth:     s.opts.QueueDepth,
		Active:         active,
		Queued:         queued,
		Draining:       s.draining.Load(),
		Latency:        s.stats.latency.snapshot(),
	}
	if s.cfg.Pipeline != nil {
		st.Cache = s.cfg.Pipeline.Manifest().Stats()
		if store := s.cfg.Pipeline.Store(); store != nil {
			ss := &StoreStats{
				Dir:         store.Dir(),
				BudgetBytes: s.opts.StoreBudgetBytes,
				Evictions:   store.Evictions(),
			}
			if ds, err := store.DiskStats(); err == nil {
				ss.TotalArtifacts = ds.TotalArtifacts
				ss.TotalBytes = ds.TotalBytes
				ss.Kinds = ds.Kinds
			}
			st.Store = ss
		}
	}
	return st
}

func (s *Server) retryAfter(w http.ResponseWriter) {
	secs := int(s.opts.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}
