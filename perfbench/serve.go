package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ctdvs/internal/pipeline"
	"ctdvs/internal/serve"
)

// serve-hot: two clients on two keep-alive connections send POST /optimize
// to an in-process server built as dvs-serve builds one, over a disk store.
// Set-up sends each of serveDistinct distinct requests once; the timed phase
// draws from them with Zipf popularity, so every lookup is a memory hit and
// nothing is simulated or solved.
//
// The traffic is assumed, not recorded: the repository has no served
// traffic to fit, and cmd/dvs-load has no popularity model. serveDistinct is
// "a few hundred" distinct requests. The popularity is the plain Zipf law
// over ranks 1..n, P(rank k) ∝ k^-zipfS: web request popularity is commonly
// reported as Zipf-like with an exponent near 1, and math/rand's Zipf
// generator needs an exponent above 1, so zipfS is the round value just
// above. The response options (one request in four asks for the schedule,
// one in four skips measurement) are a guess at a mix that exercises both.

var serveHot = workload{name: "serve-hot", opUnit: "request", setup: setupServe, measure: measureServe}

const (
	serveDistinct = 300
	zipfS         = 1.1
	serveClients  = 2
	serveWindows  = 20
	// tracedServe is the traced run's request count per client.
	tracedServe = 400
)

type serveState struct {
	dir     string
	store   *pipeline.Store
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	reqs    []req
	bodies  [][]byte
	clients [serveClients]*http.Client
	// Per client: a reusable response buffer, and the checked answer and
	// answer bytes of each request it has had a correct response to.
	bufs    [serveClients]bytes.Buffer
	checked [serveClients]map[int]checkedResponse
}

// checkedResponse is a response that passed every check: its body without
// elapsed_ms (see answerBytes) and its answer.
type checkedResponse struct {
	body []byte
	a    answer
}

func (s *serveState) close() error {
	s.srv.Drain()
	err := s.hs.Shutdown(context.Background())
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func setupServe(e *env) (state, error) {
	dir, err := os.MkdirTemp(e.work, "serve-")
	if err != nil {
		return nil, err
	}
	store, err := openStore(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	srv := serve.New(newConfig(pipeline.NewRunner(store)), serve.Options{SolveLimit: solveLimit})
	s := &serveState{
		dir: dir, store: store, srv: srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/optimize",
		reqs:   newGenerator(e.seed).distinct(serveDistinct),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	for i := range s.clients {
		s.clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	for _, r := range s.reqs {
		body, err := json.Marshal(serveBody(r))
		if err != nil {
			s.close()
			return nil, err
		}
		s.bodies = append(s.bodies, body)
	}
	// Fill: each client sends its share of the distinct requests once. A
	// failed fill request, in any of the run's set-ups, is a failed
	// operation of the run.
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(s.reqs); i += serveClients {
				_, _, err := s.post(c, i, e)
				mu.Lock()
				e.setup.attempted++
				if err != nil {
					e.setup.fail("fill: %v", err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return s, nil
}

// serveBody is the request's wire form.
func serveBody(r req) *serve.Request {
	q := &serve.Request{
		Levels: r.Levels, CapacitanceF: r.CapF,
		IncludeSchedule: r.IncludeSchedule, SkipMeasure: r.SkipMeasure,
	}
	if r.Graph != "" {
		q.Graph = &serve.GraphRequest{Name: r.Graph}
	} else {
		q.Bench, q.Input, q.Deadline = r.Bench, r.Input, r.Deadline
	}
	return q
}

// post sends request i from client c and checks the answer. It returns the
// round-trip time and the served answer; a non-200 status, a transport
// error or a failed check is an error. A response whose bytes, elapsed_ms
// aside, equal those of a response to the same request that passed every
// check is correct as it stands; any other is decoded and checked. So the
// client decodes each request's response once, not on every round trip,
// and its own work and garbage stay out of the server's way.
func (s *serveState) post(c, i int, e *env) (float64, answer, error) {
	buf := &s.bufs[c]
	buf.Reset()
	t0 := time.Now()
	resp, err := s.clients[c].Post(s.url, "application/json", bytes.NewReader(s.bodies[i]))
	if err != nil {
		return 0, answer{}, err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return ms, answer{}, err
	}
	body := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		return ms, answer{}, fmt.Errorf("%s: status %d: %s", s.reqs[i].key(), resp.StatusCode, bytes.TrimSpace(body))
	}
	ab, stable := answerBytes(body)
	if prev, ok := s.checked[c][i]; ok && stable && bytes.Equal(ab, prev.body) {
		return ms, prev.a, nil
	}
	var out serve.Response
	if err := json.Unmarshal(body, &out); err != nil {
		return ms, answer{}, fmt.Errorf("%s: %w", s.reqs[i].key(), err)
	}
	a := servedAnswer(&out)
	if err := checkServed(e, s.reqs[i], &out); err != nil {
		return ms, a, err
	}
	if stable {
		if s.checked[c] == nil {
			s.checked[c] = map[int]checkedResponse{}
		}
		s.checked[c][i] = checkedResponse{body: bytes.Clone(ab), a: a}
	}
	return ms, a, nil
}

// answerBytes is a response body up to its elapsed_ms field, the server's
// wall time and the one field that differs between responses to one
// request. The encoder writes it last; stable is false when the body does
// not end with it.
func answerBytes(body []byte) (ab []byte, stable bool) {
	const field = `"elapsed_ms":`
	k := bytes.LastIndex(body, []byte(field))
	if k < 0 {
		return nil, false
	}
	rest := bytes.TrimRight(body[k+len(field):], "}\n")
	if _, err := strconv.ParseFloat(string(rest), 64); err != nil {
		return nil, false
	}
	return body[:k], true
}

// servedAnswer reduces a response to the answer the other workloads
// compute.
func servedAnswer(resp *serve.Response) answer {
	a := answer{Infeasible: resp.Infeasible, DeadlineUS: resp.DeadlineUS}
	if g := resp.Graph; g != nil {
		a.PredictedEnergyUJ, a.PredictedTimeUS = g.PredictedEnergyUJ, g.PredictedMakespanUS
		if g.Static != nil {
			a.MeasuredEnergyUJ, a.MeasuredTimeUS = g.Static.Run.EnergyUJ, g.Static.Run.MakespanUS
			a.MeetsDeadline = g.Static.MeetsDeadline
		}
		if g.Governed != nil {
			a.GovernedEnergyUJ = g.Governed.Run.EnergyUJ
		}
		return a
	}
	a.PredictedEnergyUJ, a.PredictedTimeUS = resp.PredictedEnergyUJ, resp.PredictedTimeUS
	if m := resp.Measured; m != nil {
		a.MeasuredEnergyUJ, a.MeasuredTimeUS, a.MeetsDeadline = m.Run.EnergyUJ, m.Run.TimeUS, m.MeetsDeadline
	}
	if b := resp.Baseline; b != nil {
		a.HasBaseline, a.Savings = true, b.Savings
	}
	return a
}

// checkServed compares a served answer with the expected one (only the
// predicted part when the request skipped measurement) and checks that a
// requested schedule came back.
func checkServed(e *env, r req, resp *serve.Response) error {
	want, ok := e.want.Requests[r.key()]
	if !ok {
		return fmt.Errorf("%s: %w", r.key(), errNoExpected)
	}
	if r.SkipMeasure {
		want = answer{Infeasible: want.Infeasible, DeadlineUS: want.DeadlineUS,
			PredictedEnergyUJ: want.PredictedEnergyUJ, PredictedTimeUS: want.PredictedTimeUS}
	}
	if got := servedAnswer(resp); !same(got, want) {
		return fmt.Errorf("%s: served %+v, expected %+v", r.key(), got, want)
	}
	if r.IncludeSchedule && r.Graph == "" && !want.Infeasible && resp.Schedule == nil {
		return fmt.Errorf("%s: schedule asked for but not returned", r.key())
	}
	return nil
}

// zipfOrder is client c's request sequence: Zipf popularity,
// P(rank k) ∝ k^-zipfS for ranks k = 1..n, over the distinct requests in
// their ranked order.
func zipfOrder(seed int64, c, n int) func() int {
	rng := rand.New(rand.NewSource(seed*int64(serveClients) + int64(c)))
	z := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

func measureServe(e *env, st state) (*outcome, error) {
	s := st.(*serveState)
	if e.traced {
		return traceServe(e, s)
	}
	oc := &outcome{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	span := time.Duration(e.seconds * float64(time.Second))
	// The timed phase is cut into windows by completion time. Each
	// statistic is taken per window and the median window's reported, so a
	// short stall on the host does not set the run's figures. The last
	// window also takes the requests still in flight at the deadline; a
	// failed request is +Inf in its window's latencies.
	done := make([]int, serveWindows)
	lat := make([][]float64, serveWindows)
	// The energy ratio is each distinct request's once, not weighted by how
	// often it was served: it describes the answers, not the traffic.
	ratio := map[int]float64{}
	window := span / serveWindows
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := zipfOrder(e.seed, c, len(s.reqs))
			for time.Since(t0) < span {
				i := next()
				ms, a, err := s.post(c, i, e)
				now := time.Since(t0)
				mu.Lock()
				oc.record(ms, err)
				w := min(int(now/window), serveWindows-1)
				lat[w] = append(lat[w], oc.lat.ms[len(oc.lat.ms)-1])
				if err == nil {
					if now < span {
						done[w]++
					}
					if x, ok := a.ratio(); ok {
						ratio[i] = x
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, x := range ratio {
		oc.ratios = append(oc.ratios, x)
	}
	rates := make([]float64, serveWindows)
	p := &windowStats{}
	for w, n := range done {
		rates[w] = float64(n) / window.Seconds()
		if len(lat[w]) > 0 {
			p.add(lat[w])
		}
	}
	oc.windows = p
	oc.opsPerS = median(rates)
	fmt.Fprintf(e.out, "per %.1f s window: requests/s %s; p50 ms %s; p%d ms %s\n", window.Seconds(),
		fmtFloats(rates), fmtFloats(p.p50), p.pct, fmtFloats(p.tail))
	st2 := s.srv.Stats()
	fmt.Fprintf(e.out, "server: %d completed, %d coalesced, %d rejected, %d failed\n",
		st2.Completed, st2.Coalesced, st2.Rejected, st2.Failed)
	return oc, nil
}

// traceServe sends tracedServe requests per client twice: first plainly
// (the reference, with allocation counts), then with each round trip
// followed by the same request through the library in-process — decode,
// the composed optimize flow over the server's own runner, encode — under
// spans. serve.http_ms is the round trip minus that library time.
func traceServe(e *env, s *serveState) (*outcome, error) {
	oc := &outcome{}
	// The library runs get their own runner over the server's store, so the
	// pipeline counts are theirs alone and repeat exactly: the server's
	// lookups depend on how its single-flight coalesces concurrent
	// requests. The composed flow keeps its solve artifacts under its own
	// keys; a first pass fills its memory so the traced requests are memory
	// hits, as the served ones are.
	lib := newConfig(pipeline.NewRunner(s.store))
	comp := newComposer(lib, &counters{})
	for i := range s.reqs {
		if _, err := s.library(context.Background(), sp{}, comp, i); err != nil {
			return nil, err
		}
	}
	man0 := lib.Pipeline.Manifest().Stats()
	stats0 := s.srv.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	refMS, err := s.tracedPhase(e, nil, nil, oc)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	tr := newTracer()
	comp.n = &counters{}
	var httpMS float64
	trMS, err := s.tracedPhase(e, tr, comp, oc, &httpMS)
	if err != nil {
		return nil, err
	}
	stats1 := s.srv.Stats()
	ops := serveClients * tracedServe
	var man manifestCounts
	for k, v := range lib.Pipeline.Manifest().Stats() {
		man.mem += int64(v.MemHits - man0[k].MemHits)
		man.disk += int64(v.DiskHits - man0[k].DiskHits)
		man.miss += int64(v.Misses - man0[k].Misses)
	}
	oc.layers = layerReport(e.out, tr.Spans(), comp.n, man, ops,
		map[string]time.Duration{"serve": time.Duration(httpMS * 1e6)})
	oc.layers["serve.http_ms"] = httpMS / float64(ops)
	oc.layers["serve.coalesced"] = float64(stats1.Coalesced-stats0.Coalesced) / float64(2*ops)
	oc.layers["serve.rejected"] = float64(stats1.Rejected-stats0.Rejected) / float64(2*ops)
	oc.layers["go.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	oc.layers["go.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)
	oc.layers["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	// The library pass is extra work the untraced run does not do; the
	// overhead compares round trips only.
	oc.layers["trace.overhead_ms"] = (trMS - refMS) / float64(ops)
	fmt.Fprintf(e.out, "traced %d requests: round trip %.4f ms untraced, %.4f ms traced; http %.4f ms\n",
		ops, refMS/float64(ops), trMS/float64(ops), httpMS/float64(ops))
	return oc, writeSpans(e, tr)
}

// tracedPhase runs tracedServe requests per client and returns the summed
// round-trip time. With a tracer, every round trip is followed by the
// library run of the same request, whose answer must match, and httpMS[0]
// accumulates round trip minus library time.
func (s *serveState) tracedPhase(e *env, tr *Tracer, comp *composer, oc *outcome, httpMS ...*float64) (float64, error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var rtMS float64
	var op int64
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := zipfOrder(e.seed, c, len(s.reqs))
			for k := 0; k < tracedServe; k++ {
				i := next()
				ms, a, err := s.post(c, i, e)
				var libMS float64
				if err == nil && tr != nil {
					mu.Lock()
					op++
					id := op
					mu.Unlock()
					t0 := time.Now()
					var lib *serve.Response
					lib, err = s.library(context.Background(), tr.root(id, "op.serve"), comp, i)
					libMS = float64(time.Since(t0).Nanoseconds()) / 1e6
					if err == nil && !same(servedAnswer(lib), a) {
						err = fmt.Errorf("%s: library answer differs from served", s.reqs[i].key())
					}
				}
				mu.Lock()
				oc.attempted++
				if err != nil {
					oc.fail("%v", err)
				}
				rtMS += ms
				if len(httpMS) > 0 {
					*httpMS[0] += ms - libMS
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return rtMS, nil
}

// library runs request i the way the server handles it, in-process:
// serve.DecodeRequest, the composed dvs-opt flow, and the response encode.
func (s *serveState) library(ctx context.Context, root sp, comp *composer, i int) (*serve.Response, error) {
	defer root.end()
	d := root.child("serve.decode")
	q, err := serve.DecodeRequest(bytes.NewReader(s.bodies[i]))
	d.end()
	if err != nil {
		return nil, err
	}
	resp, err := comp.serveResponse(ctx, root, q)
	if err != nil {
		return nil, err
	}
	en := root.child("serve.encode")
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(resp)
	en.end()
	return resp, err
}
