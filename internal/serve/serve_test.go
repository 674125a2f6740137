package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ctdvs/internal/exp"
	"ctdvs/internal/pipeline"
)

// testBench is small enough that a full profile+solve+measure at the test
// scale finishes in well under a second.
const testBench = "adpcm/encode"

// newTestServer builds a server over a fresh test-scale config; dir != ""
// attaches a disk artifact store.
func newTestServer(t testing.TB, dir string, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	cfg := exp.NewConfig(0.02)
	if dir != "" {
		store, err := pipeline.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Pipeline = pipeline.NewRunner(store)
	}
	s := New(cfg, opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postOptimize sends one request body and returns the status code and body.
func postOptimize(t testing.TB, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// decodeOK decodes a 200 response body.
func decodeOK(t testing.TB, status int, body []byte) *Response {
	t.Helper()
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	return &r
}

// canonical re-marshals a response with the nondeterministic elapsed time
// zeroed, for bit-identity comparisons.
func canonical(t testing.TB, body []byte) string {
	t.Helper()
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	r.ElapsedMS = 0
	out, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestOptimizeValidRequest(t *testing.T) {
	s, ts := newTestServer(t, "", Options{})
	status, body := postOptimize(t, ts, fmt.Sprintf(`{"bench":%q,"deadline":3}`, testBench))
	r := decodeOK(t, status, body)

	if r.Bench != testBench {
		t.Errorf("bench = %q, want %q", r.Bench, testBench)
	}
	if r.DeadlineUS <= 0 {
		t.Errorf("deadline_us = %v, want > 0", r.DeadlineUS)
	}
	if r.Solver == nil || r.Solver.Nodes < 1 {
		t.Errorf("solver stats missing or empty: %+v", r.Solver)
	}
	if r.Measured == nil {
		t.Fatal("measured outcome missing")
	}
	if !r.Measured.MeetsDeadline {
		t.Errorf("optimized schedule misses its own deadline: %+v", r.Measured)
	}
	if r.Baseline == nil || r.Baseline.EnergyUJ <= 0 {
		t.Errorf("baseline missing or empty: %+v", r.Baseline)
	}
	if r.Schedule != nil {
		t.Error("schedule included without include_schedule")
	}

	st := s.Stats()
	if st.Requests != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Errorf("stats = %+v, want 1 request, 1 completed", st)
	}
	if st.Cache[pipeline.StageSolve].Misses != 1 {
		t.Errorf("solve misses = %d, want 1", st.Cache[pipeline.StageSolve].Misses)
	}
}

func TestOptimizeRejectsBadRequests(t *testing.T) {
	s, ts := newTestServer(t, "", Options{})
	cases := []struct {
		name string
		body string
	}{
		{"malformed JSON", `{"bench":`},
		{"unknown field", fmt.Sprintf(`{"bench":%q,"frobnicate":1}`, testBench)},
		{"trailing data", fmt.Sprintf(`{"bench":%q} {}`, testBench)},
		{"missing bench", `{}`},
		{"unknown bench", `{"bench":"no/such"}`},
		{"bad levels", fmt.Sprintf(`{"bench":%q,"levels":5}`, testBench)},
		{"bad deadline number", fmt.Sprintf(`{"bench":%q,"deadline":9}`, testBench)},
		{"negative deadline_us", fmt.Sprintf(`{"bench":%q,"deadline_us":-1}`, testBench)},
		{"negative capacitance", fmt.Sprintf(`{"bench":%q,"capacitance_f":-1}`, testBench)},
		{"bad input index", fmt.Sprintf(`{"bench":%q,"input":99}`, testBench)},
		{"wrong JSON type", `[1,2,3]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postOptimize(t, ts, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s; want 400", status, body)
			}
			var e errorBody
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %s not a JSON error envelope (%v)", body, err)
			}
		})
	}
	if got := s.Stats().BadRequests; got != int64(len(cases)) {
		t.Errorf("bad_requests = %d, want %d", got, len(cases))
	}

	resp, err := http.Get(ts.URL + "/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /optimize = %d, want 405", resp.StatusCode)
	}
}

// TestSingleFlight fires N identical concurrent requests and asserts exactly
// one simulation and one solve happened — the rest coalesced (at the flight
// table or, if a flight already finished, at the pipeline's in-memory slot) —
// and every client got the same bytes.
func TestSingleFlight(t *testing.T) {
	const n = 8
	s, ts := newTestServer(t, "", Options{Workers: 4, QueueDepth: n})
	body := fmt.Sprintf(`{"bench":%q,"deadline":2}`, testBench)

	start := make(chan struct{})
	results := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			status, respBody := postOptimize(t, ts, body)
			if status != http.StatusOK {
				t.Errorf("status = %d, body %s", status, respBody)
				return
			}
			results <- canonical(t, respBody)
		}()
	}
	close(start)
	wg.Wait()
	close(results)

	var first string
	for r := range results {
		if first == "" {
			first = r
		} else if r != first {
			t.Fatalf("responses differ:\n%s\n%s", first, r)
		}
	}
	if first == "" {
		t.Fatal("no successful responses")
	}

	stats := s.cfg.Pipeline.Manifest().Stats()
	for _, kind := range []pipeline.Kind{pipeline.StageRecording, pipeline.StageProfile, pipeline.StageSolve} {
		if got := stats[kind].Misses; got != 1 {
			t.Errorf("%s misses = %d, want exactly 1", kind, got)
		}
	}
	if st := s.Stats(); st.Completed != n {
		t.Errorf("completed = %d, want %d", st.Completed, n)
	}
}

// TestBackpressure fills the worker and the queue with held requests, then
// asserts the next distinct request is rejected with 429 + Retry-After, the
// held requests still complete, and no goroutines leak.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, "", Options{Workers: 1, QueueDepth: 1, RetryAfter: 7 * time.Second})
	s.testHook = func(ctx context.Context, _ *Request) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	before := runtime.NumGoroutine()

	// Two distinct requests: one running (held in the hook), one queued.
	type result struct {
		status int
		body   []byte
	}
	held := make(chan result, 2)
	for i := 1; i <= 2; i++ {
		body := fmt.Sprintf(`{"bench":%q,"deadline":%d}`, testBench, i)
		go func() {
			status, b := postOptimize(t, ts, body)
			held <- result{status, b}
		}()
	}
	waitFor(t, "both requests admitted", func() bool { return len(s.queue) == 2 })

	status := 0
	var rejected *http.Response
	resp, err := http.Post(ts.URL+"/optimize", "application/json",
		strings.NewReader(fmt.Sprintf(`{"bench":%q,"deadline":4}`, testBench)))
	if err != nil {
		t.Fatal(err)
	}
	status = resp.StatusCode
	rejected = resp
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status = %d, body %s; want 429", status, body)
	}
	if got := rejected.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want \"7\"", got)
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("429 body %s not a JSON error envelope", body)
	}

	close(release)
	for i := 0; i < 2; i++ {
		r := <-held
		if r.status != http.StatusOK {
			t.Errorf("held request: status = %d, body %s", r.status, r.body)
		}
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}

	// Everything spawned for those requests must wind down. Idle HTTP
	// keep-alive connections are reaped first so only real leaks remain.
	waitFor(t, "goroutines drained", func() bool {
		http.DefaultClient.CloseIdleConnections()
		ts.CloseClientConnections()
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// TestRequestTimeout holds the worker past a request's timeout_ms and
// asserts the client gets 504, the execution context is cancelled, and the
// server keeps serving afterwards.
func TestRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	hookCtxDone := make(chan struct{}, 1)
	s, ts := newTestServer(t, "", Options{Workers: 1})
	s.testHook = func(ctx context.Context, _ *Request) {
		select {
		case <-release:
		case <-ctx.Done():
			hookCtxDone <- struct{}{}
		}
	}

	status, body := postOptimize(t, ts,
		fmt.Sprintf(`{"bench":%q,"deadline":2,"timeout_ms":50}`, testBench))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s; want 504", status, body)
	}
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("504 body %s not a JSON error envelope", body)
	}
	// The abandoned execution's context must be cancelled once its only
	// waiter timed out.
	select {
	case <-hookCtxDone:
	case <-time.After(5 * time.Second):
		t.Fatal("execution context was never cancelled")
	}
	if got := s.Stats().Cancelled; got != 1 {
		t.Errorf("cancelled = %d, want 1", got)
	}

	// The server recovers: with the hook released, the same request succeeds.
	close(release)
	status, body = postOptimize(t, ts, fmt.Sprintf(`{"bench":%q,"deadline":2}`, testBench))
	decodeOK(t, status, body)
}

// TestClientDisconnectCancelsExecution drops the client mid-execution and
// asserts the server aborts the work instead of finishing it for nobody.
func TestClientDisconnectCancelsExecution(t *testing.T) {
	admitted := make(chan struct{})
	hookCtxDone := make(chan struct{}, 1)
	s, ts := newTestServer(t, "", Options{Workers: 1})
	s.testHook = func(ctx context.Context, _ *Request) {
		close(admitted)
		<-ctx.Done()
		hookCtxDone <- struct{}{}
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/optimize",
		strings.NewReader(fmt.Sprintf(`{"bench":%q,"deadline":2}`, testBench)))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	<-admitted
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("client request succeeded despite cancellation")
	}
	select {
	case <-hookCtxDone:
	case <-time.After(5 * time.Second):
		t.Fatal("server never cancelled the abandoned execution")
	}
	waitFor(t, "cancellation counted", func() bool { return s.Stats().Cancelled == 1 })
}

// TestDrain verifies graceful shutdown: draining rejects new work with 503
// but in-flight requests run to completion and get their responses.
func TestDrain(t *testing.T) {
	release := make(chan struct{})
	admitted := make(chan struct{})
	s, ts := newTestServer(t, "", Options{Workers: 1})
	s.testHook = func(ctx context.Context, _ *Request) {
		close(admitted)
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	type result struct {
		status int
		body   []byte
	}
	inFlight := make(chan result, 1)
	go func() {
		status, body := postOptimize(t, ts, fmt.Sprintf(`{"bench":%q,"deadline":2}`, testBench))
		inFlight <- result{status, body}
	}()
	<-admitted

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	waitFor(t, "draining flag set", s.Draining)

	// New work is turned away while draining.
	status, body := postOptimize(t, ts, fmt.Sprintf(`{"bench":%q,"deadline":4}`, testBench))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status = %d, body %s; want 503", status, body)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", resp.StatusCode)
	}

	// Drain must wait for the in-flight request, not abandon it.
	select {
	case <-drained:
		t.Fatal("Drain returned with a request still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	r := <-inFlight
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status = %d, body %s", r.status, r.body)
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned after the in-flight request finished")
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	_, ts := newTestServer(t, "", Options{Workers: 3, QueueDepth: 5})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(bytes.TrimSpace(ok), []byte("ok")) {
		t.Errorf("healthz = %d %q", resp.StatusCode, ok)
	}

	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 3 || st.QueueDepth != 5 || st.Draining {
		t.Errorf("statsz = %+v", st)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatszStoreGauges: a disk-backed server reports its store's on-disk
// footprint and eviction gauges on /statsz; a memory-only server omits the
// group entirely.
func TestStatszStoreGauges(t *testing.T) {
	// Memory-only: no store group.
	s, _ := newTestServer(t, "", Options{})
	if st := s.Stats(); st.Store != nil {
		t.Errorf("memory-only server reports store gauges: %+v", st.Store)
	}

	dir := t.TempDir()
	s, ts := newTestServer(t, dir, Options{})
	status, body := postOptimize(t, ts, fmt.Sprintf(`{"bench":%q,"deadline":3}`, testBench))
	decodeOK(t, status, body)

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Store == nil {
		t.Fatal("disk-backed server omits store gauges")
	}
	if st.Store.Dir != dir {
		t.Errorf("store dir = %q, want %q", st.Store.Dir, dir)
	}
	if st.Store.TotalArtifacts < 1 || st.Store.TotalBytes <= 0 {
		t.Errorf("store footprint empty after a completed request: %+v", st.Store)
	}
	if len(st.Store.Kinds) == 0 {
		t.Error("store gauges missing per-kind breakdown")
	}
	var sum int
	for _, ks := range st.Store.Kinds {
		sum += ks.Artifacts
	}
	if sum != st.Store.TotalArtifacts {
		t.Errorf("per-kind artifacts sum to %d, total says %d", sum, st.Store.TotalArtifacts)
	}
	if st.Store.BudgetBytes != 0 || st.Store.Evictions.Compactions != 0 {
		t.Errorf("unconfigured compaction reports activity: %+v", st.Store)
	}
}

// TestServerCompactLoop: with a byte budget configured, the background
// compaction loop evicts until the store fits, the eviction gauges move, and
// requests keep completing correctly throughout.
func TestServerCompactLoop(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, dir, Options{
		StoreBudgetBytes: 1, // unsatisfiable: every pass must evict something
		CompactInterval:  5 * time.Millisecond,
	})
	status, body := postOptimize(t, ts, fmt.Sprintf(`{"bench":%q,"deadline":3}`, testBench))
	first := canonical(t, body)
	decodeOK(t, status, body)

	waitFor(t, "background compaction", func() bool {
		ev := s.Stats().Store.Evictions
		return ev.Compactions >= 1 && ev.EvictedArtifacts >= 1
	})
	if got := s.Stats().Store.BudgetBytes; got != 1 {
		t.Errorf("budget gauge = %d, want 1", got)
	}

	// The cache was evicted underneath the server; a repeat request must
	// recompute to the identical answer (evictions cost work, not answers).
	status, body = postOptimize(t, ts, fmt.Sprintf(`{"bench":%q,"deadline":3}`, testBench))
	decodeOK(t, status, body)
	if canonical(t, body) != first {
		t.Error("response changed after compaction evicted the cache")
	}

	// Drain stops the loop; the gauges stop moving afterwards.
	s.Drain()
	ev := s.Stats().Store.Evictions
	time.Sleep(20 * time.Millisecond)
	if after := s.Stats().Store.Evictions; after.Compactions != ev.Compactions {
		t.Errorf("compactions advanced after Drain: %d -> %d", ev.Compactions, after.Compactions)
	}
}
