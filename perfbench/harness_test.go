package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"ctdvs/internal/exp"
	"ctdvs/internal/pipeline"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n, pct, beyond int
		value          float64
	}{
		{n: 100, pct: 90, beyond: 10, value: 90},
		{n: 280, pct: 96, beyond: 11, value: 269},
		{n: 1000, pct: 99, beyond: 10, value: 990},
		{n: 30, pct: 66, beyond: 10, value: 20},
		// Too few samples for ten beyond any percentile from 50 up: the
		// median, with whatever lies above it.
		{n: 15, pct: 50, beyond: 7, value: 8},
		{n: 4, pct: 50, beyond: 2, value: 2.5},
	} {
		v, pct, beyond := tail(seq(tc.n))
		if v != tc.value || pct != tc.pct || beyond != tc.beyond {
			t.Errorf("n=%d: got p%d = %v with %d beyond, want p%d = %v with %d beyond",
				tc.n, pct, v, beyond, tc.pct, tc.value, tc.beyond)
		}
		if tc.beyond < minBeyond && tc.pct != 50 {
			t.Errorf("n=%d: p%d has only %d samples beyond", tc.n, tc.pct, tc.beyond)
		}
	}
	if v, pct, beyond := tail(nil); v != 0 || pct != 0 || beyond != 0 {
		t.Errorf("empty: got %v p%d %d", v, pct, beyond)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []Span{
		{Name: "root", ID: 0, Parent: -1, Start: ms(0), End: ms(100)},
		// Two children overlapping on [20, 30]: their union covers 40 ms.
		{Name: "a", ID: 1, Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "b", ID: 2, Parent: 0, Start: ms(20), End: ms(50)},
		// A grandchild nested in a.
		{Name: "a1", ID: 3, Parent: 1, Start: ms(12), End: ms(18)},
		// A child running past its parent's end counts only inside it.
		{Name: "c", ID: 4, Parent: 0, Start: ms(90), End: ms(120)},
	}
	got := selfTimes(spans)
	want := []time.Duration{ms(100 - 40 - 10), ms(20 - 6), ms(30), ms(6), ms(30)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	ts := summarize(spans)
	if ts.rootTotal != ms(100) || ts.selfByLayer["a"] != ms(14) {
		t.Errorf("summary: root %v, layer a %v", ts.rootTotal, ts.selfByLayer["a"])
	}
	// The root's self time is what no layer span covers: it is untraced,
	// not a layer's, and it sets the coverage.
	if ts.rootSelf != ms(50) || ts.selfByLayer[untraced] != ms(50) || ts.selfByName["root"] != 0 {
		t.Errorf("root self %v, untraced %v, by name %v; want 50ms, 50ms, 0",
			ts.rootSelf, ts.selfByLayer[untraced], ts.selfByName["root"])
	}
	if c := ts.coverage(); c != 0.5 {
		t.Errorf("coverage %v, want 0.5", c)
	}
	// Sequential children with gaps: the layers cover 8 of the root's 10 ms.
	seqSpans := []Span{
		{Name: "exp.op", ID: 0, Parent: -1, Start: 0, End: ms(10)},
		{Name: "sim.record", ID: 1, Parent: 0, Start: ms(1), End: ms(4)},
		{Name: "core.solve", ID: 2, Parent: 0, Start: ms(4), End: ms(9)},
	}
	s := summarize(seqSpans)
	if c := s.coverage(); math.Abs(c-0.8) > 1e-12 || s.selfByLayer["exp"] != 0 {
		t.Errorf("sequential spans: coverage %v, exp self %v; want 0.8 and 0", c, s.selfByLayer["exp"])
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	draw := func(seed int64) ([]req, []req, []int) {
		g := newGenerator(seed)
		var seq []req
		for i := 0; i < 500; i++ {
			seq = append(seq, g.next())
		}
		next := zipfOrder(seed, 1, serveDistinct)
		var z []int
		for i := 0; i < 200; i++ {
			z = append(z, next())
		}
		return seq, newGenerator(seed).distinct(50), z
	}
	a1, d1, z1 := draw(7)
	a2, d2, z2 := draw(7)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(z1, z2) {
		t.Fatal("the same seed drew different requests")
	}
	b, _, _ := draw(8)
	if reflect.DeepEqual(a1, b) {
		t.Fatal("different seeds drew the same requests")
	}
	graphs := 0
	for _, r := range a1 {
		if r.Graph != "" {
			graphs++
		}
	}
	if graphs < 50 || graphs > 120 {
		t.Errorf("%d of %d draws are task graphs, want about one in six", graphs, len(a1))
	}
	seen := map[string]bool{}
	for _, r := range d1 {
		if seen[r.key()] {
			t.Fatalf("distinct drew %s twice", r.key())
		}
		seen[r.key()] = true
	}
}

func TestFailuresCountAndMissEveryLimit(t *testing.T) {
	e := &env{want: &expectedFile{Requests: map[string]answer{}}}
	r := req{Bench: "adpcm/encode", Levels: 3, Deadline: 3, CapF: 10e-6}
	e.want.Requests[r.key()] = answer{DeadlineUS: 100, PredictedEnergyUJ: 1, PredictedTimeUS: 90}

	var status int
	var body string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	defer srv.Close()
	s := &serveState{url: srv.URL, reqs: []req{r}, bodies: [][]byte{[]byte("{}")}}
	for i := range s.clients {
		s.clients[i] = srv.Client()
	}
	// A listener that closes every connection: a transport error.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()

	oc := &outcome{}
	for _, tc := range []struct {
		name   string
		status int
		body   string
		url    string
	}{
		{name: "429", status: http.StatusTooManyRequests, body: `{"error":"busy"}`},
		{name: "5xx", status: http.StatusInternalServerError, body: `{"error":"boom"}`},
		{name: "transport", url: "http://" + ln.Addr().String() + "/optimize"},
		{name: "wrong answer", status: http.StatusOK, body: `{"deadline_us":100,"predicted_energy_uj":2,"predicted_time_us":90}`},
	} {
		status, body = tc.status, tc.body
		s.url = srv.URL
		if tc.url != "" {
			s.url = tc.url
		}
		ms, _, err := s.post(0, 0, e)
		if err == nil {
			t.Fatalf("%s: post succeeded", tc.name)
		}
		oc.record(ms, err)
	}
	// The right answer passes.
	status, body, s.url = http.StatusOK, `{"deadline_us":100,"predicted_energy_uj":1,"predicted_time_us":90}`, srv.URL
	ms, _, err := s.post(0, 0, e)
	if err != nil {
		t.Fatalf("correct answer: %v", err)
	}
	oc.record(ms, err)

	if oc.attempted != 5 || oc.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 5 and 4", oc.attempted, oc.failed)
	}
	under := 0
	for _, ms := range oc.lat.ms {
		if ms <= math.MaxFloat64 {
			under++
		}
	}
	if under != 1 {
		t.Errorf("%d of 5 latencies under every limit, want 1: failures must miss every limit", under)
	}
	p50, tv, _, _, _ := oc.latencyStats()
	if !math.IsInf(p50, 1) || !math.IsInf(tv, 1) || finite(tv) != math.MaxFloat64 {
		t.Errorf("p50 %v tail %v: failures must dominate the latencies", p50, tv)
	}
}

func TestRepeatedResponseCheckedByBytes(t *testing.T) {
	e := &env{want: &expectedFile{Requests: map[string]answer{}}}
	r := req{Bench: "adpcm/encode", Levels: 3, Deadline: 3, CapF: 10e-6}
	want := answer{DeadlineUS: 100, PredictedEnergyUJ: 1, PredictedTimeUS: 90}
	e.want.Requests[r.key()] = want
	var body string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(body))
	}))
	defer srv.Close()
	s := &serveState{url: srv.URL, reqs: []req{r}, bodies: [][]byte{[]byte("{}")}}
	for i := range s.clients {
		s.clients[i] = srv.Client()
	}
	const right = `{"deadline_us":100,"predicted_energy_uj":1,"predicted_time_us":90,"elapsed_ms":%g}` + "\n"
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"first right answer", fmt.Sprintf(right, 0.5), true},
		{"same answer, other elapsed_ms", fmt.Sprintf(right, 0.25), true},
		{"wrong answer after a right one", `{"deadline_us":100,"predicted_energy_uj":2,"predicted_time_us":90,"elapsed_ms":0.5}` + "\n", false},
		{"right answer without elapsed_ms", `{"deadline_us":100,"predicted_energy_uj":1,"predicted_time_us":90}`, true},
	} {
		body = tc.body
		_, a, err := s.post(0, 0, e)
		if (err == nil) != tc.ok {
			t.Errorf("%s: error %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.ok && !same(a, want) {
			t.Errorf("%s: answer %+v, want %+v", tc.name, a, want)
		}
	}
	if n := len(s.checked[0]); n != 1 {
		t.Errorf("%d checked responses kept, want 1", n)
	}
}

func TestCheckScheduleCatchesWrongPrediction(t *testing.T) {
	cfg := newConfig(pipeline.NewRunner(nil))
	r := req{Bench: "adpcm/encode", Levels: 7, Deadline: 2, CapF: 1e-6}
	a, c, err := runRequest(context.Background(), cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAnswer(a, c); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if checkSchedule(c.pr, c.sched, a.PredictedEnergyUJ*(1+1e-8), a.PredictedTimeUS, a.DeadlineUS) == nil {
		t.Error("energy off by 1e-8 accepted")
	}
	if checkSchedule(c.pr, c.sched, a.PredictedEnergyUJ, a.PredictedTimeUS, a.PredictedTimeUS*0.99) == nil {
		t.Error("missed deadline accepted")
	}
}

// TestComposedKeysMatchExp pins that the traced run's stages address the
// artifacts exp writes: what the composer stores, exp reads back as disk
// hits, and the answers agree.
func TestComposedKeysMatchExp(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	r := req{Bench: "adpcm/encode", Levels: 3, Deadline: 3, CapF: 10e-6}
	store, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	composed, _, err := newComposer(newConfig(pipeline.NewRunner(store)), &counters{}).request(ctx, sp{}, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := newConfig(pipeline.NewRunner(store))
	plain, _, err := runRequest(ctx, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	if !same(plain, composed) {
		t.Fatalf("composed answer %+v, exp's %+v", composed, plain)
	}
	stats := cfg.Pipeline.Manifest().Stats()
	for _, k := range []pipeline.Kind{pipeline.StageProfile, pipeline.StageValidate} {
		if s := stats[k]; s.Misses != 0 || s.DiskHits == 0 {
			t.Errorf("%s: %+v; exp did not find the composer's artifacts", k, s)
		}
	}
}

func TestComposedSurfacesMatchExp(t *testing.T) {
	for _, k := range []int{5, 9, 11} {
		want, err := figureSurface(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := composedSurface(k, sp{}, &counters{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Table(), want.Table()) {
			t.Errorf("figure %d: composed surface differs from exp's", k)
		}
	}
}

func TestMaskTablesHidesWallClockOnly(t *testing.T) {
	got := maskTables([]*exp.Table{{
		Title:   "t",
		Headers: []string{"Benchmark", "E µJ", "t(all)", "speedup", "count"},
		Rows:    [][]string{{"gsm/encode", "2625.3", "12.583ms", "2.5x", "0"}, {"epic", "1.0", "303µs", "1.1x", "3"}},
	}})
	want := [][]string{{"gsm/encode", "2625.3", "-", "-", "0"}, {"epic", "1.0", "-", "-", "3"}}
	if !reflect.DeepEqual(got["t"], want) {
		t.Fatalf("masked %v, want %v", got["t"], want)
	}
}
