package serve

import (
	"fmt"
	"testing"

	"ctdvs/internal/pipeline"
)

// TestOptimizeGraphRequest runs a corpus task graph end to end through the
// HTTP surface: placement, predictions, the measured static execution and the
// slack-reclaiming governed execution all come back, and the governor's
// invariants (deadline met, energy no worse than static) hold on the wire.
func TestOptimizeGraphRequest(t *testing.T) {
	s, ts := newTestServer(t, "", Options{})
	status, body := postOptimize(t, ts, `{"graph":{"name":"fork-join-2w"}}`)
	r := decodeOK(t, status, body)

	g := r.Graph
	if g == nil {
		t.Fatalf("no graph block in response: %s", body)
	}
	if g.Name != "fork-join-2w" || g.Cores != 2 || len(g.Tasks) != 4 {
		t.Errorf("graph header = %q/%d cores/%d tasks, want fork-join-2w/2/4", g.Name, g.Cores, len(g.Tasks))
	}
	if g.DeadlineUS <= 0 || r.DeadlineUS != g.DeadlineUS {
		t.Errorf("deadline_us = %v (top-level %v), want positive and equal", g.DeadlineUS, r.DeadlineUS)
	}
	if len(g.Placement) != 4 || len(g.Modes) != 4 {
		t.Errorf("placement/modes lengths %d/%d, want 4/4", len(g.Placement), len(g.Modes))
	}
	if g.PredictedEnergyUJ <= 0 || g.PredictedMakespanUS <= 0 {
		t.Errorf("predictions missing: %v µJ, %v µs", g.PredictedEnergyUJ, g.PredictedMakespanUS)
	}
	if r.Solver == nil || r.Solver.Nodes < 1 {
		t.Errorf("solver stats missing or empty: %+v", r.Solver)
	}
	if g.Static == nil || g.Governed == nil {
		t.Fatalf("measured executions missing: static %v, governed %v", g.Static, g.Governed)
	}
	if !g.Static.MeetsDeadline || !g.Governed.MeetsDeadline {
		t.Errorf("deadline missed: static %+v, governed %+v", g.Static, g.Governed)
	}
	if g.Governed.Run.EnergyUJ > g.Static.Run.EnergyUJ {
		t.Errorf("governed energy %v exceeds static %v", g.Governed.Run.EnergyUJ, g.Static.Run.EnergyUJ)
	}
	// Measured static execution matches the solver's predicted timeline.
	if g.Static.Run.EnergyUJ != g.PredictedEnergyUJ || g.Static.Run.MakespanUS != g.PredictedMakespanUS {
		t.Errorf("measured (%v µJ, %v µs) != predicted (%v µJ, %v µs)",
			g.Static.Run.EnergyUJ, g.Static.Run.MakespanUS, g.PredictedEnergyUJ, g.PredictedMakespanUS)
	}

	// The solve is the only graph stage: both executions are planned from
	// the task profiles and leave no record.
	st := s.Stats()
	if st.Cache[pipeline.StageGraphSolve].Misses != 1 {
		t.Errorf("graphsolve misses = %d, want 1", st.Cache[pipeline.StageGraphSolve].Misses)
	}
	if _, ok := st.Cache["graphsim"]; ok {
		t.Errorf("a graphsim stage ran: %+v", st.Cache)
	}
}

// TestOptimizeGraphInlineRequest drives an inline DAG (not a corpus graph)
// through the same flow.
func TestOptimizeGraphInlineRequest(t *testing.T) {
	_, ts := newTestServer(t, "", Options{})
	status, body := postOptimize(t, ts, fmt.Sprintf(
		`{"graph":{"cores":2,"deadline_frac":0.5,"tasks":[{"bench":%q},{"bench":%q},{"bench":%q}],"edges":[[0,1],[0,2]]}}`,
		testBench, "epic", "gsm/encode"))
	r := decodeOK(t, status, body)
	g := r.Graph
	if g == nil {
		t.Fatalf("no graph block in response: %s", body)
	}
	if g.Name != "inline" || g.Cores != 2 || len(g.Tasks) != 3 {
		t.Errorf("graph header = %q/%d cores/%d tasks, want inline/2/3", g.Name, g.Cores, len(g.Tasks))
	}
	if g.Static == nil || !g.Static.MeetsDeadline {
		t.Errorf("static execution missing or late: %+v", g.Static)
	}
}

// TestOptimizeGraphRejects holds the pre-queue validation line: malformed
// topology, conflicting selectors and unknown workloads are all 400s.
func TestOptimizeGraphRejects(t *testing.T) {
	s, ts := newTestServer(t, "", Options{})
	cases := []struct {
		name, body string
	}{
		{"bench and graph", `{"bench":"epic","graph":{"name":"chain-4"}}`},
		{"name and inline", `{"graph":{"name":"chain-4","cores":2}}`},
		{"unknown graph", `{"graph":{"name":"no-such-graph"}}`},
		{"no deadline", `{"graph":{"cores":1,"tasks":[{"bench":"epic"}]}}`},
		{"zero cores", `{"graph":{"cores":0,"deadline_frac":0.5,"tasks":[{"bench":"epic"}]}}`},
		{"cycle", `{"graph":{"cores":2,"deadline_frac":0.5,"tasks":[{"bench":"a"},{"bench":"b"}],"edges":[[0,1],[1,0]]}}`},
		{"dangling edge", `{"graph":{"cores":2,"deadline_frac":0.5,"tasks":[{"bench":"a"}],"edges":[[0,9]]}}`},
		{"self edge", `{"graph":{"cores":2,"deadline_frac":0.5,"tasks":[{"bench":"a"},{"bench":"b"}],"edges":[[1,1]]}}`},
		{"empty graph", `{"graph":{"cores":1,"deadline_frac":0.5}}`},
		{"unknown bench", `{"graph":{"cores":1,"deadline_frac":0.5,"tasks":[{"bench":"no-such-bench"}]}}`},
		{"input out of range", `{"graph":{"cores":1,"deadline_frac":0.5,"tasks":[{"bench":"epic","input":99}]}}`},
		{"negative release", `{"graph":{"cores":1,"deadline_frac":0.5,"tasks":[{"bench":"epic","release_us":-1}]}}`},
	}
	for _, tc := range cases {
		status, body := postOptimize(t, ts, tc.body)
		if status != 400 {
			t.Errorf("%s: status %d, body %s, want 400", tc.name, status, body)
		}
	}
	if st := s.Stats(); st.BadRequests != int64(len(cases)) {
		t.Errorf("bad_requests = %d, want %d", st.BadRequests, len(cases))
	}
}

// TestOptimizeGraphWarmRoundTrip is the serving half of the warm-cache
// acceptance criterion: a cold server answers a task-graph request writing
// artifacts to a disk store; a fresh server process over the same store
// answers the identical request purely from cache hits, bit-identically.
func TestOptimizeGraphWarmRoundTrip(t *testing.T) {
	dir := t.TempDir()
	req := `{"graph":{"name":"fork-join-2w"}}`

	coldSrv, coldTS := newTestServer(t, dir, Options{})
	coldStatus, coldBody := postOptimize(t, coldTS, req)
	decodeOK(t, coldStatus, coldBody)
	coldStats := coldSrv.cfg.Pipeline.Manifest().Stats()
	if coldStats[pipeline.StageGraphSolve].Misses == 0 {
		t.Fatalf("cold run should miss the graphsolve stage: %+v", coldStats)
	}
	if _, ok := coldStats["graphsim"]; ok {
		t.Errorf("cold run recorded a graphsim stage: %+v", coldStats)
	}

	warmSrv, warmTS := newTestServer(t, dir, Options{})
	warmStatus, warmBody := postOptimize(t, warmTS, req)
	decodeOK(t, warmStatus, warmBody)
	if !warmSrv.cfg.Pipeline.Manifest().AllHits() {
		t.Error("warm server recomputed stages:")
		for _, r := range warmSrv.cfg.Pipeline.Manifest().Records() {
			if r.Misses > 0 {
				t.Errorf("  %s %s: %d misses", r.Stage, r.Key[:12], r.Misses)
			}
		}
	}
	if c, w := canonical(t, coldBody), canonical(t, warmBody); c != w {
		t.Errorf("warm response differs from cold:\ncold %s\nwarm %s", c, w)
	}
}

// TestOptimizeGraphDegenerateMatchesSingle is the bit-identity property on
// the wire: a 1-task/1-core graph request and a plain bench request for the
// same workload and deadline produce the same energy, objective and measured
// outcome, and the graph request warms entirely from the bench request's
// artifacts.
func TestOptimizeGraphDegenerateMatchesSingle(t *testing.T) {
	dir := t.TempDir()

	_, singleTS := newTestServer(t, dir, Options{})
	sStatus, sBody := postOptimize(t, singleTS, fmt.Sprintf(`{"bench":%q,"deadline":3}`, testBench))
	sResp := decodeOK(t, sStatus, sBody)

	graphSrv, graphTS := newTestServer(t, dir, Options{})
	gStatus, gBody := postOptimize(t, graphTS, fmt.Sprintf(
		`{"deadline_us":%v,"graph":{"cores":1,"deadline_frac":0,"tasks":[{"bench":%q}]}}`,
		sResp.DeadlineUS, testBench))
	gResp := decodeOK(t, gStatus, gBody)

	g := gResp.Graph
	if g == nil || !g.Degenerate {
		t.Fatalf("1-task/1-core request not routed degenerately: %s", gBody)
	}
	if g.PredictedEnergyUJ != sResp.PredictedEnergyUJ {
		t.Errorf("graph energy %v != single %v", g.PredictedEnergyUJ, sResp.PredictedEnergyUJ)
	}
	if gResp.Solver.ObjectiveUJ != sResp.Solver.ObjectiveUJ {
		t.Errorf("graph objective %v != single %v", gResp.Solver.ObjectiveUJ, sResp.Solver.ObjectiveUJ)
	}
	if g.Static == nil || sResp.Measured == nil {
		t.Fatal("measured outcomes missing")
	}
	if g.Static.Run.EnergyUJ != sResp.Measured.Run.EnergyUJ ||
		g.Static.Run.MakespanUS != sResp.Measured.Run.TimeUS {
		t.Errorf("graph execution (%v µJ, %v µs) != single (%v µJ, %v µs)",
			g.Static.Run.EnergyUJ, g.Static.Run.MakespanUS,
			sResp.Measured.Run.EnergyUJ, sResp.Measured.Run.TimeUS)
	}
	if !graphSrv.cfg.Pipeline.Manifest().AllHits() {
		t.Error("degenerate graph request recomputed stages the bench request cached:")
		for _, r := range graphSrv.cfg.Pipeline.Manifest().Records() {
			if r.Misses > 0 {
				t.Errorf("  %s %s: %d misses", r.Stage, r.Key[:12], r.Misses)
			}
		}
	}
}
