package exp

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctdvs/internal/pipeline"
	"ctdvs/internal/profile"
	"ctdvs/internal/sim"
)

// cachedConfig returns a test config whose pipeline persists to dir.
func cachedConfig(t *testing.T, dir string) *Config {
	t.Helper()
	store, err := pipeline.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := testConfig()
	c.Pipeline = pipeline.NewRunner(store)
	return c
}

// renderSweep renders every consumer of the deadline sweep, concatenated, so
// the comparison covers all derived tables.
func renderSweep(t *testing.T, rows []DeadlineSweepRow) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tab := range []*Table{RenderFigure17(rows), RenderFigure18(rows), RenderTable5(rows)} {
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestWarmRunHitsEverything is the PR's acceptance property: a second run of
// an experiment against the same cache directory performs zero simulator
// profile collections and zero MILP solves — every stage in the manifest is a
// cache hit — and produces bit-identical output to the cold run.
func TestWarmRunHitsEverything(t *testing.T) {
	dir := t.TempDir()

	cold := cachedConfig(t, dir)
	coldRows, err := DeadlineSweep(cold)
	if err != nil {
		t.Fatal(err)
	}
	coldOut := renderSweep(t, coldRows)

	coldStats := cold.Pipeline.Manifest().Stats()
	if coldStats[pipeline.StageProfile].Misses == 0 || coldStats[pipeline.StageSolve].Misses == 0 ||
		coldStats[pipeline.StageValidate].Misses == 0 {
		t.Fatalf("cold run should miss every stage kind: %+v", coldStats)
	}
	if coldStats[pipeline.StageFilter].Misses == 0 || coldStats[pipeline.StageFormulate].Misses == 0 {
		t.Fatalf("cold run should record filter/formulate work: %+v", coldStats)
	}

	// Fresh Config, fresh process-equivalent: only the disk store is shared.
	warm := cachedConfig(t, dir)
	warmRows, err := DeadlineSweep(warm)
	if err != nil {
		t.Fatal(err)
	}
	warmOut := renderSweep(t, warmRows)

	man := warm.Pipeline.Manifest()
	if !man.AllHits() {
		t.Errorf("warm run recomputed stages:")
		for _, r := range man.Records() {
			if r.Misses > 0 {
				t.Errorf("  %s %s: %d misses", r.Stage, r.Key[:12], r.Misses)
			}
		}
	}
	warmStats := man.Stats()
	for _, kind := range []pipeline.Kind{pipeline.StageProfile, pipeline.StageSolve, pipeline.StageValidate} {
		s := warmStats[kind]
		if s.DiskHits == 0 {
			t.Errorf("warm run has no disk hits for %s: %+v", kind, s)
		}
		if s.Misses != 0 {
			t.Errorf("warm run computed %s %d times", kind, s.Misses)
		}
	}
	// Filter and formulate only run inside a solve miss; a fully warm run
	// must not have touched them at all.
	for _, kind := range []pipeline.Kind{pipeline.StageFilter, pipeline.StageFormulate} {
		if s, ok := warmStats[kind]; ok && s.Misses > 0 {
			t.Errorf("warm run re-ran %s: %+v", kind, s)
		}
	}

	if !bytes.Equal(coldOut, warmOut) {
		t.Errorf("warm output differs from cold output\ncold:\n%s\nwarm:\n%s", coldOut, warmOut)
	}
}

// TestRecordingSharedAcrossModeSets pins the single-simulation property: the
// record stage runs one simulation per (benchmark, input), and every further
// mode set — in-process or from a warm store — replays the cached stream
// instead of simulating.
func TestRecordingSharedAcrossModeSets(t *testing.T) {
	dir := t.TempDir()

	a := cachedConfig(t, dir)
	pr3, err := a.Profile("adpcm/encode", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Profile("adpcm/encode", 0, 7); err != nil {
		t.Fatal(err)
	}
	stats := a.Pipeline.Manifest().Stats()
	if s := stats[pipeline.StageRecording]; s.Misses != 1 || s.MemHits != 1 {
		t.Errorf("two mode sets should share one recording: %+v", s)
	}
	if s := stats[pipeline.StageProfile]; s.Misses != 2 {
		t.Errorf("expected two distinct profile computations: %+v", s)
	}

	// Fresh process-equivalent: a third mode set replays the stored stream —
	// a record-stage disk hit, zero simulations.
	b := cachedConfig(t, dir)
	if _, err := b.Profile("adpcm/encode", 0, 13); err != nil {
		t.Fatal(err)
	}
	if s := b.Pipeline.Manifest().Stats()[pipeline.StageRecording]; s.Misses != 0 || s.DiskHits != 1 {
		t.Errorf("warm recording was not served from disk: %+v", s)
	}

	// The replayed profile is bit-identical to a per-mode-simulated one. A
	// negative record budget makes every recording unrecordable, so the
	// profile stage takes its production per-mode fallback.
	d := testConfig()
	mc := d.Machine.Config()
	mc.RecordBudgetEvents = -1
	d.Machine = sim.MustNew(mc)
	prPM, err := d.Profile("adpcm/encode", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	enc1, err := profile.Encode(pr3)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := profile.Encode(prPM)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Error("replayed profile differs from per-mode profile")
	}
}

// TestCacheKeySensitivity verifies that changed options miss instead of
// reusing stale artifacts: a different scale or MILP budget must not hit the
// other configuration's entries.
func TestCacheKeySensitivity(t *testing.T) {
	dir := t.TempDir()

	a := cachedConfig(t, dir)
	pr, err := a.Profile("adpcm/encode", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	dls, err := a.Deadlines("adpcm/encode")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.OptimizeSingle(pr, dls[4], nil); err != nil {
		t.Fatal(err)
	}

	// Same store, different scale: the profile key must differ.
	b := cachedConfig(t, dir)
	b.Scale = a.Scale * 2
	if _, err := b.Profile("adpcm/encode", 0, 3); err != nil {
		t.Fatal(err)
	}
	if s := b.Pipeline.Manifest().Stats()[pipeline.StageProfile]; s.Misses != 1 || s.DiskHits != 0 {
		t.Errorf("changed scale reused the cached profile: %+v", s)
	}

	// Same store and scale, different filter option: the solve key must
	// differ while the profile hits.
	d := cachedConfig(t, dir)
	pr2, err := d.Profile("adpcm/encode", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.OptimizeSingle(pr2, dls[4], nil); err != nil {
		t.Fatal(err)
	}
	stats := d.Pipeline.Manifest().Stats()
	if s := stats[pipeline.StageProfile]; s.DiskHits != 1 || s.Misses != 0 {
		t.Errorf("identical profile request missed: %+v", s)
	}
	if s := stats[pipeline.StageSolve]; s.DiskHits != 1 || s.Misses != 0 {
		t.Errorf("identical solve request missed: %+v", s)
	}
	if _, err := d.OptimizeSingle(pr2, dls[4], nil); err != nil {
		t.Fatal(err)
	}
	if s := d.Pipeline.Manifest().Stats()[pipeline.StageSolve]; s.MemHits != 1 {
		t.Errorf("repeated in-process solve was not a memory hit: %+v", s)
	}
}

// TestInfeasibleSolveCached verifies that infeasible outcomes are artifacts
// too: a warm run does not re-solve a problem known to have no schedule.
func TestInfeasibleSolveCached(t *testing.T) {
	dir := t.TempDir()
	a := cachedConfig(t, dir)
	pr, err := a.Profile("adpcm/encode", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A deadline far below the fastest mode's runtime is infeasible.
	n := pr.Modes.Len()
	tight := pr.TotalTimeUS[n-1] * 0.5
	if _, err := a.OptimizeSingle(pr, tight, nil); err == nil {
		t.Fatal("expected infeasible")
	}

	b := cachedConfig(t, dir)
	pr2, err := b.Profile("adpcm/encode", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.OptimizeSingle(pr2, tight, nil); err == nil {
		t.Fatal("expected infeasible")
	}
	if s := b.Pipeline.Manifest().Stats()[pipeline.StageSolve]; s.Misses != 0 || s.DiskHits != 1 {
		t.Errorf("infeasible solve was not served from cache: %+v", s)
	}
}

// TestWarmRunAfterCompaction is the eviction-safety acceptance property: a
// store compacted down to the artifacts a warm sweep served still serves a
// fully warm sweep — AllHits, zero recomputes, bit-identical output. The
// planted, never-served copies go, and so do the recordings, which a warm
// sweep never needs. Every file is backdated first, the planted ones left
// newer than the real ones, so the served artifacts survive only because
// the sweep's disk hits marked them used.
func TestWarmRunAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	cold := cachedConfig(t, dir)
	coldRows, err := DeadlineSweep(cold)
	if err != nil {
		t.Fatal(err)
	}
	coldOut := renderSweep(t, coldRows)

	type file struct {
		kind pipeline.Kind
		key  pipeline.Key
		f    pipeline.Format
	}
	var real []file
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f := pipeline.FormatJSON
		if filepath.Ext(path) == ".bin" {
			f = pipeline.FormatBinary
		}
		kind := pipeline.Kind(filepath.Base(filepath.Dir(filepath.Dir(path))))
		real = append(real, file{kind, pipeline.Key(strings.TrimSuffix(d.Name(), filepath.Ext(path))), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(real) == 0 {
		t.Fatal("cold run stored no artifacts")
	}

	store, err := pipeline.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	backdate := func(path string, age time.Duration) {
		mt := time.Now().Add(-age)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	var planted []string
	for i, a := range real {
		path := store.Path(a.kind, a.key, a.f)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		backdate(path, 48*time.Hour)
		key := pipeline.NewKey(a.kind).Int("planted", int64(i)).Sum()
		if err := store.Put(a.kind, key, data, a.f); err != nil {
			t.Fatal(err)
		}
		p := store.Path(a.kind, key, a.f)
		backdate(p, 24*time.Hour)
		planted = append(planted, p)
	}

	// A warm sweep serves what it needs from disk, marking it used.
	served := testConfig()
	served.Pipeline = pipeline.NewRunner(store)
	if _, err := DeadlineSweep(served); err != nil {
		t.Fatal(err)
	}
	man := served.Pipeline.Manifest()
	if !man.AllHits() {
		t.Fatal("first warm sweep recomputed stages")
	}
	var hits []string
	var budget int64
	for _, r := range man.Records() {
		if r.DiskHits == 0 {
			continue
		}
		info, err := os.Stat(r.Artifact)
		if err != nil {
			t.Fatal(err)
		}
		hits = append(hits, r.Artifact)
		budget += info.Size()
	}

	// Budget: exactly the served artifacts, compacted by a second store over
	// the directory.
	compactor, err := pipeline.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := compactor.Compact(budget)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(real) + len(planted) - len(hits); st.EvictedArtifacts != want || st.BytesAfter != budget {
		t.Fatalf("compact stats = %+v, want %d evictions down to %d bytes", st, want, budget)
	}
	for _, p := range planted {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("planted artifact %s survived", filepath.Base(p))
		}
	}

	// The compacted store serves a fully warm sweep: AllHits for every
	// retained kind, identical output.
	warm := cachedConfig(t, dir)
	warmRows, err := DeadlineSweep(warm)
	if err != nil {
		t.Fatal(err)
	}
	man = warm.Pipeline.Manifest()
	if !man.AllHits() {
		for _, r := range man.Records() {
			if r.Misses > 0 {
				t.Errorf("post-compact warm run recomputed %s %s: %d misses", r.Stage, r.Key[:12], r.Misses)
			}
		}
	}
	if warmOut := renderSweep(t, warmRows); !bytes.Equal(coldOut, warmOut) {
		t.Error("post-compact warm output differs from the cold run")
	}
}
