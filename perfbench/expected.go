package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ctdvs/internal/pipeline"
)

// expectedFile holds the answers the checks compare against, recorded at
// the commit that introduced the benchmark with --record-expected. A later
// commit that changes an answer fails the benchmark until the change is
// understood and the file re-recorded.
type expectedFile struct {
	Scale float64 `json:"scale"`
	Grid  int     `json:"surface_grid"`
	// Requests maps req.key() to the answer, for every request the
	// generator can draw.
	Requests map[string]answer `json:"requests"`
	// Sweep maps each solve-sweep cell to its answer.
	Sweep map[string]answer `json:"solve_sweep"`
	// Paper maps each paper-sweep table title to its rows, with the
	// wall-clock cells masked.
	Paper map[string][][]string `json:"paper_sweep"`
}

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (*expectedFile, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if f.Scale != scale || f.Grid != surfaceGrid {
		return nil, fmt.Errorf("expected.json was recorded at scale %v grid %d, the benchmark runs scale %v grid %d",
			f.Scale, f.Grid, scale, surfaceGrid)
	}
	return &f, nil
}

// recordExpected computes every answer the checks need, on memory-only
// configurations, and writes the expected file.
func recordExpected(path string) error {
	ctx := context.Background()
	f := expectedFile{Scale: scale, Grid: surfaceGrid, Requests: map[string]answer{}, Sweep: map[string]answer{}}
	cfg := newConfig(pipeline.NewRunner(nil))
	singles, graphs := requestSpace()
	t0 := time.Now()
	for _, r := range append(singles, graphs...) {
		a, c, err := runRequest(ctx, cfg, r)
		if err != nil {
			return fmt.Errorf("%s: %w", r.key(), err)
		}
		if err := checkAnswer(a, c); err != nil {
			return fmt.Errorf("%s: %w", r.key(), err)
		}
		f.Requests[r.key()] = a
	}
	fmt.Fprintf(os.Stderr, "recorded %d requests in %v\n", len(f.Requests), time.Since(t0))

	cells, err := sweepCells(newConfig(pipeline.NewRunner(nil)))
	if err != nil {
		return err
	}
	for _, c := range cells {
		a, err := solveCell(ctx, newConfig(pipeline.NewRunner(nil)), c)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		f.Sweep[c.name] = a
	}
	fmt.Fprintf(os.Stderr, "recorded %d sweep cells in %v\n", len(f.Sweep), time.Since(t0))

	tables, _, err := paperPass(newPaperConfig(), nil)
	if err != nil {
		return err
	}
	f.Paper = maskTables(tables)
	data, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
