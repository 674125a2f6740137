package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestAnalyticFiguresMatchPaperOutput renders Figures 2–11 as
// `dvs-bench -grid 8` prints them and requires each table, title to last
// row and the blank line after it, to appear verbatim in
// results_full_scale.txt, the committed full-scale run. The analytic
// figures depend on neither the workload scale nor the clock, so a change
// that moves any printed value fails here.
func TestAnalyticFiguresMatchPaperOutput(t *testing.T) {
	const grid = 8
	committed, err := os.ReadFile(filepath.Join("..", "..", "results_full_scale.txt"))
	if err != nil {
		t.Fatal(err)
	}
	committed = append([]byte("\n"), committed...)

	tables := []*Table{Figure2().Table(), Figure3().Table(), Figure4().Table(),
		Figure5(grid).Table(), Figure6(grid).Table(), Figure7(grid).Table()}
	fig8, err := Figure8(60)
	if err != nil {
		t.Fatal(err)
	}
	tables = append(tables, fig8.Table())
	for _, mk := range []func(int) (*Surface, error){Figure9, Figure10, Figure11} {
		s, err := mk(grid)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, s.Table())
	}

	for _, tab := range tables {
		var b bytes.Buffer
		b.WriteByte('\n')
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteByte('\n')
		if !bytes.Contains(committed, b.Bytes()) {
			t.Errorf("%q is not in results_full_scale.txt as rendered:\n%s", tab.Title, b.Bytes())
		}
	}
}
