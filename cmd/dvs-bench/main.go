// Command dvs-bench regenerates the paper's evaluation: every table and
// figure plus this reproduction's ablations, printed as text tables.
//
// Usage:
//
//	dvs-bench [-scale 1.0] [-exp all|table1,table6,fig15,...] [-grid 16] [-workers N]
//	dvs-bench -cache-dir .dvs-cache -manifest run.json   # warm rerun: no sim, no MILP
//
// Run with -list for the experiment catalogue: the paper's tables 1/3/4/5/
// 6/7 and figures 2-11/14/15/17/18/19, this reproduction's extensions
// (placement, runtime, ablation-transition, ablation-block,
// ablation-heuristic, ablation-pathfilter, ablation-leakage), and the
// opt-in "scaling" sweep (excluded from "all"; several minutes).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ctdvs/cmd/internal/cli"
	"ctdvs/internal/exp"
	"ctdvs/internal/milp"
)

// optIn is the one experiment "all" leaves out: it takes several minutes.
const optIn = "scaling"

// catalogue lists every experiment -exp accepts, in the rows -list prints;
// a row that opens a group carries the group's label.
var catalogue = []struct {
	label string
	names []string
	note  string
}{
	{"paper:", []string{"table1", "table3", "table4", "table5", "table6", "table7"}, ""},
	{"", []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}, ""},
	{"", []string{"fig14", "fig15", "fig17", "fig18", "fig19"}, ""},
	{"extensions:", []string{"placement", "runtime", "ablation-transition", "ablation-block"}, ""},
	{"", []string{"ablation-heuristic", "ablation-pathfilter", "ablation-leakage"}, ""},
	{"opt-in:", []string{optIn}, " (excluded from 'all'; several minutes)"},
}

// selection parses an -exp list: comma-separated catalogue names, where
// "all" anywhere in the list selects every experiment but the opt-in one.
// A name outside the catalogue is an error that names it.
func selection(list string) (map[string]bool, error) {
	known := map[string]bool{}
	for _, row := range catalogue {
		for _, name := range row.names {
			known[name] = true
		}
	}
	selected := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		switch name = strings.TrimSpace(name); {
		case name == "all":
			for k := range known {
				if k != optIn {
					selected[k] = true
				}
			}
		case known[name]:
			selected[name] = true
		default:
			return nil, fmt.Errorf("unknown experiment %q in -exp (see -list)", name)
		}
	}
	return selected, nil
}

func main() {
	app := cli.New("dvs-bench")
	app.ScaleFlag()
	app.SolveFlags()
	expList := flag.String("exp", "all", "comma-separated experiment list, or 'all'")
	gridN := flag.Int("grid", 16, "surface grid resolution for figures 5-11")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
	list := flag.Bool("list", false, "list available experiments and exit")
	app.Parse()

	if *list {
		for _, row := range catalogue {
			fmt.Printf("%-12s%s%s\n", row.label, strings.Join(row.names, " "), row.note)
		}
		return
	}
	selected, err := selection(*expList)
	if err != nil {
		app.Die(err)
	}
	if *gridN < 2 {
		app.Dief("-grid %d: a surface needs at least 2 points per axis", *gridN)
	}
	want := func(name string) bool { return selected[name] }

	cfg := app.Config()
	cfg.MILP = &milp.Options{TimeLimit: app.SolveLimit}
	cfg.Workers = app.Workers

	out := os.Stdout
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "dvs-bench: %s: %v\n", name, err)
		os.Exit(1)
	}
	show := func(t *exp.Table) {
		if *asJSON {
			if err := t.JSON(out); err != nil {
				fail(t.Title, err)
			}
			return
		}
		if err := t.Render(out); err != nil {
			fail(t.Title, err)
		}
		fmt.Fprintln(out)
	}

	if want("fig2") {
		show(exp.Figure2().Table())
	}
	if want("fig3") {
		show(exp.Figure3().Table())
	}
	if want("fig4") {
		show(exp.Figure4().Table())
	}
	if want("fig5") {
		show(exp.Figure5(*gridN).Table())
	}
	if want("fig6") {
		show(exp.Figure6(*gridN).Table())
	}
	if want("fig7") {
		show(exp.Figure7(*gridN).Table())
	}
	if want("fig8") {
		c, err := exp.Figure8(60)
		if err != nil {
			fail("fig8", err)
		}
		show(c.Table())
	}
	if want("fig9") {
		s, err := exp.Figure9(*gridN)
		if err != nil {
			fail("fig9", err)
		}
		show(s.Table())
	}
	if want("fig10") {
		s, err := exp.Figure10(*gridN)
		if err != nil {
			fail("fig10", err)
		}
		show(s.Table())
	}
	if want("fig11") {
		s, err := exp.Figure11(*gridN)
		if err != nil {
			fail("fig11", err)
		}
		show(s.Table())
	}
	if want("table1") {
		rows, err := exp.Table1(cfg)
		if err != nil {
			fail("table1", err)
		}
		show(exp.RenderTable1(rows))
	}
	if want("table4") {
		rows, err := exp.Table4(cfg)
		if err != nil {
			fail("table4", err)
		}
		show(exp.RenderTable4(rows))
	}
	if want("table7") {
		rows, err := exp.Table7(cfg)
		if err != nil {
			fail("table7", err)
		}
		show(exp.RenderTable7(rows))
	}
	if want("table3") || want("fig14") {
		rows, err := exp.Table3Figure14(cfg)
		if err != nil {
			fail("table3/fig14", err)
		}
		show(exp.RenderTable3Figure14(rows))
	}
	if want("fig15") {
		rows, err := exp.Figure15(cfg)
		if err != nil {
			fail("fig15", err)
		}
		show(exp.RenderFigure15(rows))
	}
	if want("fig17") || want("fig18") || want("table5") {
		rows, err := exp.DeadlineSweep(cfg)
		if err != nil {
			fail("deadline sweep", err)
		}
		if want("fig17") {
			show(exp.RenderFigure17(rows))
		}
		if want("fig18") {
			show(exp.RenderFigure18(rows))
		}
		if want("table5") {
			show(exp.RenderTable5(rows))
		}
	}
	if want("table6") {
		rows, err := exp.Table6(cfg)
		if err != nil {
			fail("table6", err)
		}
		show(exp.RenderTable6(rows))
	}
	if want("fig19") {
		rows, err := exp.Figure19(cfg)
		if err != nil {
			fail("fig19", err)
		}
		show(exp.RenderFigure19(rows))
	}
	if want("ablation-transition") {
		rows, err := exp.AblationNoTransitionCost(cfg)
		if err != nil {
			fail("ablation-transition", err)
		}
		show(exp.RenderAblation("Ablation: transition-cost-aware vs Saputra-style blind MILP (c = 100 µF)", rows))
	}
	if want("ablation-block") {
		rows, err := exp.AblationBlockBased(cfg)
		if err != nil {
			fail("ablation-block", err)
		}
		show(exp.RenderAblation("Ablation: edge-based vs block-based mode variables", rows))
	}
	if want(optIn) { // opt-in: several minutes of MILP solves
		rows, err := exp.SolverScaling(cfg, 4, 40, []int{2, 4, 6, 8}, app.SolveLimit)
		if err != nil {
			fail("scaling", err)
		}
		show(exp.RenderSolverScaling(rows))
	}
	if want("ablation-heuristic") {
		rows, err := exp.AblationHeuristic(cfg)
		if err != nil {
			fail("ablation-heuristic", err)
		}
		show(exp.RenderAblation("Ablation: MILP vs memory-bound-region heuristic", rows))
	}
	if want("runtime") {
		rows, err := exp.RuntimeVsCompileTime(cfg)
		if err != nil {
			fail("runtime", err)
		}
		show(exp.RenderRuntime(rows))
	}
	if want("placement") {
		rows, err := exp.PlacementStats(cfg)
		if err != nil {
			fail("placement", err)
		}
		show(exp.RenderPlacement(rows))
	}
	if want("ablation-pathfilter") {
		rows, err := exp.AblationPathFilter(cfg, 0.98)
		if err != nil {
			fail("ablation-pathfilter", err)
		}
		show(exp.RenderPathFilter(rows))
	}
	if want("ablation-leakage") {
		rows, err := exp.AblationLeakage(cfg, exp.DefaultLeakageSweep())
		if err != nil {
			fail("ablation-leakage", err)
		}
		show(exp.RenderLeakage(rows))
	}
	app.Close()
}
