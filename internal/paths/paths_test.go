package paths

import (
	"testing"

	"ctdvs/internal/cfg"
	"ctdvs/internal/ir"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
	"ctdvs/internal/workloads"
)

// diamond: 0 → (1|2) → 3, exit.
func diamond() *cfg.Graph {
	b := ir.NewBuilder("diamond")
	a := b.Block("a")
	l := b.Block("l")
	r := b.Block("r")
	j := b.Block("j")
	a.Compute(1)
	l.Compute(1)
	r.Compute(1)
	j.Compute(1)
	b.ProbBranch(a, l, r, 0.5)
	l.Jump(j)
	r.Jump(j)
	j.Exit()
	g, err := cfg.FromProgram(b.MustFinish())
	if err != nil {
		panic(err)
	}
	return g
}

func TestDiamondNumbering(t *testing.T) {
	g := diamond()
	n, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	// No back edges in a diamond; two paths from the entry.
	for _, e := range g.Edges {
		if n.IsBackEdge(e) {
			t.Errorf("spurious back edge %v", e)
		}
	}
	if got := n.NumPathsFrom(0); got != 2 {
		t.Errorf("NumPathsFrom(0) = %d, want 2", got)
	}
	// Path IDs 0 and 1 must decode to the two distinct routes.
	seen := map[string]bool{}
	for id := int64(0); id < 2; id++ {
		seq, err := n.Decode(Key{Start: 0, End: 3, ID: id})
		if err != nil {
			t.Fatalf("decode %d: %v", id, err)
		}
		if len(seq) != 3 || seq[0] != 0 || seq[2] != 3 {
			t.Fatalf("decode %d = %v", id, seq)
		}
		seen[string(rune('0'+seq[1]))] = true
	}
	if len(seen) != 2 {
		t.Errorf("paths not distinct: %v", seen)
	}
}

func TestLoopBackEdgeAndTracer(t *testing.T) {
	// 0 → 1 (loop body, self back edge) → 2 exit.
	b := ir.NewBuilder("loop")
	head := b.Block("head")
	body := b.Block("body")
	exit := b.Block("exit")
	head.Compute(1)
	head.Jump(body)
	body.Compute(1)
	b.LoopBranch(body, body, exit, 5)
	exit.Compute(1)
	exit.Exit()
	g, err := cfg.FromProgram(b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if !n.IsBackEdge(cfg.Edge{From: 1, To: 1}) {
		t.Error("self loop not classified as back edge")
	}

	// Simulate the edge stream by hand: entry→0, 0→1, (1→1)×4, 1→2, exit.
	tr := n.NewTracer()
	tr.Edge(cfg.Entry, 0)
	tr.Edge(0, 1)
	for i := 0; i < 4; i++ {
		tr.Edge(1, 1)
	}
	tr.Edge(1, 2)
	tr.Finish()

	counts := tr.Counts()
	// Paths: {0→1} once (ended by first back edge), {1} three times
	// (between back edges), {1→2} once (final).
	if got := counts[Key{Start: 0, End: 1, ID: 0}]; got != 1 {
		t.Errorf("prefix path count = %d", got)
	}
	if got := counts[Key{Start: 1, End: 1, ID: 0}]; got != 3 {
		t.Errorf("iteration path count = %d", got)
	}
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	if total != 5 { // 4 back-edge traversals + 1 final
		t.Errorf("total paths = %d, want 5", total)
	}
}

func TestTracerWithSimulator(t *testing.T) {
	// Wire the tracer to the machine and check global invariants on a
	// branchy benchmark.
	spec := buildBranchy()
	g, err := cfg.FromProgram(spec)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.MustNew(sim.DefaultConfig())
	tr := n.NewTracer()
	m.EdgeHook = tr.Edge
	res, err := m.Run(spec, ir.Input{Name: "in", Seed: 21}, volt.XScale3().Mode(2))
	if err != nil {
		t.Fatal(err)
	}
	m.EdgeHook = nil
	tr.Finish()

	// Total paths = back-edge traversals + 1. EdgeCountsByID follows the
	// graph's edge numbering, so counts pair with g.Edges without map lookups.
	backTraversals := int64(0)
	for id, c := range res.EdgeCountsByID {
		if e := g.Edges[id]; e.From != cfg.Entry && n.IsBackEdge(e) {
			backTraversals += c
		}
	}
	total := int64(0)
	for _, c := range tr.Counts() {
		total += c
	}
	if total != backTraversals+1 {
		t.Errorf("paths = %d, want back traversals %d + 1", total, backTraversals)
	}

	// Every recorded path must decode to a valid forward block sequence.
	for k := range tr.Counts() {
		seq, err := n.Decode(k)
		if err != nil {
			t.Fatalf("decode %+v: %v", k, err)
		}
		for i := 1; i < len(seq); i++ {
			e := cfg.Edge{From: seq[i-1], To: seq[i]}
			if g.EdgeID(e) < 0 || n.IsBackEdge(e) {
				t.Fatalf("decoded path uses invalid edge %v", e)
			}
		}
		if seq[0] != k.Start || seq[len(seq)-1] != k.End {
			t.Fatalf("decoded endpoints wrong: %v for %+v", seq, k)
		}
	}

	// Hot paths are ordered by count and decodable.
	hot, err := Hot(n, tr.Counts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].Count > hot[i-1].Count {
			t.Error("hot paths not sorted")
		}
	}
	if len(hot) == 0 || len(hot[0].Blocks) == 0 {
		t.Error("empty hot report")
	}
}

// buildBranchy is a loop with an if/else and a rare sub-branch.
func buildBranchy() *ir.Program {
	b := ir.NewBuilder("branchy")
	head := b.Block("head")
	yes := b.Block("yes")
	rare := b.Block("rare")
	no := b.Block("no")
	latch := b.Block("latch")
	exit := b.Block("exit")
	head.Compute(2)
	b.ProbBranch(head, yes, no, 0.7)
	yes.Compute(3)
	b.ProbBranch(yes, rare, latch, 0.1)
	rare.Compute(9)
	rare.Jump(latch)
	no.Compute(2)
	no.Jump(latch)
	latch.Compute(1)
	b.LoopBranch(latch, head, exit, 400)
	exit.Compute(1)
	exit.Exit()
	return b.MustFinish()
}

func TestDecodeRejectsBogusKey(t *testing.T) {
	g := diamond()
	n, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Decode(Key{Start: 0, End: 3, ID: 99}); err == nil {
		t.Error("bogus id decoded")
	}
	if _, err := n.Decode(Key{Start: 3, End: 0, ID: 0}); err == nil {
		t.Error("reversed endpoints decoded")
	}
}

func TestNestedLoops(t *testing.T) {
	// Nested loops: outer over inner; both back edges detected, tracing
	// consistent.
	b := ir.NewBuilder("nested")
	outer := b.Block("outer")
	inner := b.Block("inner")
	latch := b.Block("latch")
	exit := b.Block("exit")
	outer.Compute(1)
	outer.Jump(inner)
	inner.Compute(1)
	b.LoopBranch(inner, inner, latch, 3)
	latch.Compute(1)
	b.LoopBranch(latch, outer, exit, 4)
	exit.Compute(1)
	exit.Exit()
	prog := b.MustFinish()
	g, err := cfg.FromProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if !n.IsBackEdge(cfg.Edge{From: 1, To: 1}) || !n.IsBackEdge(cfg.Edge{From: 2, To: 0}) {
		t.Error("back edges not found")
	}

	m := sim.MustNew(sim.DefaultConfig())
	tr := n.NewTracer()
	m.EdgeHook = tr.Edge
	res, err := m.Run(prog, ir.Input{Seed: 1}, volt.XScale3().Mode(0))
	if err != nil {
		t.Fatal(err)
	}
	m.EdgeHook = nil
	tr.Finish()
	backTraversals := int64(0)
	for id, c := range res.EdgeCountsByID {
		if e := g.Edges[id]; e.From != cfg.Entry && n.IsBackEdge(e) {
			backTraversals += c
		}
	}
	total := int64(0)
	for _, c := range tr.Counts() {
		total += c
	}
	if total != backTraversals+1 {
		t.Errorf("paths = %d, want %d", total, backTraversals+1)
	}
}

// BenchmarkPathProfiling times one traced simulation of gsm/encode at scale
// 0.1: the machine's edge hook feeds a Ball-Larus tracer, as dvs-prof
// -hot-paths runs it.
func BenchmarkPathProfiling(b *testing.B) {
	spec := workloads.Gsm(0.1)
	g, err := cfg.FromProgram(spec.Program)
	if err != nil {
		b.Fatal(err)
	}
	numbering, err := New(g)
	if err != nil {
		b.Fatal(err)
	}
	m := sim.MustNew(sim.DefaultConfig())
	mode := volt.XScale3().Mode(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := numbering.NewTracer()
		m.EdgeHook = tr.Edge
		if _, err := m.Run(spec.Program, spec.Inputs[0], mode); err != nil {
			b.Fatal(err)
		}
		m.EdgeHook = nil
		tr.Finish()
	}
}
