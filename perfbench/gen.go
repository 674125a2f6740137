package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"ctdvs/internal/exp"
	"ctdvs/internal/workloads"
)

// scale is the workload scale every benchmark workload runs at.
const scale = 0.1

// req is one optimization request as the benchmark generates it: the
// dvs-opt flags, or a corpus task graph. The program sees only these fields
// (as flags of the in-process dvs-opt flow or as a POST /optimize body).
type req struct {
	Bench    string  `json:"bench,omitempty"`
	Input    int     `json:"input"`
	Graph    string  `json:"graph,omitempty"`
	Levels   int     `json:"levels"`
	Deadline int     `json:"deadline,omitempty"`
	CapF     float64 `json:"capacitance_f"`
	// Serve-only response options; they change the response, not the
	// answer.
	IncludeSchedule bool `json:"include_schedule,omitempty"`
	SkipMeasure     bool `json:"skip_measure,omitempty"`
}

// key identifies the answer a request must produce (response options
// excluded): the expected file is indexed by it.
func (r req) key() string {
	c := strconv.FormatFloat(r.CapF, 'g', -1, 64)
	if r.Graph != "" {
		return fmt.Sprintf("graph=%s levels=%d cap=%s", r.Graph, r.Levels, c)
	}
	return fmt.Sprintf("bench=%s input=%d levels=%d deadline=%d cap=%s", r.Bench, r.Input, r.Levels, r.Deadline, c)
}

var (
	levelChoices = []int{3, 7, 13}
	capChoices   = []float64{10e-6, 1e-6, 0.1e-6}
)

// requestSpace lists every distinct request the generator can draw: the six
// suite benchmarks with each of their inputs, and the corpus task graphs,
// under every level count, paper deadline and capacitance. It is finite, so
// the expected file can hold the answer to each.
func requestSpace() (singles, graphs []req) {
	specs := map[string]*workloads.Spec{}
	for _, s := range workloads.All(scale) {
		specs[s.Name] = s
	}
	for _, bench := range exp.Suite() {
		for in := range specs[bench].Inputs {
			for _, lv := range levelChoices {
				for dl := 1; dl <= 5; dl++ {
					for _, c := range capChoices {
						singles = append(singles, req{Bench: bench, Input: in, Levels: lv, Deadline: dl, CapF: c})
					}
				}
			}
		}
	}
	for _, gs := range workloads.Graphs() {
		for _, lv := range levelChoices {
			for _, c := range capChoices {
				graphs = append(graphs, req{Graph: gs.Name, Levels: lv, CapF: c})
			}
		}
	}
	return singles, graphs
}

// generator draws requests by seed in rounds. A round holds every suite
// benchmark at every level count and paper deadline once, and every corpus
// task graph at every level count once plus graphExtras more taken in turn
// from a fixed cycle over the graph-level cells — so one draw in six is a
// task graph — in shuffled order. Inputs are drawn at random; capacitances
// rotate, from a random start per benchmark-level-deadline (or graph-level)
// cell, so that any three consecutive rounds give every cell every
// capacitance once (a repeated graph cell takes the next one). Whole rounds
// keep the mix of costly and cheap requests the same from seed to seed,
// which keeps the timed statistics steady; the seed still decides every
// request.
type generator struct {
	rng    *rand.Rand
	inputs map[string]int
	graphs []string
	// capStart is each cell's capacitance rotation offset.
	capStart map[string]int
	rounds   int
	round    []req
}

// graphExtras tops each round's graph draws up to one in six.
const graphExtras = 3

func newGenerator(seed int64) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed)), inputs: map[string]int{}, capStart: map[string]int{}}
	for _, s := range workloads.All(scale) {
		g.inputs[s.Name] = len(s.Inputs)
	}
	for _, gs := range workloads.Graphs() {
		g.graphs = append(g.graphs, gs.Name)
	}
	return g
}

// next returns the next request, starting a new round when one ends.
func (g *generator) next() req {
	if len(g.round) == 0 {
		g.round = g.nextRound()
	}
	r := g.round[0]
	g.round = g.round[1:]
	return r
}

// nextRound returns a whole round.
func (g *generator) nextRound() []req {
	capF := func(r req, shift int) float64 {
		r.CapF = 0
		cell := r.key()
		off, ok := g.capStart[cell]
		if !ok {
			off = g.rng.Intn(len(capChoices))
			g.capStart[cell] = off
		}
		return capChoices[(off+g.rounds+shift)%len(capChoices)]
	}
	var ops []req
	for _, bench := range exp.Suite() {
		for _, lv := range levelChoices {
			for dl := 1; dl <= 5; dl++ {
				r := req{Bench: bench, Levels: lv, Deadline: dl}
				r.CapF = capF(r, 0)
				r.Input = g.rng.Intn(g.inputs[bench])
				ops = append(ops, r)
			}
		}
	}
	var cells []req
	for _, name := range g.graphs {
		for _, lv := range levelChoices {
			r := req{Graph: name, Levels: lv}
			r.CapF = capF(r, 0)
			cells = append(cells, r)
		}
	}
	ops = append(ops, cells...)
	for i := 0; i < graphExtras; i++ {
		r := cells[(g.rounds*graphExtras+i)%len(cells)]
		r.CapF = capF(r, 1)
		ops = append(ops, r)
	}
	g.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	g.rounds++
	return ops
}

// distinct draws n distinct requests for serving, ranked for the Zipf
// popularity draw. The candidates are the distinct requests of the seed's
// first three rounds, in drawn order. Rank p is then given to the next
// unused candidate of request kind p mod 7 (the six suite benchmarks in
// suite order, then the task graphs) and level count
// levelChoices[(p/7) mod 3], with response options in a fixed cycle: one
// in four asks for the schedule, one in four skips measurement. The cycles
// put the same kinds and sizes at the same ranks whatever the seed, so the
// head of the popularity curve, where one request takes a fifth of the
// traffic, has the same shape on every seed; the seed still decides the
// input, deadline and capacitance at each rank. That is a steadiness
// choice, not a usage one. A kind and level count with no candidate left
// hands its rank to the next one in the cycle that has one.
func (g *generator) distinct(n int) []req {
	type bucket struct {
		kind   string
		levels int
	}
	kinds := append(exp.Suite(), "graph")
	seen := map[string]bool{}
	buckets := map[bucket][]req{}
	for k := 0; k < 3; k++ {
		for _, r := range g.nextRound() {
			if seen[r.key()] {
				continue
			}
			seen[r.key()] = true
			kind := r.Bench
			if r.Graph != "" {
				kind = "graph"
			}
			b := bucket{kind, r.Levels}
			buckets[b] = append(buckets[b], r)
		}
	}
	n = min(n, len(seen))
	cycle := len(kinds) * len(levelChoices)
	var out []req
	for p := 0; len(out) < n; p++ {
		for k := 0; k < cycle; k++ {
			q := p + k
			b := bucket{kinds[q%len(kinds)], levelChoices[(q/len(kinds))%len(levelChoices)]}
			if len(buckets[b]) == 0 {
				continue
			}
			r := buckets[b][0]
			buckets[b] = buckets[b][1:]
			switch len(out) % 4 {
			case 0:
				r.IncludeSchedule = true
			case 1:
				r.SkipMeasure = true
			}
			out = append(out, r)
			break
		}
	}
	return out
}
