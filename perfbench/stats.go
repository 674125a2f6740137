package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail returns the highest whole percentile (50..99) that has at least
// minBeyond samples above it, its nearest-rank value, and how many samples
// lie beyond it. With too few samples for even the median to qualify it
// reports the median and however many samples exceed it.
func tail(xs []float64) (value float64, pct int, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := sorted(xs)
	rank := func(p int) int { return int(math.Ceil(float64(p) * float64(n) / 100)) }
	for p := 99; p >= 50; p-- {
		if k := rank(p); n-k >= minBeyond {
			return s[k-1], p, n - k
		}
	}
	m := median(s)
	for _, x := range s {
		if x > m {
			beyond++
		}
	}
	return m, 50, beyond
}

// geomean returns the geometric mean of positive xs; 0 if there are none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// latencies collects per-operation wall times of one kind. A failed
// operation is recorded as +Inf, so it misses every latency limit and sits
// in the tail rather than vanishing from it.
type latencies struct{ ms []float64 }

func (l *latencies) ok(ms float64) { l.ms = append(l.ms, ms) }
func (l *latencies) failed()       { l.ms = append(l.ms, math.Inf(1)) }

// windowStats holds latency statistics per window of a timed phase.
type windowStats struct {
	p50, tail        []float64
	ops, pct, beyond int
}

func (w *windowStats) add(lat []float64) {
	tv, pct, beyond := tail(lat)
	w.p50 = append(w.p50, median(lat))
	w.tail = append(w.tail, tv)
	w.ops, w.pct, w.beyond = len(lat), pct, beyond
}
