package serve

import (
	"sort"
	"sync"
	"sync/atomic"

	"ctdvs/internal/pipeline"
)

// latencyWindow is the number of recent request latencies kept for the
// percentile estimates in /statsz. A power of two keeps the ring arithmetic
// cheap; ~2k samples is plenty for stable p99 under load.
const latencyWindow = 2048

// latencyRing is a fixed-size ring of completed-request latencies in
// milliseconds. Recording is a mutex-guarded store (cheap next to the
// requests it measures); percentiles sort a snapshot on demand.
type latencyRing struct {
	mu  sync.Mutex
	buf [latencyWindow]float64
	n   int64 // total ever recorded; buf holds the last min(n, window)
}

func (l *latencyRing) add(ms float64) {
	l.mu.Lock()
	l.buf[l.n%latencyWindow] = ms
	l.n++
	l.mu.Unlock()
}

// LatencyStats summarizes the recent-latency window for /statsz.
type LatencyStats struct {
	Count int64   `json:"count"` // total requests measured (window holds the tail)
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

func (l *latencyRing) snapshot() LatencyStats {
	l.mu.Lock()
	n := l.n
	size := int(min(n, latencyWindow))
	samples := make([]float64, size)
	copy(samples, l.buf[:size])
	l.mu.Unlock()

	st := LatencyStats{Count: n}
	if size == 0 {
		return st
	}
	sort.Float64s(samples)
	// Nearest-rank percentiles over the window.
	rank := func(p float64) float64 {
		i := int(p*float64(size)+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= size {
			i = size - 1
		}
		return samples[i]
	}
	st.P50MS = rank(0.50)
	st.P90MS = rank(0.90)
	st.P99MS = rank(0.99)
	st.MaxMS = samples[size-1]
	return st
}

// stats holds the server's monotonic counters. Everything is atomic so the
// hot path never contends on more than the latency ring's mutex.
type stats struct {
	requests    atomic.Int64 // decoded, valid /optimize requests
	completed   atomic.Int64 // 200s
	infeasible  atomic.Int64 // 200s reporting no feasible schedule
	badRequests atomic.Int64 // 400s
	rejected    atomic.Int64 // 429s (queue full) and 503s (draining)
	cancelled   atomic.Int64 // client disconnects and request timeouts
	failed      atomic.Int64 // 500s
	coalesced   atomic.Int64 // requests served by another request's flight

	// analyticPrunes accumulates milp.Result.AnalyticPrunes over every solve
	// the server reported (cached responses replay the artifact's count, so
	// warm and cold servers agree for the same request stream).
	analyticPrunes atomic.Int64

	latency latencyRing
}

// Stats is the /statsz document.
type Stats struct {
	UptimeS float64 `json:"uptime_s"`

	Requests    int64 `json:"requests"`
	Completed   int64 `json:"completed"`
	Infeasible  int64 `json:"infeasible"`
	BadRequests int64 `json:"bad_requests"`
	Rejected    int64 `json:"rejected"`
	Cancelled   int64 `json:"cancelled"`
	Failed      int64 `json:"failed"`
	Coalesced   int64 `json:"coalesced"`

	// AnalyticPrunes is the running total of branch-and-bound children the
	// analytic dual bound discarded across all solves this server reported.
	AnalyticPrunes int64 `json:"analytic_prunes"`

	// Workers/QueueDepth are the configured limits; Active/Queued the
	// current occupancy (Queued excludes the Active requests).
	Workers    int  `json:"workers"`
	QueueDepth int  `json:"queue_depth"`
	Active     int  `json:"active"`
	Queued     int  `json:"queued"`
	Draining   bool `json:"draining"`

	Latency LatencyStats `json:"latency"`

	// Cache aggregates the pipeline manifest per stage: misses are real
	// simulations/solves, disk and memory hits were served from artifacts.
	Cache map[pipeline.Kind]pipeline.KindStats `json:"cache"`

	// Store is the disk store's on-disk footprint and eviction gauges;
	// absent when the server runs memory-only.
	Store *StoreStats `json:"store,omitempty"`
}

// StoreStats is the /statsz store gauge group: the on-disk footprint per
// artifact kind plus this process's compaction/eviction totals.
type StoreStats struct {
	Dir            string                                   `json:"dir"`
	TotalArtifacts int                                      `json:"total_artifacts"`
	TotalBytes     int64                                    `json:"total_bytes"`
	Kinds          map[pipeline.Kind]pipeline.KindDiskStats `json:"kinds,omitempty"`

	// BudgetBytes is the configured compaction budget (0: compaction off).
	BudgetBytes int64 `json:"budget_bytes,omitempty"`

	Evictions pipeline.EvictionStats `json:"evictions"`
}
