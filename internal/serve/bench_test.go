package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctdvs/internal/exp"
	"ctdvs/internal/pipeline"
)

// BenchmarkServeLatency measures the server under concurrent load: 40
// gsm/encode requests at scale 0.1 cycling the five paper deadlines (five
// distinct problems plus heavy duplication) from 8 clients. One cold pass
// over a fresh store solves the five problems; each timed iteration is a
// warm pass by a process-fresh server over the filled store, answered from
// artifacts alone. It fails unless the warm pass is all cache hits and
// serves more requests per second than the cold one.
func BenchmarkServeLatency(b *testing.B) {
	const (
		clients  = 8
		requests = 40
	)
	dir := b.TempDir()
	bodies := make([]string, requests)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"bench":"gsm/encode","deadline":%d}`, 1+i%5)
	}
	// pass starts a server over dir's store, fires every body at it from
	// the clients, and returns the config (for its manifest), the sorted
	// request latencies in ms and the throughput in requests per second.
	pass := func() (*exp.Config, []float64, float64) {
		store, err := pipeline.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		c := exp.NewConfig(0.1)
		c.Pipeline = pipeline.NewRunner(store)
		ts := httptest.NewServer(New(c, Options{Workers: runtime.GOMAXPROCS(0), QueueDepth: requests}).Handler())
		defer ts.Close()
		latencies := make([]float64, len(bodies))
		var next atomic.Int64
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(bodies); i = int(next.Add(1)) - 1 {
					t0 := time.Now()
					resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(bodies[i]))
					if err != nil {
						b.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Errorf("request %d: HTTP %d", i, resp.StatusCode)
						return
					}
					latencies[i] = float64(time.Since(t0).Microseconds()) / 1e3
				}
			}()
		}
		wg.Wait()
		reqPS := float64(len(bodies)) / time.Since(start).Seconds()
		sort.Float64s(latencies)
		return c, latencies, reqPS
	}

	coldCfg, _, coldReqPS := pass()
	if got := coldCfg.Pipeline.Manifest().Stats()[pipeline.StageSolve].Misses; got != 5 {
		b.Fatalf("cold pass solve misses = %d, want 5 (one per deadline)", got)
	}

	b.ResetTimer()
	var warmLat []float64
	var warmReqPS float64
	for i := 0; i < b.N; i++ {
		var warmCfg *exp.Config
		warmCfg, warmLat, warmReqPS = pass()
		if !warmCfg.Pipeline.Manifest().AllHits() {
			b.Fatal("warm pass recomputed stages")
		}
	}
	b.StopTimer()

	speedup := warmReqPS / coldReqPS
	b.ReportMetric(warmLat[len(warmLat)/2], "warm-p50-ms")
	b.ReportMetric(speedup, "speedup-warm-vs-cold")
	if speedup < 1 {
		b.Fatalf("warm pass %.1f req/s is slower than the cold pass %.1f req/s (speedup %.3f < 1)", warmReqPS, coldReqPS, speedup)
	}
}
