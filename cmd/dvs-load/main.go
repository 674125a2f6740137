// Command dvs-load drives a running dvs-serve with concurrent optimization
// requests and reports throughput and latency percentiles. It is the
// client-side half of the serving benchmarks: point it at a cold server to
// watch solves happen, run it again to watch the artifact cache absorb the
// same traffic.
//
// Usage:
//
//	dvs-load -addr http://localhost:8080 -bench gsm/encode -n 64 -c 8
//	dvs-load -addr http://localhost:8080 -bench mpeg/decode -n 50 -c 10 -spread
//
// With -spread, requests cycle through the five paper deadlines so the
// server sees five distinct problems instead of one coalescable key.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type request struct {
	Bench       string  `json:"bench"`
	Input       int     `json:"input"`
	Levels      int     `json:"levels,omitempty"`
	Deadline    int     `json:"deadline,omitempty"`
	DeadlineUS  float64 `json:"deadline_us,omitempty"`
	Capacitance float64 `json:"capacitance_f,omitempty"`
	SkipMeasure bool    `json:"skip_measure,omitempty"`
	TimeoutMS   int64   `json:"timeout_ms,omitempty"`
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "server base URL")
	bench := flag.String("bench", "adpcm/encode", "benchmark name")
	input := flag.Int("input", 0, "input index")
	levels := flag.Int("levels", 3, "voltage levels (3, 7 or 13)")
	deadline := flag.Int("deadline", 3, "paper deadline number (1..5)")
	spread := flag.Bool("spread", false, "cycle requests through deadlines 1..5 (distinct problems, no coalescing)")
	n := flag.Int("n", 32, "total requests")
	c := flag.Int("c", 8, "concurrent clients")
	skipMeasure := flag.Bool("skip-measure", false, "ask the server to skip the validation simulation")
	timeoutMS := flag.Int64("timeout-ms", 0, "per-request timeout_ms field (0 = server default)")
	flag.Parse()
	if *n < 1 || *c < 1 {
		fmt.Fprintf(os.Stderr, "dvs-load: -n %d -c %d: want at least one request and one client\n", *n, *c)
		os.Exit(1)
	}

	bodies := make([][]byte, *n)
	for i := range bodies {
		req := request{
			Bench: *bench, Input: *input, Levels: *levels,
			Deadline: *deadline, SkipMeasure: *skipMeasure, TimeoutMS: *timeoutMS,
		}
		if *spread {
			req.Deadline = 1 + i%5
		}
		b, err := json.Marshal(req)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvs-load: %v\n", err)
			os.Exit(1)
		}
		bodies[i] = b
	}

	var (
		next      atomic.Int64
		mu        sync.Mutex
		latencies []float64
		status    = make(map[int]int)
		errs      int
		firstErr  error
	)
	client := &http.Client{}
	url := *addr + "/optimize"

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i]))
				ms := float64(time.Since(t0).Microseconds()) / 1e3
				mu.Lock()
				if err != nil {
					errs++
					if firstErr == nil {
						firstErr = err
					}
				} else {
					status[resp.StatusCode]++
					latencies = append(latencies, ms)
				}
				mu.Unlock()
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if errs > 0 {
		fmt.Fprintf(os.Stderr, "dvs-load: %d transport errors (first: %v)\n", errs, firstErr)
	}
	codes := make([]int, 0, len(status))
	for code := range status {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Printf("HTTP %d: %d\n", code, status[code])
	}
	if len(latencies) == 0 {
		os.Exit(1)
	}
	sort.Float64s(latencies)
	pct := func(p float64) float64 {
		i := int(p*float64(len(latencies))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(latencies) {
			i = len(latencies) - 1
		}
		return latencies[i]
	}
	fmt.Printf("%d requests in %v: %.1f req/s\n",
		len(latencies), elapsed.Round(time.Millisecond),
		float64(len(latencies))/elapsed.Seconds())
	fmt.Printf("latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
		pct(0.50), pct(0.90), pct(0.99), latencies[len(latencies)-1])
}
