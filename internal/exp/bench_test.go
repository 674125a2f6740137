package exp

import (
	"testing"
	"time"

	"ctdvs/internal/milp"
	"ctdvs/internal/pipeline"
)

// BenchmarkPipelineColdVsWarm measures what the artifact store buys: one
// cold deadline sweep at scale 0.1 fills a disk store, then each timed
// iteration reruns the sweep from a process-fresh config over the same
// store, with no profile collection and no MILP solve. It fails unless
// every warm stage is a cache hit and the warm sweep is faster than the
// cold one.
func BenchmarkPipelineColdVsWarm(b *testing.B) {
	store, err := pipeline.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	sweep := func() *Config {
		c := NewConfig(0.1)
		c.MILP = &milp.Options{TimeLimit: 2 * time.Minute}
		c.Pipeline = pipeline.NewRunner(store)
		if _, err := DeadlineSweep(c); err != nil {
			b.Fatal(err)
		}
		return c
	}

	coldStart := time.Now()
	sweep()
	coldNs := float64(time.Since(coldStart).Nanoseconds())

	b.ResetTimer()
	var warm *Config
	for i := 0; i < b.N; i++ {
		warm = sweep()
	}
	b.StopTimer()

	if !warm.Pipeline.Manifest().AllHits() {
		b.Fatal("warm sweep recomputed stages")
	}
	warmNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	speedup := coldNs / warmNs
	b.ReportMetric(speedup, "speedup-cold-vs-warm")
	if speedup < 1 {
		b.Fatalf("warm sweep %.0f ns is slower than the cold sweep %.0f ns (speedup %.3f < 1)", warmNs, coldNs, speedup)
	}
}
