// Command dvs-cache inspects and garbage-collects the artifact store the
// other dvs-* tools share. Without -budget it reports the store's on-disk
// footprint per artifact kind; with -budget it runs Store.Compact, removing
// stale temp files and then evicting least-recently-used artifacts until the
// store fits the budget. An artifact's last use is its file mtime, which a
// write or a disk hit sets. Eviction is unlink-based and safe while other
// processes read (or serve from) the same store: a reader holding an
// artifact open keeps it readable, a reader that misses recomputes.
//
// Usage:
//
//	dvs-cache -cache-dir .dvs-cache                  # footprint report
//	dvs-cache -cache-dir .dvs-cache -budget 256MiB   # compact to 256 MiB
//	dvs-cache -cache-dir .dvs-cache -budget 1GiB -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"ctdvs/internal/pipeline"
)

func main() {
	dir := flag.String("cache-dir", "", "artifact cache directory (required)")
	budget := flag.String("budget", "", "size budget to compact to, e.g. 500000000, 256MiB, 2GiB (empty = report only)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "dvs-cache: %v\n", err)
		os.Exit(1)
	}
	if *dir == "" {
		die(fmt.Errorf("-cache-dir is required"))
	}
	store, err := pipeline.Open(*dir)
	if err != nil {
		die(err)
	}

	var compacted *pipeline.CompactStats
	if *budget != "" {
		bytes, err := parseSize(*budget)
		if err != nil {
			die(err)
		}
		cs, err := store.Compact(bytes)
		if err != nil {
			die(err)
		}
		compacted = &cs
	}
	ds, err := store.DiskStats()
	if err != nil {
		die(err)
	}

	if *jsonOut {
		out := struct {
			Dir     string                 `json:"dir"`
			Store   pipeline.DiskStats     `json:"store"`
			Compact *pipeline.CompactStats `json:"compact,omitempty"`
		}{Dir: store.Dir(), Store: ds, Compact: compacted}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			die(err)
		}
		return
	}

	fmt.Printf("store %s: %d artifact(s), %s\n", store.Dir(), ds.TotalArtifacts, fmtSize(ds.TotalBytes))
	kinds := make([]string, 0, len(ds.Kinds))
	for k := range ds.Kinds {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		ks := ds.Kinds[pipeline.Kind(k)]
		fmt.Printf("  %-10s %6d artifact(s)  %s\n", k, ks.Artifacts, fmtSize(ks.Bytes))
	}
	if compacted != nil {
		fmt.Printf("compacted to budget %s: %s -> %s (evicted %d artifact(s), %s; %d stale temp(s))\n",
			fmtSize(compacted.BudgetBytes), fmtSize(compacted.BytesBefore), fmtSize(compacted.BytesAfter),
			compacted.EvictedArtifacts, fmtSize(compacted.EvictedBytes), compacted.RemovedTemps)
	}
}

// parseSize parses a byte count with an optional binary or decimal suffix:
// "1048576", "256KiB", "1.5GiB", "2GB", "512M". The count must be finite,
// non-negative and below 2^63 bytes, the range of an int64.
func parseSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	upper := strings.ToUpper(t)
	for _, suf := range []struct {
		name string
		mult int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30}, {"TIB", 1 << 40},
		{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9}, {"TB", 1e12},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"T", 1 << 40},
		{"B", 1},
	} {
		if strings.HasSuffix(upper, suf.name) {
			mult = suf.mult
			t = strings.TrimSpace(t[:len(t)-len(suf.name)])
			break
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil || math.IsNaN(v) || v < 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	n := v * float64(mult)
	if n >= 1<<63 {
		return 0, fmt.Errorf("size %q out of range: must be below 2^63 bytes", s)
	}
	return int64(n), nil
}

// fmtSize renders bytes with a binary suffix, one decimal.
func fmtSize(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGT"[exp])
}
