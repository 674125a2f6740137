package pipeline

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// retiredSidecar is the access-time index older builds kept beside the kind
// directories. Access times now live in artifact mtimes, so nothing reads
// it, and Compact deletes it.
const retiredSidecar = "atime.idx"

// KindDiskStats is the on-disk footprint of one artifact kind.
type KindDiskStats struct {
	Artifacts int   `json:"artifacts"`
	Bytes     int64 `json:"bytes"`
}

// DiskStats is the store's on-disk footprint, the /statsz store gauge.
type DiskStats struct {
	TotalArtifacts int                    `json:"total_artifacts"`
	TotalBytes     int64                  `json:"total_bytes"`
	Kinds          map[Kind]KindDiskStats `json:"kinds,omitempty"`
}

// EvictionStats are this process's lifetime Compact totals, the /statsz
// eviction gauges.
type EvictionStats struct {
	Compactions      int64 `json:"compactions"`
	EvictedArtifacts int64 `json:"evicted_artifacts"`
	EvictedBytes     int64 `json:"evicted_bytes"`
}

// Evictions returns the process-lifetime eviction gauges.
func (s *Store) Evictions() EvictionStats {
	return EvictionStats{
		Compactions:      s.compactions.Load(),
		EvictedArtifacts: s.evictedArtifacts.Load(),
		EvictedBytes:     s.evictedBytes.Load(),
	}
}

// DiskStats walks the store and reports per-kind artifact counts and bytes.
func (s *Store) DiskStats() (DiskStats, error) {
	ds := DiskStats{Kinds: make(map[Kind]KindDiskStats)}
	arts, _, err := s.scan()
	if err != nil {
		return ds, err
	}
	for _, a := range arts {
		ks := ds.Kinds[a.kind]
		ks.Artifacts++
		ks.Bytes += a.size
		ds.Kinds[a.kind] = ks
		ds.TotalArtifacts++
		ds.TotalBytes += a.size
	}
	return ds, nil
}

// CompactStats reports what one Compact call did.
type CompactStats struct {
	BudgetBytes      int64 `json:"budget_bytes"`
	BytesBefore      int64 `json:"bytes_before"`
	BytesAfter       int64 `json:"bytes_after"`
	EvictedArtifacts int   `json:"evicted_artifacts"`
	EvictedBytes     int64 `json:"evicted_bytes"`
	RemovedTemps     int   `json:"removed_temps"`
}

// artifact is one store file seen by scan.
type artifact struct {
	kind  Kind
	path  string
	size  int64
	mtime time.Time
}

// scan walks the store tree, returning every artifact file plus any stale
// temp files, in the root or a shard, old enough that no live writer can
// still own them.
func (s *Store) scan() ([]artifact, []string, error) {
	var arts []artifact
	var staleTemps []string
	tempCutoff := time.Now().Add(-10 * time.Minute)
	// temp reports whether the entry is a temp file, and records it when it
	// is stale.
	temp := func(dir string, fe os.DirEntry) bool {
		if !strings.HasPrefix(fe.Name(), ".tmp-") {
			return false
		}
		if info, err := fe.Info(); err == nil && info.ModTime().Before(tempCutoff) {
			staleTemps = append(staleTemps, filepath.Join(dir, fe.Name()))
		}
		return true
	}
	kinds, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: scan store: %w", err)
	}
	for _, kd := range kinds {
		if !kd.IsDir() {
			temp(s.dir, kd)
			continue
		}
		kind := Kind(kd.Name())
		kindDir := filepath.Join(s.dir, kd.Name())
		shards, err := os.ReadDir(kindDir)
		if err != nil {
			return nil, nil, fmt.Errorf("pipeline: scan %s: %w", kind, err)
		}
		for _, sd := range shards {
			if !sd.IsDir() {
				continue
			}
			shardDir := filepath.Join(kindDir, sd.Name())
			files, err := os.ReadDir(shardDir)
			if err != nil {
				return nil, nil, fmt.Errorf("pipeline: scan %s: %w", kind, err)
			}
			for _, fe := range files {
				if fe.IsDir() || temp(shardDir, fe) {
					continue
				}
				name := fe.Name()
				ext := filepath.Ext(name)
				key := Key(strings.TrimSuffix(name, ext))
				if (ext != FormatBinary.ext() && ext != FormatJSON.ext()) || key.Validate() != nil {
					continue
				}
				info, err := fe.Info()
				if err != nil {
					continue // deleted underneath us: concurrent compaction or writer
				}
				arts = append(arts, artifact{
					kind: kind, path: filepath.Join(shardDir, name),
					size: info.Size(), mtime: info.ModTime(),
				})
			}
		}
	}
	return arts, staleTemps, nil
}

// Compact enforces a size budget on the store: it removes stale temp files
// and the retired access-time sidecar, then — while the tree exceeds budget
// bytes — evicts artifacts least recently used first. An artifact's mtime
// is its last use: a Put sets it, and so does the runner when it serves the
// artifact as a disk hit, so the order is shared by every process over the
// directory without any index.
//
// Compact is safe to run concurrently with readers, including readers in
// other processes: eviction is plain unlink, and an artifact opened or
// mmap'd before its unlink stays fully readable through the held descriptor
// or mapping (POSIX keeps the inode alive), while a reader that loses the
// race sees a clean miss and recomputes.
func (s *Store) Compact(budget int64) (CompactStats, error) {
	if err := s.Flush(); err != nil {
		return CompactStats{}, err
	}
	st := CompactStats{BudgetBytes: budget}
	arts, staleTemps, err := s.scan()
	if err != nil {
		return st, err
	}
	for _, p := range staleTemps {
		if os.Remove(p) == nil {
			st.RemovedTemps++
		}
	}
	_ = os.Remove(filepath.Join(s.dir, retiredSidecar)) // absent unless an older build ran here
	var total int64
	for _, a := range arts {
		total += a.size
	}
	st.BytesBefore = total
	st.BytesAfter = total
	if budget <= 0 || total <= budget {
		return st, nil
	}

	sort.Slice(arts, func(i, j int) bool { return arts[i].mtime.Before(arts[j].mtime) })
	for _, a := range arts {
		if total <= budget {
			break
		}
		if os.Remove(a.path) != nil {
			continue
		}
		total -= a.size
		st.EvictedArtifacts++
		st.EvictedBytes += a.size
		s.evictedArtifacts.Add(1)
		s.evictedBytes.Add(a.size)
	}
	st.BytesAfter = total
	s.compactions.Add(1)
	return st, nil
}
