package pipeline

import (
	"fmt"
	"os"
)

// Mapping is one artifact's bytes handed out by ReadMapped: an mmap'd,
// page-cache-backed window when the platform supports it, a plain copied
// buffer otherwise. Either way Bytes is valid until Release.
//
// Lifetime rules for borrow-mode decoding (NewBinReaderBorrow over
// m.Bytes()): every slice the decoder borrowed aliases the mapping, so
// Release must not run until the decoded value is dead. Mappings are
// MAP_PRIVATE copy-on-write, so a consumer that writes through a borrowed
// slice mutates private pages, never the store; and POSIX keeps the mapped
// pages valid after the file is renamed over or unlinked, which is what
// makes Compact safe to run under concurrent mapped readers.
type Mapping struct {
	data   []byte
	mapped bool
}

// Bytes returns the artifact contents. Nil after Release.
func (m *Mapping) Bytes() []byte { return m.data }

// Mapped reports whether the bytes are an mmap'd window rather than a copy —
// false on platforms without mmap and for empty files.
func (m *Mapping) Mapped() bool { return m.mapped }

// Release unmaps (or frees) the bytes. It is safe to call twice and on nil.
// After Release every slice that aliased the mapping is invalid.
func (m *Mapping) Release() error {
	if m == nil || m.data == nil {
		return nil
	}
	data, mapped := m.data, m.mapped
	m.data, m.mapped = nil, false
	if mapped {
		return munmapFile(data)
	}
	return nil
}

// readMapped maps one file, falling back to a copying read when mmap is
// unavailable or fails (and for empty files, which cannot be mapped).
func readMapped(path string) (*Mapping, bool, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	if mmapSupported {
		if st, err := f.Stat(); err == nil && st.Size() > 0 {
			if data, err := mmapFile(f, int(st.Size())); err == nil {
				return &Mapping{data: data, mapped: true}, true, nil
			}
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	return &Mapping{data: data}, true, nil
}

// ReadMapped returns the artifact stored for (kind, key) in format f as a
// Mapping, and whether it was present. The zero-copy counterpart of Get: a
// mapped binary artifact can be decoded in borrow mode with no intermediate
// copy. The caller must Release the mapping — but only after every value
// decoded from it in borrow mode is dead.
func (s *Store) ReadMapped(kind Kind, key Key, f Format) (*Mapping, bool, error) {
	if err := key.Validate(); err != nil {
		return nil, false, err
	}
	if data, ok := s.batch.getPending(kind, key, f); ok {
		return &Mapping{data: append([]byte(nil), data...)}, true, nil
	}
	m, ok, err := readMapped(s.Path(kind, key, f))
	if err != nil {
		return nil, false, fmt.Errorf("pipeline: read mapped %s/%s: %w", kind, key, err)
	}
	return m, ok, nil
}
