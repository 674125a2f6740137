package pipeline

import (
	"bytes"
	"os"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// alignedCopy returns data copied into a buffer whose first byte sits on an
// 8-byte boundary (plus the same bytes at boundary+1 for the misaligned
// variant). Heap allocations are usually 8-aligned anyway; forcing it keeps
// the aliasing assertions deterministic.
func alignedCopy(data []byte, skew int) []byte {
	buf := make([]byte, len(data)+16)
	off := 0
	for uintptr(unsafe.Pointer(&buf[off]))%8 != 0 {
		off++
	}
	off += skew
	copy(buf[off:], data)
	return buf[off : off+len(data)]
}

// borrowFixture encodes one artifact exercising every aliasable run type.
func borrowFixture() (art []byte, u64 []uint64, u32 []uint32, fl []float64) {
	u64 = []uint64{0, 1, 1<<64 - 1, 0xdeadbeefcafe}
	u32 = []uint32{7, 0, 1<<32 - 1, 42, 9}
	fl = []float64{0, -1.5, 3.25e300, 1e-9}
	w := NewBinWriter(BinTagSolve, 256)
	w.Uvarint(99) // leading field so runs do not start at offset 6
	w.Uint64s(u64)
	w.Uint32s(u32)
	w.Pad8()
	w.FloatsRaw(fl)
	w.String("tail") // trailing field so aliased runs are interior
	return w.Bytes(), u64, u32, fl
}

func decodeBorrowFixture(t *testing.T, r *BinReader) (u64 []uint64, u32 []uint32, fl []float64) {
	t.Helper()
	if got := r.Uvarint(); got != 99 {
		t.Fatalf("leading field = %d", got)
	}
	u64 = r.Uint64s()
	u32 = r.Uint32s()
	r.Pad8()
	fl = r.FloatsBorrow(4)
	if got := r.String(); got != "tail" {
		t.Fatalf("trailing field = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	return u64, u32, fl
}

// sameBacking reports whether slice element 0 lives inside data.
func sameBacking[T any](vs []T, data []byte) bool {
	if len(vs) == 0 || len(data) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(&vs[0]))
	lo := uintptr(unsafe.Pointer(&data[0]))
	return p >= lo && p < lo+uintptr(len(data))
}

// TestBinReaderBorrowAliases is the zero-copy contract: over an 8-aligned
// buffer on a little-endian host, borrow-mode word runs alias the input and
// decode to exactly what the copying reader produces.
func TestBinReaderBorrowAliases(t *testing.T) {
	art, wantU64, wantU32, wantFl := borrowFixture()
	data := alignedCopy(art, 0)

	cr, err := NewBinReader(data, BinTagSolve)
	if err != nil {
		t.Fatal(err)
	}
	cu64, cu32, cfl := decodeBorrowFixture(t, cr)

	br, err := NewBinReaderBorrow(data, BinTagSolve)
	if err != nil {
		t.Fatal(err)
	}
	bu64, bu32, bfl := decodeBorrowFixture(t, br)

	if !reflect.DeepEqual(bu64, wantU64) || !reflect.DeepEqual(bu32, wantU32) || !reflect.DeepEqual(bfl, wantFl) {
		t.Fatalf("borrow decode wrong:\nu64 %v\nu32 %v\nfl  %v", bu64, bu32, bfl)
	}
	if !reflect.DeepEqual(bu64, cu64) || !reflect.DeepEqual(bu32, cu32) || !reflect.DeepEqual(bfl, cfl) {
		t.Fatal("borrow and copy decodes disagree")
	}
	if sameBacking(cu64, data) || sameBacking(cu32, data) || sameBacking(cfl, data) {
		t.Error("copy-mode reader aliased its input")
	}
	if !hostLittleEndian {
		t.Skip("big-endian host: borrow mode copies by design")
	}
	if !sameBacking(bu64, data) {
		t.Error("borrow-mode Uint64s copied an aligned run")
	}
	if !sameBacking(bu32, data) {
		t.Error("borrow-mode Uint32s copied an aligned run")
	}
	if !sameBacking(bfl, data) {
		t.Error("borrow-mode FloatsBorrow copied an aligned run")
	}
}

// TestBinReaderBorrowMisalignedCopies skews the artifact off the 8-byte
// boundary: borrow mode must fall back to copying and still decode the exact
// same values. This is the safety net mmap never needs (mappings are
// page-aligned) but pending-batch reads and exotic platforms do.
func TestBinReaderBorrowMisalignedCopies(t *testing.T) {
	art, wantU64, wantU32, wantFl := borrowFixture()
	for skew := 1; skew < 8; skew++ {
		data := alignedCopy(art, skew)
		r, err := NewBinReaderBorrow(data, BinTagSolve)
		if err != nil {
			t.Fatal(err)
		}
		u64, u32, fl := decodeBorrowFixture(t, r)
		if !reflect.DeepEqual(u64, wantU64) || !reflect.DeepEqual(u32, wantU32) || !reflect.DeepEqual(fl, wantFl) {
			t.Fatalf("skew %d: misaligned borrow decode wrong", skew)
		}
		if sameBacking(u64, data) || sameBacking(fl, data) {
			t.Fatalf("skew %d: misaligned run aliased anyway", skew)
		}
	}
}

// TestBinReaderPad8Canonical holds padding to being canonical: nonzero pad
// bytes and truncation inside the pad are framing errors, not ignored slack.
func TestBinReaderPad8Canonical(t *testing.T) {
	// Header (6 bytes) + count uvarint (1 byte) leaves the cursor at 7, so
	// Uint64s pads one zero byte before the word run.
	w := NewBinWriter(BinTagSolve, 32)
	w.Uint64s([]uint64{5})
	art := append([]byte(nil), w.Bytes()...)
	if len(art) != 16 {
		t.Fatalf("fixture is %d bytes, want 16 (1 pad byte at offset 7)", len(art))
	}
	art[7] = 0xAA
	r, err := NewBinReader(art, BinTagSolve)
	if err != nil {
		t.Fatal(err)
	}
	r.Uint64s()
	if r.Err() == nil {
		t.Error("nonzero pad byte accepted")
	}
}

// TestReadMapped covers the mapped read front door: round-trip bytes, one
// file per format, the pending-batch copy path, and Release being idempotent
// and nil-safe.
func TestReadMapped(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("mapped")
	if m, ok, err := s.ReadMapped(StageProfile, key, FormatBinary); err != nil || ok || m != nil {
		t.Fatalf("empty store: m=%v ok=%v err=%v", m, ok, err)
	}
	payload := bytes.Repeat([]byte("mapped artifact "), 64)
	if err := s.Put(StageProfile, key, payload, FormatBinary); err != nil {
		t.Fatal(err)
	}
	if m, ok, err := s.ReadMapped(StageProfile, key, FormatJSON); err != nil || ok || m != nil {
		t.Fatalf("JSON read of a binary artifact: m=%v ok=%v err=%v", m, ok, err)
	}
	m, ok, err := s.ReadMapped(StageProfile, key, FormatBinary)
	if err != nil || !ok {
		t.Fatalf("read mapped: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(m.Bytes(), payload) {
		t.Fatal("mapped bytes differ from what was put")
	}
	if mmapSupported && !m.Mapped() {
		t.Error("platform has mmap but read fell back to a copy")
	}
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
	if m.Bytes() != nil || m.Mapped() {
		t.Error("Release did not clear the mapping")
	}
	if err := m.Release(); err != nil {
		t.Error("second Release errored:", err)
	}
	var nilM *Mapping
	if err := nilM.Release(); err != nil {
		t.Error("nil Release errored:", err)
	}
}

// TestReadMappedPendingBatch asserts read-your-writes through the batcher:
// an unflushed Put is visible to ReadMapped as a private copy.
func TestReadMappedPendingBatch(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableWriteBatching(BatchConfig{MaxPending: 1 << 20, MaxDelay: time.Hour})
	defer s.Close()
	key := testKey("pending-mapped")
	if err := s.Put(StageProfile, key, []byte("buffered"), FormatBinary); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.Path(StageProfile, key, FormatBinary)); !os.IsNotExist(err) {
		t.Fatal("pending artifact already on disk")
	}
	m, ok, err := s.ReadMapped(StageProfile, key, FormatBinary)
	if err != nil || !ok || string(m.Bytes()) != "buffered" {
		t.Fatalf("pending read: %q ok=%v err=%v", m.Bytes(), ok, err)
	}
	if m.Mapped() {
		t.Error("pending artifact claims to be a mapping")
	}
	m.Release()
}

// TestMappingUnlinkedStaysReadable is the Compact-vs-reader guarantee in
// miniature: a mapping taken before the file is unlinked stays fully
// readable afterwards.
func TestMappingUnlinkedStaysReadable(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("unlinked")
	payload := bytes.Repeat([]byte("x"), 4096)
	if err := s.Put(StageProfile, key, payload, FormatBinary); err != nil {
		t.Fatal(err)
	}
	m, ok, err := s.ReadMapped(StageProfile, key, FormatBinary)
	if err != nil || !ok || !m.Mapped() {
		t.Fatalf("ok=%v mapped=%v err=%v", ok, m.Mapped(), err)
	}
	defer m.Release()
	if err := os.Remove(s.Path(StageProfile, key, FormatBinary)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Bytes(), payload) {
		t.Fatal("mapping changed after unlink")
	}
}
