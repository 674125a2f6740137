package pipeline

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// This file provides the length-prefixed binary artifact framing shared by
// the large artifact kinds (recordings, profiles, solve results, graph
// solves). It is those stages' only on-disk codec: the binary form skips
// base64 round trips, field-name tokenization and per-field reflection,
// which is what makes warm fleet-scale sweeps store-bound rather than
// codec-bound.
//
// Framing: every binary artifact opens with the 4-byte magic "CTDB", one
// format-version byte and one artifact-tag byte, followed by tag-specific
// fields. Variable-length data is length-prefixed (uvarint counts, raw
// little-endian payloads); decoders must bound every claimed length against
// the remaining input before allocating, which BinReader's Uint64s/Bytes
// helpers do for them (the FuzzDecodeRecording lesson: reject oversized or
// negative lengths before make()).
//
// Version 2 pads every raw word run (Uint32s, Uint64s, and explicit Pad8
// points before FloatsRaw runs) with zero bytes to an 8-byte boundary
// measured from the start of the artifact. Since mmap'd artifacts are
// page-aligned, a borrow-mode reader (NewBinReaderBorrow) can then return
// slices that alias the mapping directly instead of copying — the zero-copy
// warm path. Old version-1 artifacts fail the frame check and re-miss
// safely, like every previous codec bump.

// Binary artifact magic and format version.
var binMagic = [4]byte{'C', 'T', 'D', 'B'}

// BinVersion is the version byte every binary artifact carries. Version 2
// introduced alignment padding before raw word runs and the raw []uint32
// trace layout.
const BinVersion = 2

// Artifact tags, one per binary-capable artifact layout. Tags are part of the
// frame so a decoder can never misinterpret one kind's payload as another's.
const (
	BinTagRecording  uint8 = 1
	BinTagProfile    uint8 = 2
	BinTagSolve      uint8 = 3
	BinTagGraphSolve uint8 = 4
)

// IsBinaryArtifact reports whether data opens with the binary artifact magic.
// NewBinReader uses it to reject anything else, such as a JSON artifact
// (which begins with '{'), before decoding.
func IsBinaryArtifact(data []byte) bool {
	return len(data) >= 4 && [4]byte(data[:4]) == binMagic
}

// BinWriter accumulates one binary artifact. The zero value is not ready;
// use NewBinWriter, which writes the frame header.
type BinWriter struct {
	buf []byte
}

// NewBinWriter starts an artifact of the given tag, with capacity sizeHint.
func NewBinWriter(tag uint8, sizeHint int) *BinWriter {
	w := &BinWriter{buf: make([]byte, 0, 6+sizeHint)}
	w.buf = append(w.buf, binMagic[:]...)
	w.buf = append(w.buf, BinVersion, tag)
	return w
}

// Bytes returns the encoded artifact.
func (w *BinWriter) Bytes() []byte { return w.buf }

// Uvarint appends an unsigned varint.
func (w *BinWriter) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Varint appends a signed varint.
func (w *BinWriter) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Float appends a float64 as its IEEE-754 bits, little-endian.
func (w *BinWriter) Float(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// Bool appends a boolean as one byte.
func (w *BinWriter) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// String appends a length-prefixed string.
func (w *BinWriter) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Pad8 appends zero bytes until the next write lands on an 8-byte boundary
// measured from the artifact's first byte. Raw word runs written after a pad
// are alignment-eligible for borrow-mode readers.
func (w *BinWriter) Pad8() {
	for len(w.buf)%8 != 0 {
		w.buf = append(w.buf, 0)
	}
}

// Uint64s appends a length-prefixed []uint64 as raw little-endian words,
// padded to an 8-byte boundary so borrow-mode readers can alias the run.
func (w *BinWriter) Uint64s(vs []uint64) {
	w.Uvarint(uint64(len(vs)))
	w.Pad8()
	for _, v := range vs {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	}
}

// Uint32s appends a length-prefixed []uint32 as raw little-endian words,
// padded to an 8-byte boundary so borrow-mode readers can alias the run.
func (w *BinWriter) Uint32s(vs []uint32) {
	w.Uvarint(uint64(len(vs)))
	w.Pad8()
	for _, v := range vs {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	}
}

// Int64s appends a length-prefixed []int64 as varints.
func (w *BinWriter) Int64s(vs []int64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Varint(v)
	}
}

// Floats appends a length-prefixed []float64 as raw IEEE-754 words.
func (w *BinWriter) Floats(vs []float64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Float(v)
	}
}

// BinReader consumes one binary artifact. Every read method is
// error-latching: after the first malformed field the reader returns zero
// values, so decoders can read a whole layout and check Err once — but they
// MUST check Err before trusting any length-derived allocation they perform
// themselves (the provided slice readers bound lengths internally).
//
// A plain BinReader (NewBinReader) never retains or aliases the input: all
// slice reads copy, so the store can hand it a pooled buffer. A borrow-mode
// reader (NewBinReaderBorrow) instead returns slices that alias the input
// for aligned raw word runs — see NewBinReaderBorrow for the lifetime
// contract.
type BinReader struct {
	data   []byte
	err    error
	tag    uint8
	full   int  // original payload length, for absolute-offset alignment
	borrow bool // raw word runs may alias data instead of copying
}

// hostLittleEndian reports whether this host stores multi-byte words
// little-endian, the precondition for aliasing raw LE runs in place.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// NewBinReader validates the frame header (magic, version, tag) and positions
// the reader at the first payload field.
func NewBinReader(data []byte, tag uint8) (*BinReader, error) {
	if !IsBinaryArtifact(data) {
		return nil, fmt.Errorf("pipeline: not a binary artifact")
	}
	if len(data) < 6 {
		return nil, fmt.Errorf("pipeline: binary artifact truncated inside the frame header")
	}
	if data[4] != BinVersion {
		return nil, fmt.Errorf("pipeline: binary artifact version %d, want %d", data[4], BinVersion)
	}
	if data[5] != tag {
		return nil, fmt.Errorf("pipeline: binary artifact tag %d, want %d", data[5], tag)
	}
	return &BinReader{data: data[6:], tag: tag, full: len(data)}, nil
}

// NewBinReaderBorrow is NewBinReader in borrow mode: raw word runs
// (Uint32s, Uint64s, FloatsBorrow) return slices aliasing data when the run
// is 8-byte aligned and the host is little-endian, and copy otherwise — the
// decoded value is byte-identical either way. The caller owns the lifetime:
// data (typically an mmap'd Mapping) must stay valid for as long as any
// decoded value is in use, and must tolerate writes through the decoded
// slices (private copy-on-write mappings do; read-only ones fault).
func NewBinReaderBorrow(data []byte, tag uint8) (*BinReader, error) {
	r, err := NewBinReader(data, tag)
	if err != nil {
		return nil, err
	}
	r.borrow = true
	return r, nil
}

// Err returns the first decoding error, if any.
func (r *BinReader) Err() error { return r.err }

// Remaining returns the number of unconsumed payload bytes — what decoders
// bound their own length-derived allocations against.
func (r *BinReader) Remaining() int { return len(r.data) }

// Done reports an error unless the input was consumed exactly.
func (r *BinReader) Done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.data) != 0 {
		return fmt.Errorf("pipeline: binary artifact has %d trailing bytes", len(r.data))
	}
	return nil
}

func (r *BinReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("pipeline: "+format, args...)
	}
}

// Uvarint reads an unsigned varint.
func (r *BinReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Varint reads a signed varint.
func (r *BinReader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Float reads a float64.
func (r *BinReader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 8 {
		r.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
	r.data = r.data[8:]
	return v
}

// Bool reads a boolean byte (strictly 0 or 1).
func (r *BinReader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.data) < 1 {
		r.fail("truncated bool")
		return false
	}
	b := r.data[0]
	r.data = r.data[1:]
	if b > 1 {
		r.fail("bool byte %d", b)
		return false
	}
	return b == 1
}

// Int reads a varint and bounds it to a non-negative int that fits the
// platform, the shape every count field uses.
func (r *BinReader) Int() int {
	v := r.Varint()
	if v < 0 || v > math.MaxInt32 {
		r.fail("count %d out of range", v)
		return 0
	}
	return int(v)
}

// Len reads a uvarint length prefix (the counterpart of the writer's
// Uvarint-encoded lengths) bounded to a non-negative int32-sized value.
func (r *BinReader) Len() int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.fail("length %d out of range", v)
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string; the claimed length is bounded by
// the remaining input before allocation.
func (r *BinReader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)) {
		r.fail("string length %d exceeds %d remaining bytes", n, len(r.data))
		return ""
	}
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// Pad8 consumes the zero padding the writer's Pad8 emitted, restoring the
// read cursor to an 8-byte boundary measured from the artifact's first byte.
// Nonzero pad bytes are a framing error (padding is canonical).
func (r *BinReader) Pad8() {
	if r.err != nil {
		return
	}
	pad := (8 - (r.full-len(r.data))%8) % 8
	if pad > len(r.data) {
		r.fail("truncated alignment padding")
		return
	}
	for i := 0; i < pad; i++ {
		if r.data[i] != 0 {
			r.fail("nonzero alignment padding byte %d", r.data[i])
			return
		}
	}
	r.data = r.data[pad:]
}

// canBorrow reports whether the next run may alias the input: borrow mode,
// little-endian host, and an align-byte-aligned read cursor. The writer's
// Pad8 makes the cursor 8-aligned relative to the artifact start; the base
// pointer check covers the mapping (page-aligned) and any copied buffer.
func (r *BinReader) canBorrow(align uintptr) bool {
	return r.borrow && hostLittleEndian && len(r.data) > 0 &&
		uintptr(unsafe.Pointer(&r.data[0]))%align == 0
}

// Uint64s reads a length-prefixed, 8-byte-aligned []uint64 (raw
// little-endian words); the claimed length is bounded by the remaining input
// before allocation. In borrow mode an aligned run aliases the input.
func (r *BinReader) Uint64s() []uint64 {
	n := r.Uvarint()
	r.Pad8()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data))/8 {
		r.fail("word count %d exceeds %d remaining bytes", n, len(r.data))
		return nil
	}
	if n > 0 && r.canBorrow(8) {
		vs := unsafe.Slice((*uint64)(unsafe.Pointer(&r.data[0])), n)
		r.data = r.data[8*n:]
		return vs
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint64(r.data[8*i:])
	}
	r.data = r.data[8*n:]
	return vs
}

// Uint32s reads a length-prefixed, 8-byte-aligned []uint32 (raw
// little-endian words); the claimed length is bounded by the remaining input
// before allocation. In borrow mode an aligned run aliases the input.
func (r *BinReader) Uint32s() []uint32 {
	n := r.Uvarint()
	r.Pad8()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data))/4 {
		r.fail("word count %d exceeds %d remaining bytes", n, len(r.data))
		return nil
	}
	if n > 0 && r.canBorrow(4) {
		vs := unsafe.Slice((*uint32)(unsafe.Pointer(&r.data[0])), n)
		r.data = r.data[4*n:]
		return vs
	}
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint32(r.data[4*i:])
	}
	r.data = r.data[4*n:]
	return vs
}

// Int64s reads a length-prefixed []int64 (varints); the claimed length is
// bounded by the remaining input (each varint is at least one byte) before
// allocation.
func (r *BinReader) Int64s() []int64 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)) {
		r.fail("varint count %d exceeds %d remaining bytes", n, len(r.data))
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = r.Varint()
		if r.err != nil {
			return nil
		}
	}
	return vs
}

// Floats reads a length-prefixed []float64 (raw IEEE-754 words); the claimed
// length is bounded by the remaining input before allocation.
func (r *BinReader) Floats() []float64 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data))/8 {
		r.fail("float count %d exceeds %d remaining bytes", n, len(r.data))
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.data[8*i:]))
	}
	r.data = r.data[8*n:]
	return vs
}

// FloatsInto reads exactly n floats into dst[:n] without allocating; dst must
// have capacity n (callers size one backing array for a whole matrix). The
// count is explicit rather than length-prefixed, for layouts whose dimensions
// are already validated fields.
func (r *BinReader) FloatsInto(dst []float64) {
	if r.err != nil {
		return
	}
	if len(r.data) < 8*len(dst) {
		r.fail("float run of %d exceeds %d remaining bytes", len(dst), len(r.data))
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.data[8*i:]))
	}
	r.data = r.data[8*len(dst):]
}

// FloatsBorrow reads exactly n floats, like FloatsInto with a fresh
// destination, but in borrow mode an aligned run aliases the input instead
// of copying. Callers pair it with an explicit Pad8 on both sides, matching
// the writer's Pad8 + FloatsRaw.
func (r *BinReader) FloatsBorrow(n int) []float64 {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.data) < 8*n {
		r.fail("float run of %d exceeds %d remaining bytes", n, len(r.data))
		return nil
	}
	if n > 0 && r.canBorrow(8) {
		vs := unsafe.Slice((*float64)(unsafe.Pointer(&r.data[0])), n)
		r.data = r.data[8*n:]
		return vs
	}
	vs := make([]float64, n)
	r.FloatsInto(vs)
	return vs
}

// FloatsRaw appends the raw IEEE-754 words of vs with no length prefix,
// the writer-side counterpart of FloatsInto.
func (w *BinWriter) FloatsRaw(vs []float64) {
	for _, v := range vs {
		w.Float(v)
	}
}
