package schedfile

import (
	"fmt"

	"ctdvs/internal/ir"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/sim"
)

// Binary recording codec. The layout mirrors recordingJSON field for field —
// the property tests assert DecodeRecordingBinary(EncodeRecordingBinary(rec))
// equals DecodeRecording(EncodeRecording(rec)) — but skips base64 and JSON
// tokenization: the block trace and the outcome bitstreams are 8-byte-aligned
// runs of raw little-endian words, which lets the borrow-mode decoder
// (DecodeRecordingBinaryMapped) alias them straight out of an mmap'd artifact
// with no copy at all. Every claimed length is bounded against the remaining
// input before allocation (see pipeline.BinReader), so a truncated or hostile
// artifact is rejected without a giant make().

func putMachine(w *pipeline.BinWriter, c sim.Config) {
	for _, cache := range [...]sim.CacheConfig{c.L1, c.L2} {
		w.Varint(int64(cache.SizeBytes))
		w.Varint(int64(cache.Assoc))
		w.Varint(int64(cache.LineBytes))
		w.Varint(int64(cache.LatencyCycles))
	}
	w.Float(c.MemLatencyUS)
	w.Varint(int64(c.MemChannels))
	w.Float(c.StaticPowerMW)
	w.Varint(int64(c.PredictorEntries))
	w.Varint(int64(c.MispredictPenaltyCycles))
	w.Varint(int64(c.RecordBudgetEvents))
	w.Float(c.CeffComputeNF)
	w.Float(c.CeffL1NF)
	w.Float(c.CeffL2NF)
}

func readMachine(r *pipeline.BinReader) sim.Config {
	var c sim.Config
	for _, cache := range [...]*sim.CacheConfig{&c.L1, &c.L2} {
		cache.SizeBytes = r.Int()
		cache.Assoc = r.Int()
		cache.LineBytes = r.Int()
		cache.LatencyCycles = r.Int()
	}
	c.MemLatencyUS = r.Float()
	c.MemChannels = r.Int()
	c.StaticPowerMW = r.Float()
	c.PredictorEntries = r.Int()
	c.MispredictPenaltyCycles = r.Int()
	c.RecordBudgetEvents = r.Int()
	c.CeffComputeNF = r.Float()
	c.CeffL1NF = r.Float()
	c.CeffL2NF = r.Float()
	return c
}

// EncodeRecordingBinary renders the recording in the binary artifact format.
func EncodeRecordingBinary(rec *sim.Recording) ([]byte, error) {
	if rec == nil {
		return nil, fmt.Errorf("schedfile: encode nil recording")
	}
	hint := 256 + 4*len(rec.Trace) + 8*(len(rec.MemBits)+len(rec.BranchBits)) +
		4*(len(rec.EdgeCountsByID)+len(rec.PathCountsByID))
	w := pipeline.NewBinWriter(pipeline.BinTagRecording, hint)
	w.Uvarint(RecordingVersion)
	w.String(rec.Program)
	w.String(rec.Input)
	putMachine(w, rec.Config)
	w.Varint(int64(rec.NumBlocks))

	w.Uint32s(rec.Trace)
	w.Varint(rec.MemOps)
	w.Uint64s(rec.MemBits)
	w.Varint(rec.BranchOps)
	w.Uint64s(rec.BranchBits)

	w.Int64s(rec.EdgeCountsByID)
	w.Int64s(rec.PathCountsByID)
	w.Varint(rec.L1Hits)
	w.Varint(rec.L2Hits)
	w.Varint(rec.MemMisses)
	w.Varint(rec.Branches)
	w.Varint(rec.Mispredicts)
	w.Varint(rec.Params.NCache)
	w.Varint(rec.Params.NOverlap)
	w.Varint(rec.Params.NDependent)
	w.Float(rec.Params.TInvariantUS)
	return w.Bytes(), nil
}

// DecodeRecordingBinary reconstructs a bound, replay-ready recording from a
// binary artifact, applying the same program/input/machine agreement checks
// as DecodeRecording. It never retains the input slice.
func DecodeRecordingBinary(data []byte, p *ir.Program, in ir.Input, mc sim.Config) (*sim.Recording, error) {
	r, err := pipeline.NewBinReader(data, pipeline.BinTagRecording)
	if err != nil {
		return nil, fmt.Errorf("schedfile: decode recording: %w", err)
	}
	return decodeRecordingBinary(r, p, in, mc)
}

// DecodeRecordingBinaryMapped is DecodeRecordingBinary in borrow mode: the
// returned recording's large arrays — the block trace and the packed
// cache/branch outcome words — alias data wherever alignment allows instead
// of being copied, so an mmap'd artifact replays straight out of the page
// cache. The decoded value is byte-identical to DecodeRecordingBinary's
// (misaligned or big-endian hosts silently fall back to copying). The caller
// owns the lifetime: data must stay valid for as long as the recording is in
// use (see pipeline.Mapping).
func DecodeRecordingBinaryMapped(data []byte, p *ir.Program, in ir.Input, mc sim.Config) (*sim.Recording, error) {
	r, err := pipeline.NewBinReaderBorrow(data, pipeline.BinTagRecording)
	if err != nil {
		return nil, fmt.Errorf("schedfile: decode recording: %w", err)
	}
	return decodeRecordingBinary(r, p, in, mc)
}

func decodeRecordingBinary(r *pipeline.BinReader, p *ir.Program, in ir.Input, mc sim.Config) (*sim.Recording, error) {
	if v := r.Uvarint(); r.Err() == nil && v != RecordingVersion {
		return nil, fmt.Errorf("schedfile: recording artifact version %d, want %d", v, RecordingVersion)
	}
	program := r.String()
	input := r.String()
	machine := readMachine(r)
	numBlocks := r.Int()

	trace := r.Uint32s()
	memOps := r.Varint()
	memBits := r.Uint64s()
	branchOps := r.Varint()
	branchBits := r.Uint64s()

	edgeCounts := r.Int64s()
	pathCounts := r.Int64s()
	l1Hits := r.Varint()
	l2Hits := r.Varint()
	memMisses := r.Varint()
	branches := r.Varint()
	mispredicts := r.Varint()
	params := sim.Params{
		NCache:       r.Varint(),
		NOverlap:     r.Varint(),
		NDependent:   r.Varint(),
		TInvariantUS: r.Float(),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("schedfile: decode recording: %w", err)
	}

	if program != p.Name || input != in.Name {
		return nil, fmt.Errorf("schedfile: recording artifact is for %s/%s, want %s/%s", program, input, p.Name, in.Name)
	}
	if machine != mc {
		return nil, fmt.Errorf("schedfile: recording artifact machine %+v does not match configuration %+v", machine, mc)
	}
	rec := &sim.Recording{
		Program:   program,
		Input:     input,
		Config:    mc,
		NumBlocks: numBlocks,

		Trace:      trace,
		MemOps:     memOps,
		MemBits:    memBits,
		BranchOps:  branchOps,
		BranchBits: branchBits,

		EdgeCountsByID: emptyNotNil(edgeCounts),
		PathCountsByID: emptyNotNil(pathCounts),
		L1Hits:         l1Hits,
		L2Hits:         l2Hits,
		MemMisses:      memMisses,
		Branches:       branches,
		Mispredicts:    mispredicts,
		Params:         params,
	}
	if err := rec.Bind(p); err != nil {
		return nil, fmt.Errorf("schedfile: recording artifact rejected: %w", err)
	}
	return rec, nil
}
