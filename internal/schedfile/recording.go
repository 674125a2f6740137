package schedfile

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"ctdvs/internal/ir"
	"ctdvs/internal/sim"
)

// RecordingVersion identifies the recording artifact format.
const RecordingVersion = 1

// recordingJSON is the artifact layout for a sim.Recording — the
// mode-invariant event stream one instrumented run captures, from which the
// profile at any mode set is replayed. The packed streams are base64: the
// block trace as uvarints, the outcome bitstreams as little-endian 64-bit
// words. Like the profile codec, the program is not serialized; it is
// re-derived from the workload spec on load and the artifact must agree with
// it. Struct field order is fixed, so EncodeRecording is deterministic.
type recordingJSON struct {
	Version   int         `json:"version"`
	Program   string      `json:"program"`
	Input     string      `json:"input"`
	Machine   machineJSON `json:"machine"`
	NumBlocks int         `json:"n_blocks"`

	TraceLen   int    `json:"trace_len"`
	Trace      string `json:"trace"`
	MemOps     int64  `json:"mem_ops"`
	MemBits    string `json:"mem_bits"`
	BranchOps  int64  `json:"branch_ops"`
	BranchBits string `json:"branch_bits"`

	EdgeCounts  []int64       `json:"edge_counts"`
	PathCounts  []int64       `json:"path_counts"`
	L1Hits      int64         `json:"l1_hits"`
	L2Hits      int64         `json:"l2_hits"`
	MemMisses   int64         `json:"mem_misses"`
	Branches    int64         `json:"branches"`
	Mispredicts int64         `json:"mispredicts"`
	Params      simParamsJSON `json:"params"`
}

// machineJSON mirrors every sim.Config field; a recording is only replayable
// against the exact machine that produced it.
type machineJSON struct {
	L1                      cacheJSON `json:"l1"`
	L2                      cacheJSON `json:"l2"`
	MemLatencyUS            float64   `json:"mem_latency_us"`
	MemChannels             int       `json:"mem_channels"`
	StaticPowerMW           float64   `json:"static_power_mw"`
	PredictorEntries        int       `json:"predictor_entries"`
	MispredictPenaltyCycles int       `json:"mispredict_penalty_cycles"`
	RecordBudgetEvents      int       `json:"record_budget_events"`
	CeffComputeNF           float64   `json:"ceff_compute_nf"`
	CeffL1NF                float64   `json:"ceff_l1_nf"`
	CeffL2NF                float64   `json:"ceff_l2_nf"`
}

type cacheJSON struct {
	SizeBytes     int `json:"size_bytes"`
	Assoc         int `json:"assoc"`
	LineBytes     int `json:"line_bytes"`
	LatencyCycles int `json:"latency_cycles"`
}

type simParamsJSON struct {
	NCache       int64   `json:"n_cache"`
	NOverlap     int64   `json:"n_overlap"`
	NDependent   int64   `json:"n_dependent"`
	TInvariantUS float64 `json:"t_invariant_us"`
}

func machineToJSON(c sim.Config) machineJSON {
	return machineJSON{
		L1:                      cacheJSON{c.L1.SizeBytes, c.L1.Assoc, c.L1.LineBytes, c.L1.LatencyCycles},
		L2:                      cacheJSON{c.L2.SizeBytes, c.L2.Assoc, c.L2.LineBytes, c.L2.LatencyCycles},
		MemLatencyUS:            c.MemLatencyUS,
		MemChannels:             c.MemChannels,
		StaticPowerMW:           c.StaticPowerMW,
		PredictorEntries:        c.PredictorEntries,
		MispredictPenaltyCycles: c.MispredictPenaltyCycles,
		RecordBudgetEvents:      c.RecordBudgetEvents,
		CeffComputeNF:           c.CeffComputeNF,
		CeffL1NF:                c.CeffL1NF,
		CeffL2NF:                c.CeffL2NF,
	}
}

func machineFromJSON(m machineJSON) sim.Config {
	return sim.Config{
		L1:                      sim.CacheConfig{SizeBytes: m.L1.SizeBytes, Assoc: m.L1.Assoc, LineBytes: m.L1.LineBytes, LatencyCycles: m.L1.LatencyCycles},
		L2:                      sim.CacheConfig{SizeBytes: m.L2.SizeBytes, Assoc: m.L2.Assoc, LineBytes: m.L2.LineBytes, LatencyCycles: m.L2.LatencyCycles},
		MemLatencyUS:            m.MemLatencyUS,
		MemChannels:             m.MemChannels,
		StaticPowerMW:           m.StaticPowerMW,
		PredictorEntries:        m.PredictorEntries,
		MispredictPenaltyCycles: m.MispredictPenaltyCycles,
		RecordBudgetEvents:      m.RecordBudgetEvents,
		CeffComputeNF:           m.CeffComputeNF,
		CeffL1NF:                m.CeffL1NF,
		CeffL2NF:                m.CeffL2NF,
	}
}

func packTrace(trace []uint32) string {
	buf := make([]byte, 0, len(trace))
	var tmp [binary.MaxVarintLen32]byte
	for _, b := range trace {
		n := binary.PutUvarint(tmp[:], uint64(b))
		buf = append(buf, tmp[:n]...)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

func unpackTrace(s string, n int) ([]uint32, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	// Each trace entry is at least one packed byte, so a claimed length
	// outside [0, len(buf)] is corrupt — reject it before allocating.
	if n < 0 || n > len(buf) {
		return nil, fmt.Errorf("block trace length %d does not fit %d packed bytes", n, len(buf))
	}
	trace := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		v, k := binary.Uvarint(buf)
		if k <= 0 || v > 1<<32-1 {
			return nil, fmt.Errorf("malformed block trace at entry %d", i)
		}
		trace = append(trace, uint32(v))
		buf = buf[k:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("block trace has %d trailing bytes", len(buf))
	}
	return trace, nil
}

func packWords(words []uint64) string {
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

func unpackWords(s string) ([]uint64, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("bitstream length %d is not a whole number of words", len(buf))
	}
	words := make([]uint64, len(buf)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return words, nil
}

// EncodeRecording renders the recording as a deterministic artifact for the
// pipeline's record stage.
func EncodeRecording(rec *sim.Recording) ([]byte, error) {
	if rec == nil {
		return nil, fmt.Errorf("schedfile: encode nil recording")
	}
	f := recordingJSON{
		Version:   RecordingVersion,
		Program:   rec.Program,
		Input:     rec.Input,
		Machine:   machineToJSON(rec.Config),
		NumBlocks: rec.NumBlocks,

		TraceLen:   len(rec.Trace),
		Trace:      packTrace(rec.Trace),
		MemOps:     rec.MemOps,
		MemBits:    packWords(rec.MemBits),
		BranchOps:  rec.BranchOps,
		BranchBits: packWords(rec.BranchBits),

		EdgeCounts:  rec.EdgeCountsByID,
		PathCounts:  rec.PathCountsByID,
		L1Hits:      rec.L1Hits,
		L2Hits:      rec.L2Hits,
		MemMisses:   rec.MemMisses,
		Branches:    rec.Branches,
		Mispredicts: rec.Mispredicts,
		Params: simParamsJSON{
			NCache:       rec.Params.NCache,
			NOverlap:     rec.Params.NOverlap,
			NDependent:   rec.Params.NDependent,
			TInvariantUS: rec.Params.TInvariantUS,
		},
	}
	return json.Marshal(f)
}

// DecodeRecording reconstructs a bound, replay-ready recording from an
// artifact. The program, input and machine configuration come from the caller
// (the workload spec and experiment config) and the artifact must agree with
// all three — a recording replayed against a different program or machine
// would produce confidently wrong numbers, so any mismatch is an error. The
// decoded stream is re-validated against the program by sim's Bind.
func DecodeRecording(data []byte, p *ir.Program, in ir.Input, mc sim.Config) (*sim.Recording, error) {
	var f recordingJSON
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("schedfile: decode recording: %w", err)
	}
	if f.Version != RecordingVersion {
		return nil, fmt.Errorf("schedfile: recording artifact version %d, want %d", f.Version, RecordingVersion)
	}
	if f.Program != p.Name || f.Input != in.Name {
		return nil, fmt.Errorf("schedfile: recording artifact is for %s/%s, want %s/%s", f.Program, f.Input, p.Name, in.Name)
	}
	if got := machineFromJSON(f.Machine); got != mc {
		return nil, fmt.Errorf("schedfile: recording artifact machine %+v does not match configuration %+v", got, mc)
	}
	trace, err := unpackTrace(f.Trace, f.TraceLen)
	if err != nil {
		return nil, fmt.Errorf("schedfile: decode recording: %w", err)
	}
	memBits, err := unpackWords(f.MemBits)
	if err != nil {
		return nil, fmt.Errorf("schedfile: decode recording memory outcomes: %w", err)
	}
	branchBits, err := unpackWords(f.BranchBits)
	if err != nil {
		return nil, fmt.Errorf("schedfile: decode recording branch outcomes: %w", err)
	}
	rec := &sim.Recording{
		Program:   f.Program,
		Input:     f.Input,
		Config:    mc,
		NumBlocks: f.NumBlocks,

		Trace:      trace,
		MemOps:     f.MemOps,
		MemBits:    memBits,
		BranchOps:  f.BranchOps,
		BranchBits: branchBits,

		EdgeCountsByID: emptyNotNil(f.EdgeCounts),
		PathCountsByID: emptyNotNil(f.PathCounts),
		L1Hits:         f.L1Hits,
		L2Hits:         f.L2Hits,
		MemMisses:      f.MemMisses,
		Branches:       f.Branches,
		Mispredicts:    f.Mispredicts,
		Params: sim.Params{
			NCache:       f.Params.NCache,
			NOverlap:     f.Params.NOverlap,
			NDependent:   f.Params.NDependent,
			TInvariantUS: f.Params.TInvariantUS,
		},
	}
	if err := rec.Bind(p); err != nil {
		return nil, fmt.Errorf("schedfile: recording artifact rejected: %w", err)
	}
	return rec, nil
}

// emptyNotNil normalizes JSON null to an empty slice, so decoded recordings
// replay to Results structurally identical to freshly simulated ones.
func emptyNotNil(s []int64) []int64 {
	if s == nil {
		return []int64{}
	}
	return s
}
