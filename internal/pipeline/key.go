// Package pipeline provides the staged execution layer shared by every
// binary and by the experiment harness: profile → filter → formulate →
// solve → validate, with a content-addressed on-disk artifact store and a
// per-run manifest.
//
// The paper's workflow is inherently a staged pipeline — collect per-category
// profiles (§4.1), filter the edge space (§5.2), formulate and solve the MILP
// (§4.2–4.3), then validate the schedule by re-simulation. Each stage's
// output is an artifact addressed by a key derived from everything that can
// influence it (workload spec, scale, simulator configuration, MILP and
// regulator options), so repeated runs with the same configuration skip
// simulation and MILP solves entirely and return bit-identical results.
//
// The package is deliberately generic: domain key construction lives next to
// the domain types (package exp builds profile/solve/validate keys), while
// this package owns hashing, storage, deduplication and accounting.
package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Kind names a pipeline stage. The five canonical stages mirror the paper's
// workflow; tools may introduce additional kinds (dvs-analytic records its
// report under Kind "analytic").
type Kind string

// Canonical stage kinds.
const (
	StageRecording Kind = "record"    // event-stream recording (one per workload input)
	StageProfile   Kind = "profile"   // per-category profiling runs (§4.1)
	StageFilter    Kind = "filter"    // edge-space filtering (§5.2)
	StageFormulate Kind = "formulate" // MILP construction (§4.2–4.3)
	StageSolve     Kind = "solve"     // branch-and-bound search
	StageValidate  Kind = "validate"  // schedule re-simulation

	// Task-graph stage (multi-core extension): the graph-level solve
	// (placement + per-task modes). Executing a graph schedule is not a
	// stage: its timeline is planned from the per-task profiles.
	StageGraphSolve Kind = "graphsolve"
)

// Key is the content address of one artifact: a SHA-256 digest (hex) over a
// canonical rendering of every input that can influence the artifact. Equal
// inputs hash identically across processes and machines; any option change
// changes the key.
type Key string

// KeyBuilder accumulates named fields into a canonical byte stream and hashes
// it. Field order is significant — callers must add fields in a fixed order —
// which every builder in this repository does by construction (straight-line
// code, sorted map keys).
type KeyBuilder struct {
	sb strings.Builder
}

// NewKey starts a key for the given stage kind. The kind is part of the
// hashed content, so the same parameters under different stages cannot
// collide.
func NewKey(kind Kind) *KeyBuilder {
	b := &KeyBuilder{}
	b.sb.WriteString("kind=")
	b.sb.WriteString(string(kind))
	b.sb.WriteByte('\n')
	return b
}

func (b *KeyBuilder) field(name, value string) *KeyBuilder {
	b.sb.WriteString(name)
	b.sb.WriteByte('=')
	b.sb.WriteString(value)
	b.sb.WriteByte('\n')
	return b
}

// Str adds a string field.
func (b *KeyBuilder) Str(name, v string) *KeyBuilder { return b.field(name, strconv.Quote(v)) }

// Int adds an integer field.
func (b *KeyBuilder) Int(name string, v int64) *KeyBuilder {
	return b.field(name, strconv.FormatInt(v, 10))
}

// Bool adds a boolean field.
func (b *KeyBuilder) Bool(name string, v bool) *KeyBuilder {
	return b.field(name, strconv.FormatBool(v))
}

// Float adds a float64 field, rendered with the shortest representation that
// round-trips exactly, so bit-equal floats always produce identical keys.
func (b *KeyBuilder) Float(name string, v float64) *KeyBuilder {
	return b.field(name, strconv.FormatFloat(v, 'g', -1, 64))
}

// Floats adds a float64 slice field.
func (b *KeyBuilder) Floats(name string, vs []float64) *KeyBuilder {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return b.field(name, strings.Join(parts, ","))
}

// Sum finalizes the key.
func (b *KeyBuilder) Sum() Key {
	h := sha256.Sum256([]byte(b.sb.String()))
	return Key(hex.EncodeToString(h[:]))
}

// Fingerprint hashes arbitrary serialized content (profiles, schedules) into
// the same digest space as keys. It is used to address artifacts by content
// when no parameter-derived key exists.
func Fingerprint(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// Validate reports whether k looks like a digest this package produced; the
// store refuses anything else so keys can be safely embedded in file paths.
func (k Key) Validate() error {
	if len(k) != sha256.Size*2 {
		return fmt.Errorf("pipeline: key %q has length %d, want %d", k, len(k), sha256.Size*2)
	}
	if _, err := hex.DecodeString(string(k)); err != nil {
		return fmt.Errorf("pipeline: key %q is not hex: %v", k, err)
	}
	return nil
}
