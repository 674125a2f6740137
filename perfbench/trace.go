package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one operation share
// Op; Parent is the ID of the span whose call caused this one, or -1 for an
// operation's root.
type Span struct {
	Name   string        `json:"name"`
	Op     int64         `json:"op"`
	ID     int32         `json:"id"`
	Parent int32         `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps every span of a run in memory; Write dumps them when the run
// ends. It is safe for concurrent use.
type Tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{base: time.Now()} }

// sp is a handle on an open span: child opens a span it caused, end closes
// it. The zero handle (no tracer) makes both no-ops, so untraced code paths
// can share helpers with traced ones.
type sp struct {
	t  *Tracer
	op int64
	id int32
}

// root opens an operation's root span.
func (t *Tracer) root(op int64, name string) sp { return t.open(op, -1, name) }

func (t *Tracer) open(op int64, parent int32, name string) sp {
	if t == nil {
		return sp{}
	}
	now := time.Since(t.base)
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Op: op, ID: id, Parent: parent, Start: now, End: -1})
	t.mu.Unlock()
	return sp{t: t, op: op, id: id}
}

func (s sp) child(name string) sp { return s.t.open(s.op, s.id, name) }

func (s sp) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.base)
	s.t.mu.Lock()
	s.t.spans[s.id].End = now
	s.t.mu.Unlock()
}

// rename relabels an open span once its outcome is known (a pipeline lookup
// is a read, a write or a memory hit only after it returns).
func (s sp) rename(name string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.spans[s.id].Name = name
	s.t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Write dumps the spans as one JSON object per line.
func (t *Tracer) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the union of
// its children's intervals, clipped to its own. Overlapping children (work
// the span fanned out in parallel) are counted once.
func selfTimes(spans []Span) []time.Duration {
	kids := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		var iv [][2]time.Duration
		for _, k := range kids[s.ID] {
			a, b := spans[k].Start, spans[k].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
		out[i] = s.End - s.Start - unionLength(iv)
	}
	return out
}

func unionLength(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var cur [2]time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case x[0] <= cur[1]:
			if x[1] > cur[1] {
				cur[1] = x[1]
			}
		default:
			total += cur[1] - cur[0]
			cur = x
		}
	}
	if len(iv) > 0 {
		total += cur[1] - cur[0]
	}
	return total
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// untraced is the bucket for an operation root's self time: the part of
// the operation that no layer span covers.
const untraced = "untraced"

// bucketOf is where a span's self time goes: its layer, or untraced for an
// operation root.
func bucketOf(s Span) string {
	if s.Parent < 0 {
		return untraced
	}
	return layerOf(s.Name)
}

// traceSummary aggregates a traced run: the self time of the layer spans
// per span name and per layer, the operations' root time, and the roots'
// own self time, which no layer span covers.
type traceSummary struct {
	selfByName  map[string]time.Duration
	countByName map[string]int
	selfByLayer map[string]time.Duration
	rootTotal   time.Duration
	rootSelf    time.Duration
}

func summarize(spans []Span) traceSummary {
	ts := traceSummary{
		selfByName:  map[string]time.Duration{},
		countByName: map[string]int{},
		selfByLayer: map[string]time.Duration{},
	}
	self := selfTimes(spans)
	for i, s := range spans {
		ts.selfByLayer[bucketOf(s)] += self[i]
		if s.Parent < 0 {
			ts.rootTotal += s.End - s.Start
			ts.rootSelf += self[i]
			continue
		}
		ts.selfByName[s.Name] += self[i]
		ts.countByName[s.Name]++
	}
	return ts
}

// coverage is the share of the operations' time that layer spans account
// for: 1 minus the roots' self time over their duration.
func (ts traceSummary) coverage() float64 {
	if ts.rootTotal <= 0 {
		return 0
	}
	return 1 - float64(ts.rootSelf)/float64(ts.rootTotal)
}
