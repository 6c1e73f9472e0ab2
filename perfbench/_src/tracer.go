package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracer keeps the traced run's spans in memory and writes them out when the
// run ends. Every span is one call into a layer's public entry point, timed
// from this package; spans of one slot (or one serve re-optimization window)
// share an op id. A nil *tracer records nothing, so the untraced run pays
// one nil check per boundary.
type tracer struct {
	base  time.Time
	spans []span
}

// span is one timed layer call. Counts recorded at the same boundary ride
// along in a fixed array so that recording never allocates.
type span struct {
	name       string
	parent     int32 // index of the parent span, -1 for a root
	op         int64
	start, end int64 // ns since the tracer's base
	counts     [6]spanCount
	nCounts    int8
}

type spanCount struct {
	key string
	val int64
}

// newTracer preallocates room for capacity spans, so recording stays
// allocation-free until that many spans exist.
func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span at time now and returns its index.
func (t *tracer) begin(name string, parent int32, op int64, now time.Time) int32 {
	if t == nil {
		return -1
	}
	ns := int64(now.Sub(t.base))
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: ns, end: ns})
	return int32(len(t.spans) - 1)
}

// finish closes span id at time now.
func (t *tracer) finish(id int32, now time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = int64(now.Sub(t.base))
}

// record adds a closed span covering [start, end].
func (t *tracer) record(name string, parent int32, op int64, start, end time.Time) int32 {
	id := t.begin(name, parent, op, start)
	t.finish(id, end)
	return id
}

// count attaches a named count to span id. Counts beyond the fixed capacity
// are dropped; no span here records more than six.
func (t *tracer) count(id int32, key string, val int64) {
	if t == nil || id < 0 {
		return
	}
	s := &t.spans[id]
	if int(s.nCounts) < len(s.counts) {
		s.counts[s.nCounts] = spanCount{key, val}
		s.nCounts++
	}
}

// durations returns the duration in ns of every span with the given name.
func (t *tracer) durations(name string) []int64 {
	var out []int64
	for i := range t.spans {
		if t.spans[i].name == name {
			out = append(out, t.spans[i].end-t.spans[i].start)
		}
	}
	return out
}

// selfTimes returns, for every span with the given name, its duration minus
// the time its direct children cover.
func (t *tracer) selfTimes(name string) []int64 {
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].parent; p >= 0 {
			child[p] += t.spans[i].end - t.spans[i].start
		}
	}
	var out []int64
	for i := range t.spans {
		if t.spans[i].name == name {
			out = append(out, t.spans[i].end-t.spans[i].start-child[i])
		}
	}
	return out
}

// spanLine is the written form of one span.
type spanLine struct {
	ID      int              `json:"id"`
	Parent  int32            `json:"parent"`
	Name    string           `json:"name"`
	Op      int64            `json:"op"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// write stores the spans as JSON lines in path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		s := &t.spans[i]
		line := spanLine{ID: i, Parent: s.parent, Name: s.name, Op: s.op, StartNS: s.start, EndNS: s.end}
		if s.nCounts > 0 {
			line.Counts = make(map[string]int64, s.nCounts)
			for _, c := range s.counts[:s.nCounts] {
				line.Counts[c.key] = c.val
			}
		}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return fmt.Errorf("trace write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace write: %w", err)
	}
	return f.Close()
}
