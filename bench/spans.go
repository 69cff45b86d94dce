package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the harness into a layer. Spans are recorded
// from outside the program, around its public functions, kept in memory and
// written out when the run ends.
type span struct {
	ID    int    `json:"id"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // host ns since the tracer started
	End   int64  `json:"end_ns"`
	// Parent is the ID of the span that caused this one, -1 for a root. A
	// replayed child (control_churn re-runs a request's resynth, deploy and
	// publish steps directly after the request returns) names the request
	// as its parent although it runs after it.
	Parent int `json:"parent"`
	Pass   int `json:"pass"`
}

// tracer collects spans. A nil *tracer records nothing, so the same loop
// runs traced and untraced.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, pass int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Pass: pass,
		Start: int64(time.Since(t.t0))})
	return id
}

// end closes the span and returns its duration in ns.
func (t *tracer) end(id int) int64 {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return s.End - s.Start
}

// selfTimes sums, per span name, the time spent in spans of that name minus
// the time their direct children account for. Children are subtracted by
// duration, which for nested non-overlapping children is exactly the part
// of the parent's interval they cover, and for replayed children is the
// cost of the replayed step. A name never goes below zero.
func selfTimes(spans []span) map[string]int64 {
	dur := make(map[string]int64)
	child := make(map[string]int64)
	for _, s := range spans {
		d := s.End - s.Start
		dur[s.Name] += d
		if s.Parent >= 0 && s.Parent < len(spans) {
			child[spans[s.Parent].Name] += d
		}
	}
	for name, c := range child {
		if dur[name] -= c; dur[name] < 0 {
			dur[name] = 0
		}
	}
	return dur
}

// totals sums span durations per name.
func totals(spans []span) map[string]int64 {
	dur := make(map[string]int64)
	for _, s := range spans {
		dur[s.Name] += s.End - s.Start
	}
	return dur
}

// maxFlushedSpans bounds the trace file: pipe_* record five spans per
// 256-packet window, tens of thousands per pass. The self-time table in the
// file always covers every span.
const maxFlushedSpans = 20000

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Spans      int              `json:"spans_recorded"`
	SelfTimeNs map[string]int64 `json:"self_time_ns"`
	Flushed    []span           `json:"spans"`
}

// flush writes the trace to dir/trace-<workload>.json.
func (t *tracer) flush(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	keep := t.spans
	if len(keep) > maxFlushedSpans {
		keep = keep[:maxFlushedSpans]
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: len(t.spans),
		SelfTimeNs: selfTimes(t.spans), Flushed: keep})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
