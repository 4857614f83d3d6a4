package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dard/internal/trace"
)

// countingTracer is the benchmark's own trace.Tracer: it counts events
// by kind and keeps nothing else, so a traced run measures the cost of
// the engines' instrumentation rather than of a sink. Probes are off in
// every benchmark scenario, so there are no samples to count.
type countingTracer struct {
	events map[trace.Kind]int64
}

var _ trace.Tracer = (*countingTracer)(nil)

func newCountingTracer() *countingTracer {
	return &countingTracer{events: make(map[trace.Kind]int64)}
}

func (c *countingTracer) Enabled() bool                                { return true }
func (c *countingTracer) Emit(e trace.Event)                           { c.events[e.Kind]++ }
func (c *countingTracer) Sample(trace.Metric, int64, float64, float64) {}

// total is the number of events seen.
func (c *countingTracer) total() int64 {
	var n int64
	for _, k := range trace.Kinds() {
		n += c.events[k]
	}
	return n
}

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the span log started; Parent is the enclosing span's
// ID, 0 at the top level. Spans of one benchmark run share RunID.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	RunID  string `json:"run_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// spanLog keeps spans in memory until the run writes them out. A nil
// log times nothing and runs the calls unchanged.
type spanLog struct {
	runID string
	t0    time.Time
	spans []span
	open  []int // indices of the currently open spans, innermost last
}

func newSpanLog(runID string) *spanLog { return &spanLog{runID: runID, t0: time.Now()} }

// do runs fn inside a span named name, nested under the innermost open
// span.
func (l *spanLog) do(name string, fn func() error) error {
	if l == nil {
		return fn()
	}
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].ID
	}
	idx := len(l.spans)
	l.spans = append(l.spans, span{ID: idx + 1, Parent: parent, RunID: l.runID, Name: name})
	l.open = append(l.open, idx)
	l.spans[idx].Start = time.Since(l.t0).Nanoseconds()
	err := fn()
	l.spans[idx].End = time.Since(l.t0).Nanoseconds()
	l.open = l.open[:len(l.open)-1]
	return err
}

// durations returns the durations in seconds of every span named name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
