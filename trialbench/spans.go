package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the traced run. Spans of one rung call share
// its id as their parent; a Solve replica's Build and RunProtocol are
// children of its solve span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Trial  int32  `json:"trial"` // reference trial index, -1 if none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxTrialSpans caps the per-trial spans kept in memory; later ones are
// counted, not kept. Every other span is kept.
const maxTrialSpans = 1 << 16

// tracer keeps the run's spans in memory until the run ends. It is used
// from one goroutine at a time: the sweep rungs add their per-trial spans
// from the merge callback, which runs on the fold goroutine while the
// caller is blocked inside the sweep.
type tracer struct {
	base    time.Time
	spans   []span
	trials  int // per-trial spans kept
	dropped int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now is the tracer clock: monotonic nanoseconds since the run started.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int32, trial int, start, end int64) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Trial: int32(trial), Start: start, End: end})
	return id
}

// addTrial records a finished per-trial span of a rung, unless
// maxTrialSpans are already kept.
func (t *tracer) addTrial(name string, parent int32, trial int, start, end int64) {
	if t.trials >= maxTrialSpans {
		t.dropped++
		return
	}
	t.trials++
	t.add(name, parent, trial, start, end)
}

// open records a span whose end is filled in by close.
func (t *tracer) open(name string, parent int32, trial int) int32 {
	now := t.now()
	return t.add(name, parent, trial, now, now)
}

func (t *tracer) close(id int32) { t.spans[id].End = t.now() }

// durations returns the durations in µs of the spans with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
