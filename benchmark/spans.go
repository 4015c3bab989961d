package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (the layers themselves are not edited). parent is the index of the
// span that caused it (-1 for a root); op is the root of its tree, the
// identifier the spans of one operation share.
type span struct {
	name       string
	start, end time.Duration
	parent, op int
}

// recorder keeps harness spans in memory until the run ends. It is used from
// the harness goroutine only.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its index.
func (r *recorder) begin(name string, parent int) int {
	id := len(r.spans)
	op := id
	if parent >= 0 {
		op = r.spans[parent].op
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.t0), parent: parent, op: op})
	return id
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id]
	s.end = time.Since(r.t0)
	return s.end - s.start
}

// selfTime is span id's duration minus the part its child spans cover.
func (r *recorder) selfTime(id int) time.Duration {
	self := r.spans[id].end - r.spans[id].start
	for _, s := range r.spans {
		if s.parent == id {
			self -= s.end - s.start
		}
	}
	return self
}

// childTotal sums the durations of id's direct children called name.
func (r *recorder) childTotal(id int, name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.parent == id && s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace-event JSON (the array form
// internal/obs exports, so both load in chrome://tracing or Perfetto). Each
// op gets its own track.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		evs = append(evs, event{
			Name: s.name, Ph: "X",
			Ts: float64(s.start.Microseconds()), Dur: float64((s.end - s.start).Microseconds()),
			Tid:  s.op,
			Args: map[string]any{"id": i, "parent": s.parent, "op": s.op},
		})
	}
	raw, err := json.Marshal(evs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
