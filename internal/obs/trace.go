package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// RunTrace is the collected record set of one run: what a Tracer saw,
// snapshot by Trace(). It exports two ways — a deterministic text
// transcript (timestamps stripped; pinnable in tests) and Chrome
// trace-event JSON (timestamps kept; for chrome://tracing / Perfetto).
type RunTrace struct {
	Spans []Span
	Flows []Flow
}

// canonical sorts the records into the canonical order the deterministic
// exports use: spans by (round, worker, phase, start), flows by
// (round, src, dst). Sorting by start is only a tiebreak WITHIN one
// (round, worker, phase) cell; distinct goroutines never share a cell, so
// the order is a function of the execution, not of the scheduler.
func (tr *RunTrace) canonical() (spans []Span, flows []Flow) {
	spans = append([]Span(nil), tr.Spans...)
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		return a.Start < b.Start
	})
	flows = append([]Flow(nil), tr.Flows...)
	sort.SliceStable(flows, func(i, j int) bool {
		a, b := flows[i], flows[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	return spans, flows
}

// Transcript renders the trace as the deterministic text form: one line
// per record in canonical order, timestamps stripped. Two traced runs of
// the same execution — on any engine, any machine, any day — produce the
// same transcript byte for byte, which is what the pinned-transcript
// regression tests assert literally.
func (tr *RunTrace) Transcript() string {
	var b strings.Builder
	spans, flows := tr.canonical()
	for _, s := range spans {
		fmt.Fprintf(&b, "span round=%d worker=%d phase=%s", s.Round, s.Worker, s.Phase)
		if s.Bytes != 0 {
			fmt.Fprintf(&b, " bytes=%d", s.Bytes)
		}
		if s.Count != 0 {
			fmt.Fprintf(&b, " count=%d", s.Count)
		}
		b.WriteByte('\n')
	}
	for _, f := range flows {
		fmt.Fprintf(&b, "flow round=%d %d->%d bytes=%d count=%d\n", f.Round, f.Src, f.Dst, f.Bytes, f.Count)
	}
	return b.String()
}

// chromeEvent is one Chrome trace-event record ("X" complete events for
// spans, "C" counter-style instant events for flows). Times are µs as the
// format demands.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the trace in Chrome trace-event JSON (the array
// form): load the file in chrome://tracing or https://ui.perfetto.dev to
// see per-worker timelines. Workers map to tids (the coordinator's -1
// becomes tid 0, worker s becomes tid s+1), so each worker gets its own
// swim lane.
func (tr *RunTrace) WriteChromeTrace(w io.Writer) error {
	spans, flows := tr.canonical()
	evs := make([]chromeEvent, 0, len(spans)+len(flows))
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.Phase.String(), Ph: "X",
			Ts: float64(s.Start.Microseconds()), Dur: float64(s.Dur().Microseconds()),
			Pid: 0, Tid: s.Worker + 1,
			Args: map[string]any{"round": s.Round, "bytes": s.Bytes, "count": s.Count},
		})
	}
	for _, f := range flows {
		evs = append(evs, chromeEvent{
			Name: fmt.Sprintf("flow %d->%d", f.Src, f.Dst), Ph: "I",
			Ts: 0, Pid: 0, Tid: f.Src + 1,
			Args: map[string]any{"round": f.Round, "bytes": f.Bytes, "count": f.Count},
		})
	}
	enc, err := json.MarshalIndent(evs, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(enc, '\n'))
	return err
}

// PhaseTotal aggregates every span of one phase: where the run's time and
// bytes went. Micros is wall-clock (nondeterministic); Bytes/Count/Spans
// are deterministic.
type PhaseTotal struct {
	Phase  string `json:"phase"`
	Micros int64  `json:"micros"`
	Bytes  int64  `json:"bytes,omitempty"`
	Count  int64  `json:"count,omitempty"`
	Spans  int    `json:"spans"`
}

// PhaseTotals folds the trace into per-phase totals, in phase order,
// omitting phases with no spans. This is the breakdown cmd/cluster's
// report and the trusted benchmark's phase rows are made of.
func (tr *RunTrace) PhaseTotals() []PhaseTotal {
	var acc [numPhases]PhaseTotal
	for _, s := range tr.Spans {
		a := &acc[s.Phase]
		a.Micros += s.Dur().Microseconds()
		a.Bytes += s.Bytes
		a.Count += s.Count
		a.Spans++
	}
	var out []PhaseTotal
	for ph, a := range acc {
		if a.Spans == 0 {
			continue
		}
		a.Phase = Phase(ph).String()
		out = append(out, a)
	}
	return out
}

// FlowMatrix folds the flow records into the P×P byte matrix m[src][dst]
// (observations outside [0, p) are dropped). For the socket cluster every
// frame passes the coordinator, so row sums are what each worker uploads
// into the funnel and column sums what the coordinator fans back out.
func (tr *RunTrace) FlowMatrix(p int) [][]int64 {
	m := make([][]int64, p)
	for i := range m {
		m[i] = make([]int64, p)
	}
	for _, f := range tr.Flows {
		if f.Src >= 0 && f.Src < p && f.Dst >= 0 && f.Dst < p {
			m[f.Src][f.Dst] += f.Bytes
		}
	}
	return m
}
