package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestNilTracerIsInert pins the disabled contract: every method of a nil
// *Tracer (and of the zero SpanRef it hands out) returns without touching
// anything, so engines thread tracer calls unconditionally.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	sp := tr.Begin(PhaseStep, 3, 1)
	sp.End()
	sp.EndN(100, 5)
	tr.Flow(0, 0, 1, 64, 2)
	tr.Reset()
	rt := tr.Trace()
	if rt == nil {
		t.Fatal("nil tracer returned nil RunTrace")
	}
	if len(rt.Spans) != 0 || len(rt.Flows) != 0 {
		t.Fatalf("nil tracer collected records: %d spans, %d flows", len(rt.Spans), len(rt.Flows))
	}
	if got := rt.Transcript(); got != "" {
		t.Fatalf("nil tracer transcript not empty: %q", got)
	}
	if tot := rt.PhaseTotals(); tot != nil {
		t.Fatalf("nil tracer phase totals not empty: %v", tot)
	}
}

// TestTranscriptCanonicalOrder records spans and flows deliberately out of
// canonical order and asserts the transcript sorts them — and formats the
// optional bytes/count columns — exactly as documented.
func TestTranscriptCanonicalOrder(t *testing.T) {
	tr := NewTracer()
	tr.Begin(PhaseDeliver, 1, -1).EndN(100, 2)
	tr.Begin(PhaseStep, 0, 1).EndN(0, 3)
	tr.Begin(PhaseStep, 0, 0).End()
	tr.Begin(PhaseBarrierWait, 0, -1).End()
	tr.Flow(1, 1, 0, 7, 1)
	tr.Flow(0, 0, 1, 9, 2)
	want := "span round=0 worker=-1 phase=barrier-wait\n" +
		"span round=0 worker=0 phase=step\n" +
		"span round=0 worker=1 phase=step count=3\n" +
		"span round=1 worker=-1 phase=deliver bytes=100 count=2\n" +
		"flow round=0 0->1 bytes=9 count=2\n" +
		"flow round=1 1->0 bytes=7 count=1\n"
	if got := tr.Trace().Transcript(); got != want {
		t.Fatalf("transcript mismatch:\n got:\n%s want:\n%s", got, want)
	}
}

// TestTranscriptStartTiebreak pins the within-cell ordering: two spans in
// the same (round, worker, phase) cell sort by start time, which for a
// single recording goroutine is recording order.
func TestTranscriptStartTiebreak(t *testing.T) {
	tr := NewTracer()
	a := tr.Begin(PhaseStep, 0, 0)
	a.EndN(0, 1)
	time.Sleep(time.Millisecond)
	b := tr.Begin(PhaseStep, 0, 0)
	b.EndN(0, 2)
	want := "span round=0 worker=0 phase=step count=1\n" +
		"span round=0 worker=0 phase=step count=2\n"
	if got := tr.Trace().Transcript(); got != want {
		t.Fatalf("tiebreak mismatch:\n got:\n%s want:\n%s", got, want)
	}
}

// TestPhaseTotals folds a handful of spans and checks the aggregation and
// the fixed phase order.
func TestPhaseTotals(t *testing.T) {
	tr := NewTracer()
	tr.Begin(PhaseDeliver, 0, -1).EndN(100, 4)
	tr.Begin(PhaseDeliver, 1, -1).EndN(50, 2)
	tr.Begin(PhaseStep, 0, -1).EndN(0, 10)
	tot := tr.Trace().PhaseTotals()
	if len(tot) != 2 {
		t.Fatalf("got %d phase totals, want 2: %+v", len(tot), tot)
	}
	if tot[0].Phase != "step" || tot[0].Spans != 1 || tot[0].Count != 10 {
		t.Fatalf("step total wrong: %+v", tot[0])
	}
	if tot[1].Phase != "deliver" || tot[1].Spans != 2 || tot[1].Bytes != 150 || tot[1].Count != 6 {
		t.Fatalf("deliver total wrong: %+v", tot[1])
	}
}

// TestFlowMatrix folds flow records into the P×P byte matrix and checks
// out-of-range observations are dropped, not panicked on.
func TestFlowMatrix(t *testing.T) {
	tr := NewTracer()
	tr.Flow(0, 0, 1, 10, 1)
	tr.Flow(1, 0, 1, 5, 1)
	tr.Flow(0, 1, 0, 7, 1)
	tr.Flow(0, -1, 0, 99, 1) // coordinator src: outside the matrix
	tr.Flow(0, 0, 5, 99, 1)  // dst out of range
	m := tr.Trace().FlowMatrix(2)
	if m[0][1] != 15 || m[1][0] != 7 || m[0][0] != 0 || m[1][1] != 0 {
		t.Fatalf("flow matrix wrong: %v", m)
	}
}

// TestChromeTraceShape checks the Chrome export is valid JSON in the array
// form with one event per record and the documented tid mapping
// (worker -1 → tid 0).
func TestChromeTraceShape(t *testing.T) {
	tr := NewTracer()
	tr.Begin(PhaseStep, 0, -1).EndN(0, 3)
	tr.Begin(PhaseDeliver, 0, 2).EndN(64, 1)
	tr.Flow(0, 0, 1, 9, 2)
	var buf bytes.Buffer
	if err := tr.Trace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Name != "step" || evs[0].Ph != "X" || evs[0].Tid != 0 {
		t.Fatalf("span event wrong: %+v", evs[0])
	}
	if evs[1].Name != "deliver" || evs[1].Tid != 3 {
		t.Fatalf("worker tid mapping wrong: %+v", evs[1])
	}
	if evs[2].Name != "flow 0->1" || evs[2].Ph != "I" {
		t.Fatalf("flow event wrong: %+v", evs[2])
	}
}

// TestReset checks Reset drops all records so one tracer can time a
// sequence of runs.
func TestReset(t *testing.T) {
	tr := NewTracer()
	tr.Begin(PhaseStep, 0, 0).End()
	tr.Flow(0, 0, 1, 1, 1)
	tr.Reset()
	rt := tr.Trace()
	if len(rt.Spans) != 0 || len(rt.Flows) != 0 {
		t.Fatalf("records survived Reset: %d spans, %d flows", len(rt.Spans), len(rt.Flows))
	}
}

// TestConcurrentRecording exercises the mutex path: many goroutines
// recording into one tracer must lose no records (run with -race).
func TestConcurrentRecording(t *testing.T) {
	tr := NewTracer()
	const G, per = 8, 100
	done := make(chan struct{})
	for g := 0; g < G; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				tr.Begin(PhaseStep, i, g).EndN(1, 1)
				tr.Flow(i, g, (g+1)%G, 1, 1)
			}
		}(g)
	}
	for g := 0; g < G; g++ {
		<-done
	}
	rt := tr.Trace()
	if len(rt.Spans) != G*per || len(rt.Flows) != G*per {
		t.Fatalf("lost records: %d spans, %d flows, want %d each", len(rt.Spans), len(rt.Flows), G*per)
	}
}

// TestMarshalReport pins the report marshaler: indented, trailing newline,
// and the RunReport key set stays stable (cluster reports are parsed by CI).
func TestMarshalReport(t *testing.T) {
	enc, err := MarshalReport(RunReport{Engine: "seq", Rounds: 3, Verified: false})
	if err != nil {
		t.Fatal(err)
	}
	if enc[len(enc)-1] != '\n' {
		t.Fatal("report missing trailing newline")
	}
	var m map[string]any
	if err := json.Unmarshal(enc, &m); err != nil {
		t.Fatal(err)
	}
	if m["engine"] != "seq" {
		t.Fatalf("engine key wrong: %v", m)
	}
	if v, ok := m["verified"]; !ok || v != false {
		t.Fatalf("verified=false must be explicit in the report, got %v", m)
	}
	if _, ok := m["graph"]; ok {
		t.Fatalf("empty fields must be omitted, got %v", m)
	}
}
