// Package obs is the observability layer of the execution stack: a
// zero-overhead-when-disabled tracing and timing subsystem every engine
// threads through its seams (DESIGN.md §11).
//
// The design splits *what happened* from *when it happened*. A Tracer
// collects two kinds of typed records:
//
//   - Span — one timed occurrence of a phase (step, encode, relay, deliver,
//     barrier-wait, repair, rebalance, publish, epoch) on one worker in one
//     round, with wall-clock start/end plus the deterministic quantities the
//     phase moved (bytes, items);
//   - Flow — one shard-pair byte flow observation (the P×P matrix that makes
//     the coordinator funnel of the socket cluster visible).
//
// Everything except the timestamps is a pure function of the execution, and
// every engine execution is byte-identical across engines by the dist
// package's determinism contract — so a RunTrace exports two ways:
// Transcript() strips the timestamps and canonically orders the records,
// yielding a byte-pinnable text form for regression tests, while
// WriteChromeTrace keeps them, yielding a chrome://tracing / Perfetto
// timeline for humans.
//
// Determinism argument (why tracing cannot affect executions): a Tracer
// only *observes* — every hook is called with values the engine already
// computed (round numbers, byte counts, metric deltas) and returns nothing,
// so no engine decision can depend on it. A nil *Tracer is the no-op
// default: every method is nil-safe and returns before touching any state,
// so the disabled cost is one predictable branch per phase boundary — a few
// per round, never per message.
//
// Tracers are safe for concurrent use: the concurrent engines (par, shard,
// net workers) record spans from many goroutines; a mutex guards the
// record slices. The lock is per span/flow — phase granularity, not
// message granularity — so contention is bounded by rounds × workers.
package obs

import (
	"sync"
	"time"
)

// Phase names one kind of timed work inside an execution. The taxonomy is
// fixed (DESIGN.md §11): engines may leave phases unused but must not
// invent synonyms, so traces stay comparable across engines.
type Phase uint8

const (
	// PhaseStep is protocol work: running node hooks (Init/Round).
	PhaseStep Phase = iota
	// PhaseEncode is frame building: tapping sends and encoding cross-shard
	// messages into the wire format.
	PhaseEncode
	// PhaseRelay is coordinator forwarding: writing parked frames on to
	// their destination workers.
	PhaseRelay
	// PhaseDeliver is mailbox assembly: moving buffered sends into
	// next-round inboxes.
	PhaseDeliver
	// PhaseBarrierWait is time spent blocked on peers: a shard coordinator
	// waiting for its worker goroutines, a net worker waiting for the
	// coordinator's deliver record.
	PhaseBarrierWait
	// PhaseRepair is a session worker absorbing an epoch's delta: the
	// dynamic.Maintainer's in-place adjacency mutation and frontier repair.
	PhaseRepair
	// PhaseRebalance is incremental partitioning: Partitioner.Rebalance
	// after a churn batch.
	PhaseRebalance
	// PhasePublish is subscription fan-out: matching changed values against
	// topics and emitting notifications.
	PhasePublish
	// PhaseEpoch is one whole session epoch, broadcast to seal.
	PhaseEpoch
	// PhaseRecover is crash recovery: respawning a dead worker and
	// re-admitting it (DESIGN.md §13).
	PhaseRecover
	// PhaseSend is direct worker→worker streaming (DESIGN.md §14): chunking
	// the round's cross-shard sends onto the mesh connections as they are
	// produced. It replaces PhaseRelay on streamed runs — the relay funnel's
	// bytes move here, split across the workers.
	PhaseSend
	// PhaseRecv is the streamed receive barrier: a worker, released by the
	// coordinator, waiting for the end markers of every inbound mesh flow
	// before it delivers.
	PhaseRecv
	// PhaseVerify is the streamed coordinator's round service: releasing the
	// delivery barrier and checking the sent/received digest matrix. Its
	// byte count is the verified flow volume — bytes the coordinator NEVER
	// carried, unlike PhaseRelay's.
	PhaseVerify
	numPhases
)

var phaseNames = [numPhases]string{
	"step", "encode", "relay", "deliver", "barrier-wait",
	"repair", "rebalance", "publish", "epoch", "recover",
	"send", "recv", "verify",
}

// String returns the phase's canonical name, e.g. "barrier-wait".
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Span is one timed occurrence of a phase. Start/End are wall-clock offsets
// from the tracer's birth; everything else is deterministic.
type Span struct {
	Phase Phase
	// Round is the round (or, in a session, the epoch) the span belongs
	// to; -1 when the work is not tied to one.
	Round int
	// Worker is the shard/worker index doing the work; -1 for the
	// coordinator or a global (single-threaded) engine.
	Worker int
	// Start and End are offsets from the tracer's birth.
	Start, End time.Duration
	// Bytes is the wire volume the span moved (frame bytes encoded,
	// relayed or delivered); 0 when the phase moves no bytes.
	Bytes int64
	// Count is the number of items the span processed — messages,
	// frames, changed values, notifications; phase-defined.
	Count int64
}

// Dur returns the span's wall-clock duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Flow is one shard-pair byte flow observation: src sent bytes/count
// (frame header + body / messages) toward dst during round.
type Flow struct {
	Round, Src, Dst int
	Bytes, Count    int64
}

// Tracer collects spans and flows for one run (or one session lifetime).
// The zero value is NOT usable — obtain one with NewTracer. A nil *Tracer
// is the disabled tracer: every method no-ops.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	flows []Flow
}

// NewTracer returns an enabled tracer; its clock starts now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Enabled reports whether t collects anything (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// SpanRef is an open span returned by Begin; call End (or EndN) exactly
// once. The zero SpanRef (from a nil tracer) is inert: End is a no-op.
type SpanRef struct {
	t      *Tracer
	phase  Phase
	round  int
	worker int
	start  time.Duration
}

// Begin opens a span of phase ph for (round, worker). On a nil tracer it
// returns the inert zero ref without reading the clock.
func (t *Tracer) Begin(ph Phase, round, worker int) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return SpanRef{t: t, phase: ph, round: round, worker: worker, start: time.Since(t.t0)}
}

// End closes the span with no byte/item accounting.
func (r SpanRef) End() { r.EndN(0, 0) }

// EndN closes the span, recording the bytes and items it moved.
func (r SpanRef) EndN(bytes, count int64) {
	if r.t == nil {
		return
	}
	end := time.Since(r.t.t0)
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, Span{
		Phase: r.phase, Round: r.round, Worker: r.worker,
		Start: r.start, End: end, Bytes: bytes, Count: count,
	})
	r.t.mu.Unlock()
}

// Flow records one shard-pair byte flow. Nil-safe.
func (t *Tracer) Flow(round, src, dst int, bytes, count int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.flows = append(t.flows, Flow{Round: round, Src: src, Dst: dst, Bytes: bytes, Count: count})
	t.mu.Unlock()
}

// Trace returns a snapshot of everything recorded so far. Nil-safe (an
// empty trace comes back for the disabled tracer, so export paths need no
// nil checks of their own).
func (t *Tracer) Trace() *RunTrace {
	if t == nil {
		return &RunTrace{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &RunTrace{
		Spans: append([]Span(nil), t.spans...),
		Flows: append([]Flow(nil), t.flows...),
	}
}

// Reset drops all recorded records and restarts the clock, so one tracer
// can time a sequence of runs without cross-talk.
// Nil-safe.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.t0 = time.Now()
	t.spans = t.spans[:0]
	t.flows = t.flows[:0]
	t.mu.Unlock()
}
