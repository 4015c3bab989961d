package shard

import (
	"fmt"
	"math"
	"sync"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
)

// Engine is the sharded cluster engine. It implements dist.Engine on a
// dist.Driver: P worker goroutines each step the nodes of one shard
// (ascending ID within the shard) and frame what they sent across shard
// boundaries, a barrier closes the round, and the coordinator prices the
// frames and delivers single-threaded. Every frame entry is decoded back
// and held bit for bit to the message it was encoded from (a difference
// panics), so the bytes accounted in ShardMetrics are exactly bytes the
// execution could have run on. Executions are byte-identical to
// dist.SeqEngine's (the dist package's determinism contract; asserted by
// this package's equivalence tests).
//
// Obtain one with NewEngine; the zero value is not usable.
type Engine struct {
	p    int
	part Partitioner
	lam  quantize.Lambda
	// sm is the last run's shard metrics. It is a pointer so that the
	// copies WithWireLambda hands to protocol drivers share the sink and
	// the caller's handle still observes the run.
	sm *ShardMetrics
	// trace, when set, records per-shard step and encode spans, the
	// coordinator's barrier-wait and deliver spans, and one Flow per
	// non-empty frame at flush. It observes the ledgers the run already
	// keeps, so a traced run is byte-identical to an untraced one (obs
	// package comment).
	trace *obs.Tracer
}

// NewEngine returns a sharded engine with p shards placed by part
// (nil means Hash{}).
func NewEngine(p int, part Partitioner) *Engine {
	if p < 1 {
		panic("shard: NewEngine requires p >= 1")
	}
	if part == nil {
		part = Hash{}
	}
	return &Engine{p: p, part: part, sm: &ShardMetrics{}}
}

// SetTracer installs (or, with nil, removes) the tracer subsequent Runs
// record into. Like the metric sinks, the installation is shared with
// WithWireLambda copies made afterwards.
func (e *Engine) SetTracer(t *obs.Tracer) { e.trace = t }

// P returns the shard count.
func (e *Engine) P() int { return e.p }

// Name identifies the engine configuration in experiment tables,
// e.g. "shard:8/greedy".
func (e *Engine) Name() string { return fmt.Sprintf("shard:%d/%s", e.p, e.part.Name()) }

// WithWireLambda implements dist.Engine. The copy shares the ShardMetrics
// sink with the original, so e.ShardMetrics() reflects runs made through
// the copy (protocol drivers re-wrap engines with the protocol's Λ
// internally).
func (e *Engine) WithWireLambda(lam quantize.Lambda) dist.Engine {
	c := *e
	c.lam = lam
	return &c
}

// ShardMetrics returns a copy of the most recent Run's sharding metrics.
func (e *Engine) ShardMetrics() ShardMetrics {
	sm := *e.sm
	sm.PerShardBytes = append([]int64(nil), e.sm.PerShardBytes...)
	return sm
}

// Run implements dist.Engine.
func (e *Engine) Run(g *graph.Graph, factory dist.Factory, maxRounds int) dist.Metrics {
	p := e.p
	lam := e.lam
	if lam == nil {
		lam = quantize.Reals{}
	}
	// Like every other engine failure, a placement that does not hold is a
	// panic — the Engine interface has no error channel.
	assign, err := Place(e.part, g, p)
	if err != nil {
		panic(err.Error())
	}
	shards := make([][]graph.NodeID, p)
	for v, s := range assign { // ascending v ⇒ ascending IDs within a shard
		shards[s] = append(shards[s], v)
	}

	sm := ShardMetrics{P: p, PerShardBytes: make([]int64, p), EdgeCutFraction: CutFraction(g, assign)}

	d := dist.NewDriver(g, lam, factory)

	// frames[s*p+q] batches this round's s→q traffic. Shard s's worker
	// frames its own nodes' sends right after stepping them (Fanout.Emit:
	// one entry per destination shard for a leading broadcast, one per
	// cross-shard recipient for everything else), so row s of the matrix
	// has one writer. Every entry is decoded again on the spot and held to
	// the message it encodes, bit for bit — the round trip that ties the
	// bytes accounted to the execution. The buffer matrix comes from a
	// sync.Pool, so repeated runs reuse the grown encode buffers instead of
	// allocating fresh ones.
	fs := getFrameSet(p)
	defer putFrameSet(fs)
	frames := fs.frames
	// flush closes the round's frames: prices each non-empty one (header +
	// body) and its entries into the shard ledgers, emits its Flow record,
	// and resets the buffers.
	flush := func(round int) {
		for s := 0; s < p; s++ {
			for q := 0; q < p; q++ {
				fb := &frames[s*p+q]
				if fb.count == 0 {
					continue
				}
				n := int64(codec.FrameHeaderSize(codec.FrameHeader{
					Src: s, Dst: q, Round: round, Count: fb.count,
				})) + int64(len(fb.buf))
				sm.CrossMessages += int64(fb.count)
				sm.CrossFrameBytes += n
				sm.PerShardBytes[s] += n
				e.trace.Flow(round, s, q, n, int64(fb.count))
				fb.buf = fb.buf[:0]
				fb.count = 0
			}
		}
	}

	// One worker per shard; a round value on the work channel means "step
	// your nodes, then frame what they sent" (0 = Init). The WaitGroup is
	// the per-round barrier and the happens-before edge that makes the
	// coordinator's flush and Deliver safe.
	work := make([]chan int, p)
	var wg sync.WaitGroup
	for s := 0; s < p; s++ {
		work[s] = make(chan int, 1)
		go func(s int) {
			row := frames[s*p : (s+1)*p]
			fan := NewFanout(g, assign, p, shards[s])
			var scratch VecArena // the check's decoded Vecs, dead after each entry
			entry := func(q int, to graph.NodeID, m dist.Message) {
				fb := &row[q]
				start := len(fb.buf)
				fb.buf = AppendMessage(fb.buf, lam, to, m)
				fb.count++
				scratch.Reset()
				assertRoundTrip(fb.buf[start:], lam, &scratch, to, m)
			}
			for t := range work[s] {
				sp := e.trace.Begin(obs.PhaseStep, t, s)
				sp.EndN(0, int64(d.StepList(shards[s], t))) // hooks run, as on seq and par
				enc := e.trace.Begin(obs.PhaseEncode, t, s)
				fan.Emit(d, entry)
				enc.End()
				wg.Done()
			}
		}(s)
	}
	step := func(t int) {
		wg.Add(p)
		for s := 0; s < p; s++ {
			work[s] <- t
		}
		bw := e.trace.Begin(obs.PhaseBarrierWait, t, -1)
		wg.Wait()
		bw.End()
		cb0, cm0 := sm.CrossFrameBytes, sm.CrossMessages
		dl := e.trace.Begin(obs.PhaseDeliver, t, -1)
		flush(t)
		d.Deliver(nil)
		dl.EndN(sm.CrossFrameBytes-cb0, sm.CrossMessages-cm0)
	}

	step(0)
	rounds := 0
	for t := 1; t <= maxRounds && d.Alive() > 0; t++ {
		rounds = t
		step(t)
	}
	for s := 0; s < p; s++ {
		close(work[s])
	}
	for _, b := range sm.PerShardBytes {
		if b > sm.MaxShardBytes {
			sm.MaxShardBytes = b
		}
	}
	*e.sm = sm
	return d.Finish(rounds)
}

// assertRoundTrip decodes the entry just encoded and panics unless it is
// exactly (to, m) and nothing more: a codec that lost a bit would otherwise
// only show on the surfaces that deliver the decoded bytes.
func assertRoundTrip(enc []byte, lam quantize.Lambda, a *VecArena, to graph.NodeID, m dist.Message) {
	dto, dm, n, err := DecodeMessage(enc, lam, a)
	if err != nil {
		panic("shard: frame codec round trip failed: " + err.Error())
	}
	same := n == len(enc) && dto == to && dm.From == m.From && dm.Kind == m.Kind && dm.I0 == m.I0 &&
		math.Float64bits(dm.F0) == math.Float64bits(m.F0) && len(dm.Vec) == len(m.Vec)
	for i := 0; same && i < len(m.Vec); i++ {
		same = math.Float64bits(dm.Vec[i]) == math.Float64bits(m.Vec[i])
	}
	if !same {
		panic(fmt.Sprintf("shard: frame codec round trip changed an entry: (%d, %+v) decoded as (%d, %+v)", to, m, dto, dm))
	}
}
