package shard

import (
	"fmt"
	"math"
	"sync"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
)

// Engine is the sharded cluster engine: a dist.Engine that runs P shards in
// one process, one worker goroutine and one Local — the run state an
// internal/net worker holds — each. A round: every shard steps its own nodes
// (ascending ID) and frames what they sent across shard boundaries, each
// frame handed whole to the shard it is for, which decodes it into its Driver
// (Local.Absorb); a barrier; every shard delivers its own inboxes; the round
// closes on the alive count summed over the shards. The decoded entries are
// what the receiving shard runs on, so a frame codec that lost a bit would
// show as a divergence from dist.SeqEngine, to which this package's
// equivalence tests hold every execution byte for byte, as internal/net's do
// theirs. ShardMetrics prices each frame as the net planes do.
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
	// trace, when set, records per-shard step, encode and deliver spans, the
	// coordinator's barrier-wait span, and one Flow per non-empty frame. It
	// observes the ledgers the run already keeps, so a traced run is
	// byte-identical to an untraced one (obs package comment).
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
	sm := ShardMetrics{P: p, PerShardBytes: make([]int64, p), EdgeCutFraction: CutFraction(g, assign)}
	entries := make([]int64, p) // frame entries shard s sent; its bytes are PerShardBytes[s]
	locals := make([]*Local, p)
	for s := range locals {
		locals[s] = NewLocal(g, assign, p, s, lam, factory)
	}
	// cur is the round in flight. The coordinator sets it while every worker
	// is parked; the hand-off on work orders it before the workers read it.
	cur := 0
	for s, l := range locals {
		rows := l.Fan.Rows(p)
		for q, ps := range l.Out {
			if ps != nil { // one frame a pair a round, as on the relay plane
				ps.Limit = math.MaxInt
				ps.Flush = func(body []byte, count int) error { return locals[q].Absorb(s, cur, body, count) }
				ps.Reserve(rows[q], g.N())
			}
		}
	}
	// send hands every peer shard s's frame of round t, each absorbed before
	// the next is framed, and prices it as the streamed worker does.
	send := func(s, t int) (bytes, msgs int64) {
		l := locals[s]
		if err := l.Emit(); err != nil {
			panic(err.Error())
		}
		for q, ps := range l.Out {
			if ps == nil || ps.Msgs == 0 {
				continue
			}
			if err := ps.Finish(); err != nil {
				panic(err.Error())
			}
			lb := LogicalFrameBytes(s, q, t, ps.Msgs, ps.BodyBytes)
			e.trace.Flow(t, s, q, lb, int64(ps.Msgs))
			bytes, msgs = bytes+lb, msgs+int64(ps.Msgs)
			ps.Reset()
		}
		sm.PerShardBytes[s] += bytes
		entries[s] += msgs
		return bytes, msgs
	}

	// One worker per shard: false on its work channel means "step your nodes,
	// then send", true "deliver your inboxes". The WaitGroup is the barrier
	// after each phase and the happens-before edge between them.
	work := make([]chan bool, p)
	var wg sync.WaitGroup
	for s := range locals {
		work[s] = make(chan bool, 1)
		go func() {
			l := locals[s]
			for deliver := range work[s] {
				t := cur
				if deliver {
					dl := e.trace.Begin(obs.PhaseDeliver, t, s)
					l.D.Deliver(nil)
					dl.End()
				} else {
					sp := e.trace.Begin(obs.PhaseStep, t, s)
					sp.EndN(0, int64(l.D.StepList(l.Own, t))) // hooks run, as on seq and par
					enc := e.trace.Begin(obs.PhaseEncode, t, s)
					enc.EndN(send(s, t))
				}
				wg.Done()
			}
		}()
	}
	phase := func(deliver bool) {
		wg.Add(p)
		for _, w := range work {
			w <- deliver
		}
		wg.Wait()
	}

	rounds, alive := 0, 0
	for t := 0; t == 0 || (t <= maxRounds && alive > 0); t++ {
		rounds, cur = t, t
		for _, l := range locals {
			l.ResetArenas(t)
		}
		bw := e.trace.Begin(obs.PhaseBarrierWait, t, -1)
		phase(false)
		bw.End()
		phase(true)
		alive = 0
		for _, l := range locals {
			alive += l.D.Alive()
		}
	}
	for _, w := range work {
		close(w)
	}
	var met dist.Metrics
	for s, l := range locals {
		m := l.D.Finish(rounds)
		l.Release()
		met.Messages, met.Words, met.WireBytes = met.Messages+m.Messages, met.Words+m.Words, met.WireBytes+m.WireBytes
		sm.CrossMessages += entries[s]
		sm.CrossFrameBytes += sm.PerShardBytes[s]
		sm.MaxShardBytes = max(sm.MaxShardBytes, sm.PerShardBytes[s])
	}
	met.Rounds, met.Halted = rounds, alive == 0
	*e.sm = sm
	return met
}
