package net

import (
	"fmt"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// Transports the in-process engine can run its worker connections over.
// Pipe is the default: synchronous in-memory net.Conn pairs, zero setup
// cost, and the strictest flow-control regime (every write rendezvouses
// with a read), which makes it the best deadlock canary for the protocol.
// Unix and TCP run the same bytes over real localhost sockets — the closest
// in-process stand-in for a real deployment (cmd/cluster is the multi-process
// one); the ladder.net4_relay_unix_ms and ladder.net4_stream_unix_ms rungs of
// benchmark/README.md price them against their pipe twins.
const (
	TransportPipe = "pipe"
	TransportUnix = "unix"
	TransportTCP  = "tcp"
)

// Engine is the in-process form of the socket cluster: a dist.Engine whose
// Run spawns P Worker goroutines connected to a coordinator over real
// net.Conns and speaks the full wire protocol — handshake, round loop on
// either frame plane, finish — end to end. Executions are byte-identical to
// dist.SeqEngine's (package comment has the argument; the equivalence and
// pinned-metrics tests hold it to that). Obtain one with NewEngine; the zero
// value is not usable.
type Engine struct {
	// Transport selects the connection kind: TransportPipe (default),
	// TransportUnix or TransportTCP. Set it before Run.
	Transport string
	// IOTimeout, when non-zero, is installed on every connection
	// (Conn.SetIOTimeout) and on the coordinator's reply waits
	// (Spec.IOTimeout): a stalled peer fails the run instead of hanging it.
	IOTimeout time.Duration
	// Stream selects the streamed frame plane (DESIGN.md §8.4, §14):
	// cross-shard messages flow worker↔worker over an in-process mesh of
	// net.Pipe links, the peers' end markers close a round, and the
	// coordinator verifies behind. Results stay byte-identical to every other
	// engine's. A worker that dies mid-run is respawned on a fresh pipe and
	// runs again from Init on its peers' retained flows instead of failing the
	// run (DESIGN.md §13); with an IOTimeout a silent death surfaces as one.
	Stream bool
	// ChunkBytes overrides the streaming chunk flush threshold (≤ 0 means
	// shard.DefaultChunkBytes). Tests shrink it to force multi-chunk flows.
	ChunkBytes int

	p    int
	part shard.Partitioner
	lam  quantize.Lambda
	// sm is the last run's cluster ledger, shared across WithWireLambda
	// copies exactly like the sharded engine's.
	sm *shard.ShardMetrics
	// trace, when set, is installed on the coordinator spec and every
	// in-process worker, so one tracer collects the full cluster timeline:
	// coordinator barrier-wait and relay/verify spans and shard-pair flows
	// interleaved with the per-worker spans.
	trace *obs.Tracer
	// wrap is the cluster's link seam (Cluster.Wrap), for this package's fault
	// tests; recov the last run's recovery count, shared like sm.
	wrap  LinkFunc
	recov *int
	// swire is the last streamed run's per-worker mesh wire counters,
	// shared across WithWireLambda copies like sm.
	swire *[]codec.StreamWire
}

// NewEngine returns a socket-cluster engine with p workers placed by part
// (nil means shard.Hash{}), running over net.Pipe until Transport says
// otherwise.
func NewEngine(p int, part shard.Partitioner) *Engine {
	if p < 1 {
		panic("net: NewEngine requires p >= 1")
	}
	if part == nil {
		part = shard.Hash{}
	}
	return &Engine{Transport: TransportPipe, p: p, part: part, sm: &shard.ShardMetrics{},
		recov: new(int), swire: new([]codec.StreamWire)}
}

// StreamWire returns each worker's cumulative mesh wire counters from the
// most recent streamed Run (nil when it ran relayed) — the per-worker wire
// traffic that must stay ~flat as P grows, versus the relay coordinator's
// funnel which grows with total traffic.
func (e *Engine) StreamWire() []codec.StreamWire {
	return append([]codec.StreamWire(nil), *e.swire...)
}

// Recoveries returns the number of worker crash recoveries the most recent
// Run performed (0 when it ran relayed or nothing died).
func (e *Engine) Recoveries() int { return *e.recov }

// SetTracer installs (or, with nil, removes) the tracer subsequent Runs
// record into; shared with WithWireLambda copies made afterwards. The
// tracer is handed to the coordinator and all P worker goroutines — its
// internal lock makes the concurrent appends safe, and the canonical
// transcript order is scheduler-independent (obs package comment).
func (e *Engine) SetTracer(t *obs.Tracer) { e.trace = t }

// P returns the worker count.
func (e *Engine) P() int { return e.p }

// Name identifies the engine configuration in experiment tables,
// e.g. "net:4/greedy" ("net:4/greedy/unix" off the default transport,
// "net:4/greedy/stream" when it runs streamed).
func (e *Engine) Name() string {
	n := fmt.Sprintf("net:%d/%s", e.p, e.part.Name())
	if e.Transport != "" && e.Transport != TransportPipe {
		n += "/" + e.Transport
	}
	if e.Stream {
		n += "/stream"
	}
	return n
}

// WithWireLambda implements dist.Engine. The copy shares the cluster
// ledger with the original, so e.ClusterMetrics() reflects runs made
// through the copy.
func (e *Engine) WithWireLambda(lam quantize.Lambda) dist.Engine {
	c := *e
	c.lam = lam
	return &c
}

// ClusterMetrics returns a copy of the most recent Run's cluster ledger —
// the same units as the sharded engine's ShardMetrics, now measured on
// frames that crossed real connections.
func (e *Engine) ClusterMetrics() shard.ShardMetrics {
	sm := *e.sm
	sm.PerShardBytes = append([]int64(nil), e.sm.PerShardBytes...)
	return sm
}

// Run implements dist.Engine: bring a Cluster up whose worker body is one
// coordinated run, drive the run, tear the cluster down. Like the other
// engines it has no error channel; connection failures and protocol
// violations — impossible in a correct in-process run short of a resource
// failure — panic with the coordinator's diagnosis.
func (e *Engine) Run(g *graph.Graph, factory dist.Factory, maxRounds int) dist.Metrics {
	assign, err := shard.Place(e.part, g, e.p)
	if err != nil {
		panic("net: " + err.Error())
	}
	body := func(s Seat) error {
		w := s.Worker(g, assign)
		w.lam, w.Trace, w.ChunkBytes = e.lam, e.trace, e.ChunkBytes
		_, err := w.run(g, factory, maxRounds)
		return err
	}
	cl := &Cluster{P: e.p, Transport: e.Transport, IOTimeout: e.IOTimeout, Stream: e.Stream, Wrap: e.wrap}
	if err := cl.Start(body); err != nil {
		panic("net: " + err.Error())
	}
	met, rep, err := cl.Run(Spec{
		MaxRounds:  maxRounds,
		Lam:        e.lam,
		GraphHash:  g.Fingerprint(),
		PartDigest: shard.PartitionDigest(assign),
		Trace:      e.trace,
	}, body)
	cl.Close()
	if err != nil {
		panic(fmt.Errorf("net: %w", err))
	}
	*e.recov = rep.Recoveries
	*e.swire = rep.StreamWire
	rep.Sharding.EdgeCutFraction = shard.CutFraction(g, assign)
	*e.sm = rep.Sharding
	return met
}
