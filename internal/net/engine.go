package net

import (
	"fmt"
	"sync"
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
	// Recover arms crash recovery (DESIGN.md §13): the run's cross-shard
	// flows stay retained, and a worker that dies mid-run — the KillAt fault
	// injection, or a real failure — is respawned on a fresh pipe and runs
	// again from Init instead of failing the run. Set it before Run, together
	// with an IOTimeout so a silent death surfaces as a timeout.
	Recover bool
	// Stream selects the streamed frame plane (DESIGN.md §8.4, §14):
	// cross-shard messages flow worker↔worker over an in-process mesh of
	// net.Pipe links, the peers' end markers close a round, and the
	// coordinator verifies behind. Results stay byte-identical to every other
	// engine's.
	Stream bool
	// MeshThreshold is the P at or above which a streamed run relays over
	// a hypercube instead of the full mesh (≤ 0 means the default of 16;
	// power-of-two P only, and recovery forces the full mesh).
	MeshThreshold int
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
	// kill is the armed fault injection (KillAt) and recov the last run's
	// recovery count, both shared across WithWireLambda copies like sm.
	kill  *killPlan
	recov *int
	// swire is the last streamed run's per-worker mesh wire counters,
	// shared across WithWireLambda copies like sm.
	swire *[]codec.StreamWire
}

// killPlan is one armed one-shot fault injection: worker dies the first
// time it reaches phase ph of round r. fired makes it one-shot, so the
// respawned incarnation replaying the same round does not die again.
type killPlan struct {
	mu     sync.Mutex
	armed  bool
	phase  obs.Phase
	round  int
	worker int
	fired  bool
}

// fire reports (once) whether worker w reaching phase ph of round r is the
// armed kill point.
func (k *killPlan) fire(ph obs.Phase, r, w int) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.armed || k.fired || w != k.worker || r != k.round || ph != k.phase {
		return false
	}
	k.fired = true
	return true
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
		kill: &killPlan{}, recov: new(int), swire: new([]codec.StreamWire)}
}

// StreamWire returns each worker's cumulative mesh wire counters from the
// most recent streamed Run (nil when Stream was off) — the per-worker wire
// traffic that must stay ~flat as P grows, versus the relay coordinator's
// funnel which grows with total traffic.
func (e *Engine) StreamWire() []codec.StreamWire {
	return append([]codec.StreamWire(nil), *e.swire...)
}

// KillAt arms a one-shot fault injection for the next Run: worker dies —
// its connection closed mid-protocol, its goroutine aborted — the first
// time it reaches phase ph of round r. One-shot: the respawned incarnation
// replaying the same round runs through the same point unharmed. With
// Recover set the run then exercises the full crash-recovery path and must
// still produce byte-identical results; without it the run fails exactly as
// a real death would. Shared with WithWireLambda copies.
func (e *Engine) KillAt(ph obs.Phase, r, w int) {
	e.kill.mu.Lock()
	e.kill.armed, e.kill.phase, e.kill.round, e.kill.worker, e.kill.fired = true, ph, r, w, false
	e.kill.mu.Unlock()
}

// Recoveries returns the number of worker crash recoveries the most recent
// Run performed (0 when recovery was off or nothing died).
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
// "net:4/greedy/stream" with streamed delivery).
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
		w.Kill = func(ph obs.Phase, r int) bool { return e.kill.fire(ph, r, s.Shard) }
		_, err := w.run(g, factory, maxRounds)
		return err
	}
	cl := &Cluster{P: e.p, Transport: e.Transport, IOTimeout: e.IOTimeout, Stream: e.Stream}
	if err := cl.Start(body); err != nil {
		panic("net: " + err.Error())
	}
	met, rep, err := cl.Run(Spec{
		MaxRounds:     maxRounds,
		Lam:           e.lam,
		GraphHash:     g.Fingerprint(),
		PartDigest:    shard.PartitionDigest(assign),
		Recover:       e.Recover,
		MeshThreshold: e.MeshThreshold,
		Trace:         e.trace,
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
