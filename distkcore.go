// Package distkcore is a Go implementation of
//
//	T-H. Hubert Chan, Mauro Sozio, Bintao Sun:
//	"Distributed Approximate k-Core Decomposition and Min-Max Edge
//	 Orientation: Breaking the Diameter Barrier", IEEE IPDPS 2019.
//
// It provides distributed (LOCAL-model) algorithms whose round complexity
// is logarithmic in the number of nodes and independent of the graph
// diameter:
//
//   - ApproxCoreness: 2(1+ε)-approximate coreness values and maximal
//     densities via the compact elimination procedure (Theorem I.1),
//   - ApproxOrientation: 2(1+ε)-approximate min-max edge orientation via
//     the primal-dual augmented procedure (Theorem I.2),
//   - WeakDensest: the distributed (weak) densest subset problem
//     (Theorem I.3),
//
// together with the exact centralized ground-truth algorithms used for
// evaluation (exact cores, exact densest subsets and locally-dense
// decompositions, exact unit-weight orientations) and a synchronous
// message-passing runtime with four byte-identical execution engines:
// sequential (the reference), batched worker pool, sharded cluster, and a
// real-socket cluster (coordinator + P workers over pipes or sockets; see
// cmd/cluster for the multi-process form). A run is a pure function of its
// graph; edge churn reaches a cluster through OpenSession, which keeps one
// hot on top of the socket transport: GraphDelta batches stream to the live
// workers as epochs, each re-converged incrementally — only change-frontier
// nodes are repaired and re-placed — digest-chained, bit-identical to a
// fresh run on the mutated graph, and published to subscribers (DESIGN.md
// §9–10). Every surface threads through
// an observation-only tracing layer: attach a NewTracer via TracedEngine
// or SessionOptions.Trace to get per-phase timings, shard-pair byte flows
// and a Chrome-traceable timeline, provably without perturbing the
// execution (DESIGN.md §11).
//
// The subpackages under internal/ carry the implementation; this package
// re-exports the surface a downstream user needs. See README.md for a
// quickstart and DESIGN.md for the architecture.
package distkcore

import (
	"distkcore/internal/cliutil"
	"distkcore/internal/core"
	"distkcore/internal/densest"
	"distkcore/internal/dist"
	"distkcore/internal/exact"
	"distkcore/internal/graph"
	dnet "distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/orient"
	"distkcore/internal/quantize"
	"distkcore/internal/session"
	"distkcore/internal/shard"
)

// Re-exported graph types and constructors.
type (
	// Graph is an immutable weighted undirected graph (self-loops allowed).
	Graph = graph.Graph
	// Builder accumulates edges into a Graph.
	Builder = graph.Builder
	// Edge is an undirected weighted edge.
	Edge = graph.Edge
	// NodeID identifies a node (0..n-1).
	NodeID = graph.NodeID
	// Orientation assigns every edge to one endpoint.
	Orientation = exact.Orientation
	// Lambda is a message-quantization threshold set (Section III-C).
	Lambda = quantize.Lambda
	// Metrics reports communication cost of a synchronous distributed run.
	Metrics = dist.Metrics
	// Engine is a pluggable message-passing execution engine; obtain one
	// from SequentialEngine or ParallelEngine.
	Engine = dist.Engine
	// DelayModel draws the per-value delays, in rounds, of AsyncCoreness.
	DelayModel = core.DelayModel
	// AsyncResult is what AsyncCoreness returns besides the engine metrics:
	// the values at the round budget, the makespan in rounds, and whether
	// the run quiesced.
	AsyncResult = core.AsyncResult
	// Partitioner assigns nodes to shards for the sharded cluster engine;
	// obtain one from HashPartitioner, RangePartitioner or
	// GreedyPartitioner.
	Partitioner = shard.Partitioner
	// ClusterEngine is the sharded cluster engine returned by
	// ShardedEngine; beyond the Engine contract it reports ShardMetrics.
	ClusterEngine = shard.Engine
	// ShardMetrics reports cross-shard traffic and skew of a sharded run.
	ShardMetrics = shard.ShardMetrics
	// SocketEngine is the real-socket cluster engine returned by
	// NetworkEngine: a coordinator plus P workers speaking the DESIGN.md §8
	// wire protocol over net.Pipe, unix-domain or TCP connections. Beyond
	// the Engine contract it reports ClusterMetrics (a ShardMetrics measured
	// on frames that crossed real connections).
	SocketEngine = dnet.Engine
	// EdgeOp is one edge mutation of a churn batch: an insertion of {U,V}
	// with weight W, or (Del) a deletion of one existing copy.
	EdgeOp = dist.EdgeOp
	// GraphDelta is a batched churn delta with a canonical application
	// order and a 64-bit digest — the unit of edge churn a Session absorbs
	// per Push (DESIGN.md §9). Apply executes it against an immutable Graph
	// and returns the mutated one.
	GraphDelta = dist.GraphDelta
	// ChurnMetrics reports what absorbing one delta batch cost a cluster
	// (EpochReport.Churn): frontier size, nodes/bytes moved by the
	// incremental rebalance, delta wire bytes, and the edge cut before/after.
	ChurnMetrics = shard.ChurnMetrics
	// Session is a long-lived cluster: P workers kept hot on persistent
	// connections after one full run (epoch 0), re-converging incrementally
	// on every streamed GraphDelta epoch while staying byte-identical to a
	// fresh run on the mutated graph, with every epoch sealed into a digest
	// chain. Obtain one from OpenSession; see DESIGN.md §10 and cmd/cluster's
	// serve/push/sub for the multi-process form of the same protocol.
	Session = session.Session
	// SessionOptions configures OpenSession (worker count, round budget,
	// partitioner, transport, IO timeout).
	SessionOptions = session.Options
	// EpochReport is what one Session.Push returns: the sealed epoch's
	// digests, changed values and emitted notifications.
	EpochReport = session.EpochReport
	// Topic is one subscription subject for Session.Subscribe; build them
	// with CorenessTopic, TopKTopic or ThresholdTopic.
	Topic = session.Topic
	// Notification is one topic firing for one subscriber at one epoch.
	Notification = session.Notification
	// ValueChange is one node's value transition across an epoch, as exact
	// bit patterns.
	ValueChange = session.ValueChange
	// SubscriptionLedger is the per-subscriber account of what was asked for
	// and what has been sent.
	SubscriptionLedger = session.Ledger
	// Tracer is the zero-overhead-when-disabled run tracer (DESIGN.md §11):
	// attach one to an engine with TracedEngine (or to a session via
	// SessionOptions.Trace) and it collects typed per-phase spans and
	// shard-pair byte flows without being able to perturb the execution.
	// A nil *Tracer is the disabled default; obtain a live one from
	// NewTracer.
	Tracer = obs.Tracer
	// RunTrace is a Tracer's collected record set: export it as a
	// deterministic text transcript, Chrome trace-event JSON (for
	// chrome://tracing / Perfetto), per-phase totals or a P×P flow matrix.
	RunTrace = obs.RunTrace
	// PhaseTotal aggregates every span of one phase — where a run's time
	// and bytes went.
	PhaseTotal = obs.PhaseTotal
	// BreakCause diagnoses a broken session: epoch, protocol phase,
	// implicated worker and underlying error. Session.Cause returns it, and
	// errors.As recovers it from Session.Err.
	BreakCause = session.BreakCause
)

// RandomChurn builds a deterministic churn batch of ops edge mutations for
// g (seeded coin: insert a random unit edge or delete a live one), always
// cleanly applicable — the workload generator behind `cluster push` and
// experiment E19.
func RandomChurn(g *Graph, ops int, seed int64) GraphDelta { return dist.RandomChurn(g, ops, seed) }

// NewTracer returns an enabled run tracer; its clock starts now. Thread it
// through TracedEngine or SessionOptions.Trace, run, then read
// Tracer.Trace() for the transcript, timeline and phase totals.
func NewTracer() *Tracer { return obs.NewTracer() }

// TracedEngine installs tr on any engine kind with a tracing seam
// (sequential, parallel, sharded, socket) and returns the engine to run.
// A nil tracer passes eng through unchanged. Tracing is observation-only:
// the traced run's metrics and values are bit-identical to the untraced
// run's (DESIGN.md §11 has the argument; the pinned-transcript tests hold
// every engine to it).
func TracedEngine(eng Engine, tr *Tracer) Engine { return cliutil.Traced(eng, tr) }

// SequentialEngine returns the deterministic single-threaded engine — the
// reference scheduler every protocol is tested against.
func SequentialEngine() Engine { return dist.SeqEngine{} }

// ParallelEngine returns the worker-pool engine: GOMAXPROCS workers, the
// calling goroutine among them, pull each round's nodes off one cursor and
// step them in one barriered phase per broadcast-only round (and fill the
// shared inbox arena in parallel on the others); it runs the hooks
// SequentialEngine runs — every live node's every round, but for nodes that
// asked to sleep (DESIGN.md §3, §12). It produces executions byte-identical
// to SequentialEngine's.
func ParallelEngine() Engine { return dist.ParEngine{} }

// ShardedEngine returns the sharded cluster engine: nodes are partitioned
// into p shards by part (nil means HashPartitioner), each shard runs as
// one worker, and cross-shard traffic moves as batched per-round frames.
// Executions are byte-identical to SequentialEngine's; after a run,
// ShardMetrics on the returned engine reports the cluster-level wire cost.
func ShardedEngine(p int, part Partitioner) *ClusterEngine { return shard.NewEngine(p, part) }

// Transports for SocketEngine.Transport — checked spellings of the
// connection kinds the socket cluster engine runs over.
const (
	// TransportPipe runs workers over synchronous in-memory net.Pipe pairs
	// (the default).
	TransportPipe = dnet.TransportPipe
	// TransportUnix runs the same bytes over unix-domain sockets.
	TransportUnix = dnet.TransportUnix
	// TransportTCP runs over TCP loopback connections.
	TransportTCP = dnet.TransportTCP
)

// NetworkEngine returns the real-socket cluster engine: a coordinator plus
// p worker goroutines, each owning one shard placed by part (nil means
// HashPartitioner), exchanging per-round frames over real connections
// through the full wire protocol — handshake, length-prefixed records,
// coordinator-driven barrier. Executions are byte-identical to
// SequentialEngine's. The default transport is net.Pipe; set Transport to
// "unix" or "tcp" on the returned engine to run the same bytes through the
// kernel, and see cmd/cluster for the multi-process deployment of the same
// protocol.
func NetworkEngine(p int, part Partitioner) *SocketEngine { return dnet.NewEngine(p, part) }

// OpenSession dials opt.P in-process workers over real connections, seals
// epoch 0 on their incremental oracles in one exchange (values
// byte-identical to a SequentialEngine run) and keeps the cluster hot: every Push streams a GraphDelta batch to all
// workers, which re-converge incrementally (frontier repair + incremental
// rebalance) instead of re-running, and the coordinator seals each epoch's
// graph/partition/values digests into a chain. Subscribe registers topics
// ("coreness:v", "topk:k", "threshold:x") whose changes are reported
// exactly once per epoch in deterministic order. Sessions require the
// exact threshold set Λ = ℝ and exactly summable edge weights (multiples
// of 2⁻¹⁰ no larger than 2²⁰; unit weights qualify) — OpenSession fails and
// Push rejects the batch otherwise, rather than let epochs drift from fresh
// runs. Close the session when done.
func OpenSession(g *Graph, opt SessionOptions) (*Session, error) { return session.Open(g, opt) }

// CorenessTopic subscribes to changes of one node's β value.
func CorenessTopic(v NodeID) Topic { return Topic{Kind: session.TopicCoreness, Node: v} }

// TopKTopic subscribes to membership changes of the k highest-value nodes
// (ties broken by ascending node ID).
func TopKTopic(k int) Topic { return Topic{Kind: session.TopicTopK, K: k} }

// ThresholdTopic subscribes to nodes crossing x (β(v) ≥ x flipping either
// way).
func ThresholdTopic(x float64) Topic { return Topic{Kind: session.TopicThreshold, X: x} }

// HashPartitioner spreads nodes by an integer hash of their ID — the
// locality-oblivious baseline (expected edge cut 1−1/p).
func HashPartitioner() Partitioner { return shard.Hash{} }

// RangePartitioner assigns contiguous ID blocks of ~n/p nodes per shard —
// good when node IDs carry locality.
func RangePartitioner() Partitioner { return shard.Range{} }

// GreedyPartitioner is the streaming LDG edge-cut partitioner: each node
// joins the shard holding most of its already-placed neighbors, capacity-
// bounded. On power-law graphs it moves substantially fewer cross-shard
// bytes than hashing (experiment E18 quantifies the gap).
func GreedyPartitioner() Partitioner { return shard.Greedy{} }

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// CorenessResult is the outcome of the approximate coreness computation.
type CorenessResult struct {
	// B[v] is the surviving number β_T(v): an upper bound on the coreness
	// c(v) and at most γ·r(v) where r is the maximal density (Theorem I.1).
	B []float64
	// T is the number of rounds executed.
	T int
	// Guarantee is the proven approximation factor 2·n^{1/T}.
	Guarantee float64
}

// ApproxCoreness runs the compact elimination procedure for
// T = ⌈log_{1+eps} n⌉ rounds, yielding a 2(1+eps)-approximation of every
// node's coreness and maximal density, independent of the graph diameter.
func ApproxCoreness(g *Graph, eps float64) CorenessResult {
	T := core.TForEpsilon(g.N(), eps)
	res := core.Run(g, core.Options{Rounds: T})
	return CorenessResult{B: res.B, T: T, Guarantee: core.GuaranteeAtT(g.N(), T)}
}

// ExactCoreness computes exact coreness values centrally (weighted peeling).
func ExactCoreness(g *Graph) []float64 { return exact.CoresWeighted(g) }

// OrientationResult is the outcome of the approximate min-max orientation.
type OrientationResult struct {
	// O assigns every edge to an endpoint; feasible by Lemma III.11.
	O Orientation
	// MaxLoad is the achieved maximum weighted in-degree.
	MaxLoad float64
	// B[v] is the surviving number β_T(v) of the augmented run the
	// orientation was read from.
	B []float64
	// T is the number of rounds executed.
	T int
}

// ApproxOrientation runs the augmented elimination procedure for
// T = ⌈log_{1+eps} n⌉ rounds and resolves the auxiliary sets into a
// feasible orientation whose maximum load is at most 2(1+eps)·OPT
// (Theorem I.2).
func ApproxOrientation(g *Graph, eps float64) OrientationResult {
	T := core.TForEpsilon(g.N(), eps)
	o, load, b := orient.Approximate(g, T)
	return OrientationResult{O: o, MaxLoad: load, B: b, T: T}
}

// ExactMinMaxOrientation solves the problem optimally for unit weights
// (polynomial case); it returns the orientation and the optimal value.
func ExactMinMaxOrientation(g *Graph) (Orientation, int) {
	return exact.ExactOrientationUnit(g)
}

// DensestSubset computes the maximal densest subset exactly (centralized).
func DensestSubset(g *Graph) (member []bool, rho float64) {
	res := exact.Densest(g)
	return res.Member, res.Rho
}

// WeakDensestResult re-exports the weak densest subset outcome.
type WeakDensestResult = densest.Result

// WeakDensest runs the four-phase distributed algorithm of Theorem I.3 with
// γ = 2(1+eps): it returns disjoint subsets, each with a leader, at least
// one of which is a γ-approximate densest subset.
func WeakDensest(g *Graph, eps float64) *WeakDensestResult {
	return densest.Weak(g, densest.Config{Gamma: 2 * (1 + eps)})
}

// RunDistributedOn executes the compact elimination procedure as a real
// message-passing protocol on eng and reports communication metrics
// alongside the result.
func RunDistributedOn(g *Graph, T int, eng Engine) (CorenessResult, Metrics) {
	res, met := core.RunDistributed(g, core.Options{Rounds: T}, eng)
	return CorenessResult{B: res.B, T: T, Guarantee: core.GuaranteeAtT(g.N(), T)}, met
}

// RunDistributedQuantized is RunDistributedOn with transmitted values
// rounded down to the threshold set lam (Section III-C): the Congest-style
// deployment mode. The returned Metrics price the wire under the same lam,
// so WireBytes reflects the compressed grid-index encoding (Corollary
// III.10 bounds the extra approximation cost by a (1+λ) factor).
func RunDistributedQuantized(g *Graph, T int, lam Lambda, eng Engine) (CorenessResult, Metrics) {
	res, met := core.RunDistributed(g, core.Options{Rounds: T, Lambda: lam}, eng)
	return CorenessResult{B: res.B, T: T, Guarantee: core.GuaranteeAtT(g.N(), T)}, met
}

// WeakDensestDistributed runs the Theorem I.3 pipeline as a real
// message-passing protocol on eng with γ = 2(1+eps); it returns the same
// collection as WeakDensest plus the engine's communication metrics.
func WeakDensestDistributed(g *Graph, eps float64, eng Engine) (*WeakDensestResult, Metrics) {
	return densest.RunWeakDistributed(g, densest.Config{Gamma: 2 * (1 + eps)}, eng)
}

// AsyncCoreness runs the elimination in the asynchronous regime for at most
// rounds rounds on SequentialEngine: every value a node sends is delayed by
// its own number of rounds, drawn from d, and the run converges to the exact
// coreness whatever the delays (see internal/core's RunAsyncElimination,
// which also gives a budget that always suffices). Quiesced in the result
// reports whether it did before the budget (false means values were still
// in flight); Makespan is the last round a value was sent in.
func AsyncCoreness(g *Graph, d DelayModel, rounds int) (*AsyncResult, Metrics) {
	return core.RunAsyncElimination(g, d, rounds, SequentialEngine())
}

// RoundsFor returns T = ⌈log_{1+eps} n⌉, the budget all three algorithms
// need for a 2(1+eps) guarantee on an n-node graph.
func RoundsFor(n int, eps float64) int { return core.TForEpsilon(n, eps) }

// PowerGrid returns the powers-of-(1+lambda) quantization set for
// bandwidth-limited (Congest-style) deployments — pass it to
// RunDistributedQuantized, which both rounds transmitted values to it and
// prices Metrics.WireBytes under it (internal/codec's grid-index
// encoding).
func PowerGrid(lambda float64) Lambda { return quantize.NewPowerGrid(lambda) }
