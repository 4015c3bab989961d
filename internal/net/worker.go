package net

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// frameChainSeed starts each streamed worker's frame-chain digest: an FNV-1a
// fold (offset basis, 64-bit prime) over every round digest the worker
// receives, maintained identically by the coordinator when it seals the
// round. The worker's metrics record carries the chain so the coordinator can
// verify the worker received exactly what the rounds sent it — and a respawned
// incarnation, folding the identical inbound flows in the identical order,
// lands on the identical chain (DESIGN.md §13).
const frameChainSeed = uint64(14695981039346656037)

// foldFrame folds one streamed chunk's record body into a flow digest.
func foldFrame(h uint64, body []byte) uint64 {
	h = (h ^ uint64(len(body))) * 1099511628211
	for _, b := range body {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// Worker is the worker-side endpoint of the cluster protocol: a
// dist.Engine whose Run participates in one coordinated run over a
// connection instead of driving rounds itself. It is handed the whole graph
// and the whole shard assignment (shipping it only its slice is ROADMAP item
// 5c) but builds run state for its shard alone, a shard.Local: a
// dist.Driver over the nodes the hello's shard index assigns to it and the
// nodes those can hear (dist.NewSubsetDriver), and a shard.Fanout with rows
// for the former. It steps its own nodes and injects what the other shards
// sent it — relayed by the coordinator or streamed by the peers — into the
// Driver as those senders' own sends, so its local delivery is
// byte-identical to the global execution (see the package comment for the
// argument).
//
// The in-process Engine constructs Workers itself. cmd/cluster uses one
// directly: read the hello with ReadHello, resolve graph/partition/
// protocol from its spec strings, set Hello, and hand the Worker to a
// protocol driver (core.RunDistributed, densest.RunWeakDistributed) as its
// engine. The returned Metrics carry this shard's share of
// Messages/Words/WireBytes and the coordinator's run-level Rounds/Halted.
type Worker struct {
	// Hello is the pre-read handshake record; when nil, Run reads it from
	// the connection as its first act.
	Hello *codec.Hello
	// Trace, when set, records this worker's per-round timeline: step,
	// encode (framing + frame writes; send on the mesh), barrier-wait (done
	// flushed → release arrives; on the mesh, → the peers' end markers are
	// in), recv (mesh only) and deliver spans, all under the worker's shard
	// index.
	Trace *obs.Tracer

	// Stream-plane plumbing (DESIGN.md §14), consulted only when the hello
	// arms Stream. MeshDial opens a raw connection to a peer's mesh
	// endpoint; MeshAccept blocks for the next inbound one (and must error
	// out once MeshClose runs); MeshGen is this incarnation's generation —
	// 0 initially, +1 per respawn, so peers prefer the newest link.
	MeshDial   func(dst int) (net.Conn, error)
	MeshAccept func() (net.Conn, error)
	MeshClose  func()
	MeshGen    int
	// ChunkBytes overrides the streaming chunk flush threshold (0 means
	// shard.DefaultChunkBytes). Every incarnation of every worker must use
	// the same value: recovery re-steps re-produce the identical chunking.
	ChunkBytes int
	// IOTimeout bounds mesh formation and each write to a mesh link (0 means
	// wait forever); nothing on the mesh waits on a receiver, and a round's
	// close has no deadline of the worker's own — the coordinator's abort
	// ends it.
	IOTimeout time.Duration

	c      *Conn
	g      *graph.Graph
	assign []int
	lam    quantize.Lambda
}

// NewWorker returns a worker endpoint over c for a run on g partitioned by
// assign. The shard this worker owns arrives in the coordinator's hello.
func NewWorker(c *Conn, g *graph.Graph, assign []int) *Worker {
	return &Worker{c: c, g: g, assign: assign}
}

// WithWireLambda implements dist.Engine; protocol drivers call it with the
// Λ the protocol rounds to, which the handshake then verifies against the
// coordinator's.
func (w *Worker) WithWireLambda(lam quantize.Lambda) dist.Engine {
	cp := *w
	cp.lam = lam
	return &cp
}

// Name identifies the engine in experiment tables.
func (w *Worker) Name() string { return "net-worker" }

// Run implements dist.Engine. It performs the handshake (unless Hello was
// pre-read) and serves rounds until the coordinator finishes the run. Any
// connection failure or protocol violation panics after a best-effort error
// record to the coordinator; cmd/cluster's worker recovers the panic into
// an exit status. On the streamed plane (DESIGN.md §13) the mesh retains
// what the worker sends, and a respawned incarnation runs the run again from
// Init on what its peers re-send it, to the exact state its predecessor died
// in; worker death is then the coordinator's problem, not the run's. A
// streamed worker keeps its mesh past the run — a peer that dies
// after its last record is run again on it too — until the first record read
// off its connection after the run returns (the coordinator's next record, or
// its hang-up), or until the connection closes.
func (w *Worker) Run(g *graph.Graph, factory dist.Factory, maxRounds int) dist.Metrics {
	met, err := w.run(g, factory, maxRounds)
	if err != nil {
		w.c.SendError(err)
		panic("net: worker: " + err.Error())
	}
	return met
}

// workerLoop is one worker's run state under the round loop: the shard's
// shard.Local, whose Driver prices this shard's share of the protocol
// metrics — what its own nodes sent — and the frame chain.
type workerLoop struct {
	w   *Worker
	h   *codec.Hello
	loc *shard.Local
	// plane is a relayed run's frame plane under the barrier loop; a streamed
	// worker has none — streamWorker closes its rounds on the mesh. Either
	// sets loc.Out's Flush hooks: in chunks as they are produced on the mesh,
	// as the one frame of the round on the relay.
	plane *relayWorker

	// chain is the frame-chain digest over everything received so far.
	chain uint64
	cur   int
	// enc is the scratch the round's control records (done, ack) are encoded
	// in: Conn.WriteRecord has copied a body into the connection's buffer by
	// the time it returns, so one slice serves every round.
	enc []byte
	// bw is the round's pending barrier-wait span: begun once the done
	// record is flushed, ended when the coordinator's release arrives — the
	// time this worker spends parked at the barrier.
	bw obs.SpanRef
}

// step runs the local half of relayed round t: the step hooks, then the tap that
// frames the cross-shard subset of what they sent for the plane
// (shard.Local.Emit), then the done record; the Driver prices the shard's
// share of the protocol Metrics when it delivers.
func (r *workerLoop) step(t int) error {
	w, self, l := r.w, r.h.Shard, r.loc
	r.cur = t
	l.ResetArenas(t)
	sp := w.Trace.Begin(obs.PhaseStep, t, self)
	sp.EndN(0, int64(l.D.StepList(l.Own, t))) // hooks run, as on seq and par
	out := w.Trace.Begin(obs.PhaseEncode, t, self)
	if err := l.Emit(); err != nil {
		return err
	}
	bytes, msgs, err := r.plane.done(t, l.D.Alive())
	if err != nil {
		return err
	}
	out.EndN(bytes, msgs)
	if err := w.c.Flush(); err != nil {
		return err
	}
	r.bw = w.Trace.Begin(obs.PhaseBarrierWait, t, self)
	return nil
}

// finish is the receive half of relayed round t: Absorb has put the remote
// sends into the Driver's slots and queues by the time the release arrives —
// Deliver every local inbox in the global deterministic order (ascending
// sender, ties in send order).
func (r *workerLoop) finish(t int, rel []byte) error {
	w := r.w
	r.bw.End()
	r.bw = obs.SpanRef{}
	if err := r.plane.inbound(t, rel); err != nil {
		return err
	}
	dl := w.Trace.Begin(obs.PhaseDeliver, t, r.h.Shard)
	r.loc.D.Deliver(nil)
	dl.End()
	return nil
}

func (w *Worker) run(g *graph.Graph, factory dist.Factory, maxRounds int) (dist.Metrics, error) {
	h := w.Hello
	if h == nil {
		var err error
		if h, err = ReadHello(w.c); err != nil {
			return dist.Metrics{}, err
		}
		// Keep the handshake on the receiver so a later SendValues works in
		// this flow too, not only when the caller pre-read the hello.
		w.Hello = h
	}
	lam := w.lam
	if lam == nil {
		lam = quantize.Reals{}
	}
	n := g.N()
	switch {
	case h.Version != codec.HandshakeVersion:
		return dist.Metrics{}, fmt.Errorf("net: handshake version %d, want %d", h.Version, codec.HandshakeVersion)
	case h.P < 1 || h.Shard < 0 || h.Shard >= h.P:
		return dist.Metrics{}, fmt.Errorf("net: bad shard index %d of %d", h.Shard, h.P)
	case len(w.assign) != n:
		return dist.Metrics{}, fmt.Errorf("net: assignment covers %d nodes, graph has %d", len(w.assign), n)
	case h.MaxRounds != maxRounds:
		return dist.Metrics{}, fmt.Errorf("net: round budget mismatch (coordinator %d, worker %d)", h.MaxRounds, maxRounds)
	}
	if err := lambdaMatches(h, lam); err != nil {
		return dist.Metrics{}, err
	}
	assign := w.assign
	switch {
	case h.GraphHash != g.Fingerprint():
		return dist.Metrics{}, fmt.Errorf("net: graph fingerprint mismatch (coordinator %#x, worker %#x)", h.GraphHash, g.Fingerprint())
	case h.PartDigest != shard.PartitionDigest(assign):
		return dist.Metrics{}, fmt.Errorf("net: partition digest mismatch (coordinator %#x, worker %#x)", h.PartDigest, shard.PartitionDigest(assign))
	}

	r := &workerLoop{w: w, h: h, loc: shard.NewLocal(g, assign, h.P, h.Shard, lam, factory),
		chain: frameChainSeed, cur: -1}
	var mesh *streamWorker
	if h.Stream {
		// The mesh forms before the welcome — the coordinator treats the
		// welcome as "ready to run", which on a streamed run means "reachable
		// by peers". It outlives a run that ends well (Run), and no other; only
		// such a run hands its memory on (mesh.Release), a failed one drops it.
		var err error
		if mesh, err = newStreamWorker(r); err != nil {
			return dist.Metrics{}, err
		}
		defer func() {
			if mesh != nil {
				mesh.m.Close()
			}
		}()
	} else {
		r.plane = newRelayWorker(r)
	}

	if err := w.c.Send(recWelcome, codec.AppendWelcome(nil, codec.Welcome{
		Version:    codec.HandshakeVersion,
		Shard:      h.Shard,
		GraphHash:  h.GraphHash,
		PartDigest: h.PartDigest,
		Nodes:      len(r.loc.Own),
	})); err != nil {
		return dist.Metrics{}, err
	}
	if mesh != nil {
		rounds, halted, err := mesh.run(maxRounds)
		if err != nil {
			return dist.Metrics{}, err
		}
		met, err := r.report(rounds, halted)
		if err == nil {
			w.c.keepUntilRead(mesh.m.Release)
			mesh = nil
		}
		return met, err
	}

	for {
		typ, body, err := w.c.ReadRecord()
		if err != nil {
			return dist.Metrics{}, fmt.Errorf("net: worker read: %w", err)
		}
		switch typ {
		case recStep:
			t, err := codec.DecodeStep(body)
			if err != nil {
				return dist.Metrics{}, err
			}
			if t != r.cur+1 {
				return dist.Metrics{}, fmt.Errorf("net: step(round %d) but worker is at round %d", t, r.cur)
			}
			if err := r.step(t); err != nil {
				return dist.Metrics{}, err
			}

		case recDeliver:
			// The barrier release: all P dones are in — receive and deliver.
			// Its body is the plane's to decode (inbound).
			if err := r.finish(r.cur, body); err != nil {
				return dist.Metrics{}, err
			}

		case recFinish:
			fin, err := codec.DecodeFinish(body)
			if err != nil {
				return dist.Metrics{}, err
			}
			return r.report(fin.Rounds, fin.Halted)

		case recError:
			return dist.Metrics{}, fmt.Errorf("net: coordinator aborted: %s", body)

		default:
			if err := r.plane.record(typ, body); err != nil {
				return dist.Metrics{}, err
			}
		}
	}
}

// report ends a run that finished cleanly: the Driver priced this shard's
// share of the Metrics — what its own nodes sent — and the metrics record
// carries it with the frame chain. The shard's run state — the Driver, and
// the Local's streams, rows and arenas — is released before the record goes
// out, for the next run's Locals to take: the coordinator may start that run
// as soon as it has read the record. Nothing touches it again: its hooks ran
// on this goroutine, and every inbound flow of the last round has ended, so
// all a kept mesh still reads is repeats its gates drop before Absorb. The
// kept mesh's own memory goes back when it is torn down (mesh.Release).
func (r *workerLoop) report(rounds int, halted bool) (dist.Metrics, error) {
	met := r.loc.D.Finish(rounds)
	r.loc.Release()
	met.Halted = halted
	var buf [3*binary.MaxVarintLen64 + 8]byte
	enc := codec.AppendMetrics(buf[:0], codec.Metrics{Messages: met.Messages, Words: met.Words,
		WireBytes: met.WireBytes, Chain: r.chain})
	return met, r.w.c.Send(recMetrics, enc)
}

// SendValues ships the values of this worker's local nodes (vals is the
// run-global n-sized result vector, e.g. the surviving numbers; remote
// entries are ignored) as exact float bit patterns. Call it after the run,
// when the coordinator's Spec asked WantValues; the coordinator reassembles
// the global vector from all shards' records.
func (w *Worker) SendValues(vals []float64) error {
	if w.Hello == nil {
		return fmt.Errorf("net: SendValues before handshake")
	}
	var own []codec.NodeValue
	for v, x := range vals {
		if w.assign[v] == w.Hello.Shard {
			own = append(own, codec.NodeValue{Node: v, Bits: math.Float64bits(x)})
		}
	}
	return w.c.Send(recValues, codec.AppendValues(nil, own))
}
