package net

import (
	"encoding/binary"
	"errors"
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

// ErrKilled is the sentinel a fault-injected worker dies with: the kill
// hook closed the connection mid-protocol, exactly what a SIGKILL looks
// like from the coordinator's side. Engine wrappers recognize it (via
// errors.Is) and suppress the error record a real failure would send — a
// crashed process sends nothing.
var ErrKilled = errors.New("net: worker killed by fault injection")

// KillFunc is the fault-injection seam of the recovery test harness: a
// worker consults it at each phase boundary of its round loop (step,
// encode or send, barrier-wait, recv on the mesh, deliver) and dies on the
// spot when it returns true.
type KillFunc func(phase obs.Phase, round int) bool

// frameChainSeed starts each worker's frame-chain digest: an FNV-1a fold
// (offset basis, 64-bit prime) over everything the worker receives — every
// relayed frame, length then bytes, or every streamed round's digest —
// maintained identically by the coordinator when it seals the round. The
// worker's metrics record carries the chain so the coordinator can verify the
// worker received exactly what the rounds sent it — and a respawned
// incarnation's replay, folding the identical inbound flows in the identical
// order, lands on the identical chain (DESIGN.md §13).
const frameChainSeed = uint64(14695981039346656037)

// foldFrame folds one frame (or streamed chunk) record body into a chain.
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
// 5c) but builds run state for its shard alone: a dist.Driver over the nodes
// the hello's shard index assigns to it and the nodes those can hear
// (dist.NewSubsetDriver), and a shard.Fanout with rows for the former. It
// steps its own nodes and injects what the other shards sent it — relayed by
// the coordinator or streamed by the peers — into the Driver as those
// senders' own sends, so its local delivery is byte-identical to the global
// execution (see the package comment for the argument).
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
	// Kill, when non-nil, is the fault-injection hook (KillFunc): consulted
	// at every phase boundary of the round loop, a true return crashes the
	// worker — connection closed, no error record, Run dies with ErrKilled.
	Kill KillFunc

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
	// IOTimeout bounds mesh formation and a wait for flow-control credits (0
	// means wait forever); a round's close has no deadline of the worker's own
	// — the coordinator's abort ends it.
	IOTimeout time.Duration

	c      *Conn
	g      *graph.Graph
	assign []int
	lam    quantize.Lambda
	mesh   *streamWorker // set once a streamed run's mesh is up
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
// an exit status. When the hello armed Recover (DESIGN.md §13), the worker
// additionally folds what it receives into its frame chain and — in a
// respawned incarnation — runs the run again from Init on the retained flows
// (relayed: the coordinator's replay records; streamed: what the peers re-send
// it) to the exact state its predecessor died in; worker death is then the
// coordinator's problem, not the run's.
func (w *Worker) Run(g *graph.Graph, factory dist.Factory, maxRounds int) dist.Metrics {
	met, err := w.run(g, factory, maxRounds)
	if err != nil {
		if errors.Is(err, ErrKilled) {
			// A fault-injected crash: the connection is already closed and a
			// dead process would send nothing. Panic with the sentinel value
			// so engine goroutine wrappers can recognize it.
			panic(err)
		}
		w.c.SendError(err)
		panic("net: worker: " + err.Error())
	}
	return met
}

// killed consults the fault-injection hook and, on a hit, crashes the
// worker: the connection closes mid-protocol and the caller returns
// ErrKilled.
func (w *Worker) killed(phase obs.Phase, round int) bool {
	if w.Kill != nil && w.Kill(phase, round) {
		w.c.Close()
		if w.mesh != nil {
			// A dead process takes its mesh connections with it; closing
			// them is what lets the peers observe the death.
			w.mesh.m.Close()
		}
		return true
	}
	return false
}

// workerLoop is one worker's run state under the round loop: the driver —
// which prices this shard's share of the protocol metrics, what its own
// nodes sent — the frame chain, and the outbound streams that feed the frame
// plane.
type workerLoop struct {
	w      *Worker
	h      *codec.Hello
	lam    quantize.Lambda
	d      *dist.Driver
	local  []graph.NodeID // ascending — the shard's step order
	assign []int
	// fan says which shards a local node's leading broadcast is framed for.
	fan *shard.Fanout
	// plane is a relayed run's frame plane under the barrier loop; a streamed
	// worker has none — streamWorker closes its rounds on the mesh.
	plane *relayWorker
	// out[q] encodes the round's messages toward shard q (nil for this
	// shard) and hands them to the plane through its Flush hook: in chunks
	// as they are produced on the mesh, as the one frame of the round on the
	// relay.
	out []*shard.PeerStream

	// arenas[src] holds the Vec payloads decoded from src's flows. They live
	// exactly one round, but round t's flows can arrive while round t-1's
	// vectors are still feeding local hooks — so the arenas double-buffer by
	// round parity: slot t%2 is reset when round t opens, when its round t-2
	// tenants are provably dead. One pair per source keeps concurrent
	// decodes (streamed mesh readers) disjoint. Nil under CheckVecAliasing,
	// which re-hashes delivered Vecs one delivery later: every Vec then gets
	// a fresh allocation instead.
	arenas [][2]*shard.VecArena

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

// resetArenas recycles the arena slot round t decodes into.
func (r *workerLoop) resetArenas(t int) {
	for i := range r.arenas {
		r.arenas[i][t&1].Reset()
	}
}

// absorb decodes count entries shard src sent this worker in the given round
// and injects each into the Driver as a send of its remote sender, validating
// that every sender belongs to src and every unicast recipient to this shard
// before Inject refuses what the sender's hook cannot have produced — an entry
// of a sender with no peer here among it: the Driver holds no state for one,
// and who receives a broadcast is read off this worker's own graph, never off
// the wire. Mesh readers call it while the loop steps the round's local nodes
// (see Inject); the round's close orders them all before Deliver.
func (r *workerLoop) absorb(src, round int, body []byte, count int) error {
	var ar *shard.VecArena
	if r.arenas != nil {
		ar = r.arenas[src][round&1]
	}
	assign, self, cnt := r.assign, r.h.Shard, 0
	n := len(assign)
	for len(body) > 0 {
		to, m, used, err := shard.DecodeMessage(body, r.lam, ar)
		if err != nil {
			return err
		}
		body = body[used:]
		u := m.From
		switch {
		case u < 0 || u >= n || assign[u] != src:
			return fmt.Errorf("net: flow %d→%d carries sender %d not owned by shard %d", src, self, u, src)
		case to != shard.Broadcast && (to >= n || assign[to] != self):
			return fmt.Errorf("net: flow %d→%d addresses node %d outside shard %d", src, self, to, self)
		}
		if err := r.d.Inject(u, to, m); err != nil {
			return fmt.Errorf("net: flow %d→%d carries an entry its sender cannot have sent: %w", src, self, err)
		}
		cnt++
	}
	if cnt != count {
		return fmt.Errorf("net: flow %d→%d decoded %d messages, header says %d", src, self, cnt, count)
	}
	return nil
}

// step runs the local half of relayed round t: the step hooks, then the tap that
// frames the cross-shard subset of what they sent for the plane
// (shard.Fanout.Emit), then the done record; the Driver prices the shard's
// share of the protocol Metrics when it delivers. A catch-up replay (live
// false) does all of that but the sending — the peers already hold the dead
// incarnation's identical bytes; the plane keeps what it would retain of
// them — and consults no kill seam.
func (r *workerLoop) step(t int, live bool) error {
	w, self := r.w, r.h.Shard
	r.cur = t
	r.resetArenas(t)
	sp := w.Trace.Begin(obs.PhaseStep, t, self)
	sp.EndN(0, int64(r.d.StepList(r.local, t))) // hooks run, as on seq and par
	if live && w.killed(obs.PhaseEncode, t) {
		return ErrKilled
	}
	out := w.Trace.Begin(obs.PhaseEncode, t, self)
	var serr error
	r.fan.Emit(r.d, func(q int, to graph.NodeID, m dist.Message) {
		if serr == nil {
			serr = r.out[q].Append(to, m)
		}
	})
	if serr != nil {
		return serr
	}
	bytes, msgs, err := r.plane.done(t, r.d.Alive(), live)
	if err != nil {
		return err
	}
	out.EndN(bytes, msgs)
	if !live {
		return nil
	}
	if err := w.c.Flush(); err != nil {
		return err
	}
	if w.killed(obs.PhaseBarrierWait, t) {
		return ErrKilled
	}
	r.bw = w.Trace.Begin(obs.PhaseBarrierWait, t, self)
	return nil
}

// finish is the receive half of relayed round t: absorb has put the remote
// sends into the Driver's slots and queues by the time the release arrives —
// Deliver every local inbox in the global deterministic order (ascending
// sender, ties in send order).
func (r *workerLoop) finish(t int, live bool, rel []byte) error {
	w := r.w
	r.bw.End()
	r.bw = obs.SpanRef{}
	if err := r.plane.inbound(t, live, rel); err != nil {
		return err
	}
	if live && w.killed(obs.PhaseDeliver, t) {
		return ErrKilled
	}
	dl := w.Trace.Begin(obs.PhaseDeliver, t, r.h.Shard)
	r.d.Deliver(nil)
	dl.End()
	return nil
}

// replay decodes a catch-up round announcement and re-steps that round,
// sending nothing; the plane then feeds it the round's inbound flows again.
func (r *workerLoop) replay(body []byte) (codec.Replay, error) {
	rp, used, err := codec.DecodeReplay(body)
	if err != nil {
		return rp, err
	}
	if used != len(body) {
		return rp, fmt.Errorf("net: replay record carries %d trailing bytes", len(body)-used)
	}
	if rp.Round != r.cur+1 || rp.Frames < 0 {
		return rp, fmt.Errorf("net: replay(round %d, %d frames) but worker is at round %d", rp.Round, rp.Frames, r.cur)
	}
	return rp, r.step(rp.Round, false)
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

	r := &workerLoop{w: w, h: h, lam: lam, assign: assign,
		out: make([]*shard.PeerStream, h.P), chain: frameChainSeed, cur: -1}
	r.build(g, factory)
	if !dist.CheckVecAliasing {
		r.arenas = make([][2]*shard.VecArena, h.P)
		for i := range r.arenas {
			r.arenas[i][0], r.arenas[i][1] = new(shard.VecArena), new(shard.VecArena)
		}
	}
	if h.Stream {
		// The mesh forms before the welcome — the coordinator treats the
		// welcome as "ready to run", which on a streamed run means "reachable
		// by peers".
		var err error
		if w.mesh, err = newStreamWorker(r); err != nil {
			return dist.Metrics{}, err
		}
		defer w.mesh.m.Close()
	} else {
		r.plane = newRelayWorker(r)
	}

	if err := w.c.Send(recWelcome, codec.AppendWelcome(nil, codec.Welcome{
		Version:    codec.HandshakeVersion,
		Shard:      h.Shard,
		GraphHash:  h.GraphHash,
		PartDigest: h.PartDigest,
		Nodes:      len(r.local),
	})); err != nil {
		return dist.Metrics{}, err
	}
	if h.Stream {
		rounds, halted, err := w.mesh.run(maxRounds)
		if err != nil {
			return dist.Metrics{}, err
		}
		return r.report(rounds, halted)
	}

	for {
		typ, body, err := w.c.ReadRecord()
		if err != nil {
			return dist.Metrics{}, fmt.Errorf("net: worker read: %w", err)
		}
		switch typ {
		case recStep:
			var t int
			if err := uvarints("step", body, &t); err != nil {
				return dist.Metrics{}, err
			}
			if t != r.cur+1 {
				return dist.Metrics{}, fmt.Errorf("net: step(round %d) but worker is at round %d", t, r.cur)
			}
			if w.killed(obs.PhaseStep, t) {
				return dist.Metrics{}, ErrKilled
			}
			if err := r.step(t, true); err != nil {
				return dist.Metrics{}, err
			}

		case recDeliver:
			// The barrier release: all P dones are in — receive and deliver.
			// Its body is the plane's to decode (inbound).
			if err := r.finish(r.cur, true, body); err != nil {
				return dist.Metrics{}, err
			}

		case recFinish:
			rounds, halted, err := decodeFinish(body)
			if err != nil {
				return dist.Metrics{}, err
			}
			return r.report(rounds, halted)

		case recError:
			return dist.Metrics{}, fmt.Errorf("net: coordinator aborted: %s", body)

		default:
			if err := r.plane.record(typ, body); err != nil {
				return dist.Metrics{}, err
			}
		}
	}
}

// decodeFinish decodes the coordinator's finish record: the run's round count
// and whether it ended with nobody alive.
func decodeFinish(body []byte) (rounds int, halted bool, err error) {
	d := codec.NewDecoder(body)
	rounds, halted = int(d.Uvarint()), d.Byte() != 0
	return rounds, halted, bodyErr("finish", d)
}

// report ends the run: the Driver priced this shard's share of the Metrics —
// what its own nodes sent — and the metrics record carries it with the frame
// chain.
func (r *workerLoop) report(rounds int, halted bool) (dist.Metrics, error) {
	met := r.d.Finish(rounds)
	met.Halted = halted
	var buf [3*binary.MaxVarintLen64 + 8]byte
	enc := binary.AppendUvarint(buf[:0], uint64(met.Messages))
	enc = binary.AppendUvarint(enc, uint64(met.Words))
	enc = binary.AppendUvarint(enc, uint64(met.WireBytes))
	enc = binary.LittleEndian.AppendUint64(enc, r.chain)
	return met, r.w.c.Send(recMetrics, enc)
}

// build makes the run state that follows the shard, not the graph
// (TestWorkerSetupBytesScaleWithShard): the step list, sized by one counting
// pass over the assignment; the fan-out rows of its nodes; a Driver over them
// and the nodes they can hear.
func (r *workerLoop) build(g *graph.Graph, factory dist.Factory) {
	self, cnt := r.h.Shard, 0
	for _, q := range r.assign {
		if q == self {
			cnt++
		}
	}
	r.local = make([]graph.NodeID, 0, cnt)
	for v, q := range r.assign {
		if q == self {
			r.local = append(r.local, v)
		}
	}
	r.fan = shard.NewFanout(g, r.assign, r.h.P, r.local)
	r.d = dist.NewSubsetDriver(g, r.lam, r.local, factory)
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
	assign := w.assign
	cnt := 0
	for v := range vals {
		if assign[v] == w.Hello.Shard {
			cnt++
		}
	}
	enc := binary.AppendUvarint(nil, uint64(cnt))
	for v, x := range vals {
		if assign[v] == w.Hello.Shard {
			enc = binary.AppendUvarint(enc, uint64(v))
			enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(x))
		}
	}
	return w.c.Send(recValues, enc)
}
