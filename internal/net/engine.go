package net

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
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
// Unix and TCP run the same bytes over real localhost sockets — what the
// BENCH_PR4 seq-vs-shard-vs-net comparison uses, and the closest in-process
// stand-in for a real deployment (cmd/cluster is the multi-process one).
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
	// Delay, when non-nil, is installed on every worker (see DelayFunc).
	Delay DelayFunc
	// IOTimeout, when non-zero, is installed on every connection
	// (Conn.SetIOTimeout) and on the coordinator's reply waits
	// (Spec.IOTimeout): a stalled peer fails the run instead of hanging it.
	IOTimeout time.Duration
	// Recover arms crash recovery (DESIGN.md §13): workers checkpoint every
	// round, and a worker that dies mid-run — the KillAt fault injection, or
	// a real failure — is respawned on a fresh pipe and restored instead of
	// failing the run. Set it before Run, together with an IOTimeout so a
	// silent death surfaces as a timeout.
	Recover bool
	// RetainRounds overrides the checkpoint/catch-up retention depth K (≤ 0
	// means the protocol default of 4).
	RetainRounds int
	// Stream selects the streamed frame plane (DESIGN.md §8.4, §14): the
	// same round loop, with cross-shard messages flowing worker↔worker over
	// an in-process mesh of net.Pipe links instead of through the
	// coordinator. Results stay byte-identical to every other engine's.
	Stream bool
	// MeshThreshold is the P at or above which a streamed run relays over
	// a hypercube instead of the full mesh (≤ 0 means the default of 16;
	// power-of-two P only, and recovery forces the full mesh).
	MeshThreshold int
	// Window overrides the per-peer flow-control window of a streamed run
	// (≤ 0 means the protocol default).
	Window int
	// ChunkBytes overrides the streaming chunk flush threshold (≤ 0 means
	// shard.DefaultChunkBytes). Tests shrink it to force multi-chunk flows.
	ChunkBytes int

	p    int
	part shard.Partitioner
	lam  quantize.Lambda
	// sm is the last run's cluster ledger, shared across WithWireLambda
	// copies exactly like the sharded engine's.
	sm *shard.ShardMetrics
	// churn is the installed delta batch (empty when none) and cm its
	// ledger, both shared across WithWireLambda copies.
	churn *netChurn
	cm    *shard.ChurnMetrics
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

// netChurn is an installed delta batch awaiting absorption by Run.
type netChurn struct {
	delta  dist.GraphDelta
	budget int
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
	return &Engine{Transport: TransportPipe, p: p, part: part,
		sm: &shard.ShardMetrics{}, churn: &netChurn{}, cm: &shard.ChurnMetrics{},
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

// Churn installs a delta batch every subsequent Run absorbs over the wire
// (DESIGN.md §9): the coordinator ships the batch to all P workers in a
// delta record, each worker applies it to the pre-churn graph Run was
// handed and reruns the incremental Rebalance (at most moveBudget frontier
// nodes move; ≤ 0 means the whole frontier), and the handshake pins the
// post-churn graph fingerprint, the rebalanced partition digest and the
// delta digest — so a churned cluster run is byte-identical to a fresh
// SeqEngine run on the mutated graph. An empty delta clears the
// installation.
func (e *Engine) Churn(d dist.GraphDelta, moveBudget int) {
	e.churn.delta = d
	e.churn.budget = moveBudget
}

// ChurnMetrics returns the churn ledger of the most recent Run that
// absorbed a delta.
func (e *Engine) ChurnMetrics() shard.ChurnMetrics { return *e.cm }

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

// Run implements dist.Engine. Like the other engines it has no error
// channel; connection failures and protocol violations — impossible in a
// correct in-process run short of a resource failure — panic with the
// coordinator's diagnosis.
func (e *Engine) Run(g *graph.Graph, factory dist.Factory, maxRounds int) dist.Metrics {
	p := e.p
	assign := e.part.Partition(g, p)
	if len(assign) != g.N() {
		panic(fmt.Sprintf("net: partitioner %s returned %d assignments for %d nodes",
			e.part.Name(), len(assign), g.N()))
	}
	for v, s := range assign {
		if s < 0 || s >= p {
			panic(fmt.Sprintf("net: partitioner %s assigned node %d to shard %d (p=%d)",
				e.part.Name(), v, s, p))
		}
	}
	// Under churn the coordinator side computes the post-churn inputs to pin
	// in the handshake; the workers are handed the PRE-churn graph and base
	// assignment and must arrive at the same results from the delta record —
	// the full protocol runs even in-process.
	runG, runAssign := g, assign
	spec := Spec{
		P:         p,
		MaxRounds: maxRounds,
		Lam:       e.lam,
		Trace:     e.trace,
	}
	if len(e.churn.delta.Ops) > 0 {
		spec.Delta, spec.MoveBudget = e.churn.delta, e.churn.budget
		g2, next, cm, err := shard.AbsorbDelta(e.part, g, p, assign, spec.Delta, spec.MoveBudget)
		if err != nil {
			panic("net: " + err.Error())
		}
		*e.cm = cm
		runG, runAssign = g2, next
	}
	spec.GraphHash = runG.Fingerprint()
	spec.PartDigest = shard.PartitionDigest(runAssign)
	spec.IOTimeout = e.IOTimeout
	coord, workers, cleanup, err := DialCluster(e.Transport, p)
	if err != nil {
		panic("net: " + err.Error())
	}
	defer cleanup()
	if e.IOTimeout > 0 {
		for i := 0; i < p; i++ {
			coord[i].SetIOTimeout(e.IOTimeout)
			workers[i].SetIOTimeout(e.IOTimeout)
		}
	}

	var broker *meshBroker
	if e.Stream {
		spec.Stream = true
		spec.MeshThreshold = e.MeshThreshold
		spec.Window = e.Window
		broker = newMeshBroker(p)
	}
	var wg sync.WaitGroup
	// runWorker is the worker goroutine body, shared between the initial
	// spawn loop and recovery respawns so both incarnations are identical;
	// gen is the incarnation's mesh generation (0 initial, +1 per respawn).
	runWorker := func(s, gen int, c *Conn) {
		defer wg.Done()
		defer c.Close()
		// A panicking protocol hook (a factory bug) must not hang the
		// coordinator: convert it into an error record so the run
		// aborts with the reason. A fault-injection kill dies silently —
		// the closed connection is the whole point.
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok && errors.Is(err, ErrKilled) {
					return
				}
				c.SendError(fmt.Errorf("worker panic: %v", r))
			}
		}()
		w := &Worker{c: c, g: g, assign: assign, lam: e.lam, Delay: e.Delay, Part: e.part, Trace: e.trace}
		w.Kill = func(ph obs.Phase, r int) bool { return e.kill.fire(ph, r, s) }
		if broker != nil {
			ib := broker.register(s)
			w.MeshDial = broker.dial
			w.MeshAccept = ib.accept
			w.MeshClose = func() { broker.close(ib) }
			w.MeshGen = gen
			w.ChunkBytes = e.ChunkBytes
			w.RetainRounds = e.RetainRounds
			w.IOTimeout = e.IOTimeout
		}
		if _, err := w.run(g, factory, maxRounds); err != nil && !errors.Is(err, ErrKilled) {
			c.SendError(err)
		}
	}
	for s := 0; s < p; s++ {
		wg.Add(1)
		go runWorker(s, 0, workers[s])
	}
	if e.Recover {
		spec.Recover = true
		spec.RetainRounds = e.RetainRounds
		// Respawned workers always run over a fresh net.Pipe pair, whatever
		// the original transport: the protocol bytes are transport-agnostic
		// and the pipe needs no listener plumbing. meshGens implements the
		// streamed Respawn contract — the new incarnation's mesh generation
		// is the number of respawns performed for the shard. Touched only by
		// the coordinator goroutine.
		meshGens := make([]int, p)
		spec.Respawn = func(s int) (*Conn, error) {
			a, b := net.Pipe()
			wc := NewConn(b)
			wc.SetIOTimeout(e.IOTimeout) // the hub arms the coordinator's end
			meshGens[s]++
			wg.Add(1)
			go runWorker(s, meshGens[s], wc)
			return NewConn(a), nil
		}
	}
	met, rep, err := RunCoordinator(coord, spec)
	for i := range coord {
		// The hub shares this slice, so after a recovery coord[i] is the
		// respawned worker's conn; dead incarnations were closed at restart.
		coord[i].Close()
	}
	wg.Wait()
	if err != nil {
		panic(fmt.Errorf("net: %w", err))
	}
	*e.recov = rep.Recoveries
	*e.swire = rep.StreamWire
	rep.Sharding.EdgeCutFraction = shard.CutFraction(runG, runAssign)
	*e.sm = rep.Sharding
	return met
}

// meshBroker is the in-process stand-in for the mesh listeners of a real
// deployment: each worker incarnation registers an inbox of inbound mesh
// connections, and a dial manufactures a net.Pipe pair, parking one end in
// the destination's current inbox. Respawns re-register, closing the dead
// incarnation's inbox so its accept loop exits.
type meshBroker struct {
	mu      sync.Mutex
	inboxes []*meshInbox
}

// meshInbox is one incarnation's inbound mesh connection queue.
type meshInbox struct {
	ch     chan net.Conn
	closed bool
}

func newMeshBroker(p int) *meshBroker {
	return &meshBroker{inboxes: make([]*meshInbox, p)}
}

// register installs a fresh inbox for shard s's newest incarnation, closing
// any previous one.
func (b *meshBroker) register(s int) *meshInbox {
	b.mu.Lock()
	defer b.mu.Unlock()
	if old := b.inboxes[s]; old != nil {
		b.closeLocked(old)
	}
	// Buffered past the worst dial burst (every peer at once, twice over)
	// so dialers never block parking a conn.
	ib := &meshInbox{ch: make(chan net.Conn, 2*len(b.inboxes))}
	b.inboxes[s] = ib
	return ib
}

// close shuts one incarnation's inbox (idempotent): its accept loop exits,
// and any parked conns are closed so their dialers' handshakes fail fast
// and retry against the successor inbox.
func (b *meshBroker) close(ib *meshInbox) {
	b.mu.Lock()
	b.closeLocked(ib)
	b.mu.Unlock()
}

func (b *meshBroker) closeLocked(ib *meshInbox) {
	if ib.closed {
		return
	}
	ib.closed = true
	close(ib.ch)
	for c := range ib.ch {
		c.Close()
	}
}

// accept blocks for the next inbound mesh connection.
func (ib *meshInbox) accept() (net.Conn, error) {
	c, ok := <-ib.ch
	if !ok {
		return nil, errors.New("net: mesh inbox closed")
	}
	return c, nil
}

// dial connects to shard dst's current incarnation.
func (b *meshBroker) dial(dst int) (net.Conn, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ib := b.inboxes[dst]
	if ib == nil || ib.closed {
		return nil, fmt.Errorf("net: mesh endpoint %d not accepting", dst)
	}
	a, c := net.Pipe()
	select {
	case ib.ch <- c:
		return a, nil
	default:
		a.Close()
		c.Close()
		return nil, fmt.Errorf("net: mesh endpoint %d backlog full", dst)
	}
}

// DialCluster establishes p coordinator↔worker connection pairs over the
// given transport (coord[i] ↔ workers[i]). cleanup tears down any listener
// and socket directory. Exported for internal/session, whose in-process
// Open wires up the same topology and then keeps it alive across epochs.
func DialCluster(transport string, p int) (coord []*Conn, workers []*Conn, cleanup func(), err error) {
	coord = make([]*Conn, p)
	workers = make([]*Conn, p)
	cleanup = func() {}
	switch transport {
	case "", TransportPipe:
		for i := 0; i < p; i++ {
			a, b := net.Pipe()
			coord[i], workers[i] = NewConn(a), NewConn(b)
		}
		return coord, workers, cleanup, nil
	case TransportUnix, TransportTCP:
		var ln net.Listener
		if transport == TransportTCP {
			ln, err = net.Listen("tcp", "127.0.0.1:0")
		} else {
			var dir string
			if dir, err = os.MkdirTemp("", "distkcore-net-"); err != nil {
				return nil, nil, nil, err
			}
			sock := filepath.Join(dir, "cluster.sock")
			if ln, err = net.Listen("unix", sock); err != nil {
				os.RemoveAll(dir)
				return nil, nil, nil, err
			}
			cleanup = func() { os.RemoveAll(dir) }
		}
		if err != nil {
			return nil, nil, nil, err
		}
		defer ln.Close()
		addr := ln.Addr()
		for i := 0; i < p; i++ {
			wc, err := net.Dial(addr.Network(), addr.String())
			if err != nil {
				cleanup()
				return nil, nil, nil, err
			}
			cc, err := ln.Accept()
			if err != nil {
				cleanup()
				return nil, nil, nil, err
			}
			coord[i], workers[i] = NewConn(cc), NewConn(wc)
		}
		return coord, workers, cleanup, nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown transport %q (want %s, %s or %s)",
			transport, TransportPipe, TransportUnix, TransportTCP)
	}
}
