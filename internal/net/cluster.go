package net

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
)

// Cluster is the one in-process bring-up of a socket cluster (the package
// comment lists what it owns): P connection pairs over Transport, a Hub on the
// coordinator ends, one goroutine per worker incarnation running Body on the
// worker end. Engine.Run is "Start, Run, Close"; session.Open is "Start", the
// session's opening exchange over the Hub and a Close deferred to
// Session.Close.
//
// Set the exported fields, call Start with the worker body, drive the Hub
// (Run, or the session layer's epochs), Close exactly once. The cluster does
// not keep the body: a session's body closes over the graph it opened on,
// which must be free to go once later epochs have replaced it.
type Cluster struct {
	// P is the worker count and Transport the connection kind
	// (TransportPipe when empty).
	P         int
	Transport string
	// IOTimeout, when non-zero, arms per-operation deadlines on every
	// connection, the hub's reply waits and mesh formation.
	IOTimeout time.Duration
	// Stream puts the cluster on the streamed frame plane: workers get mesh
	// endpoints from an in-process broker and Run arms Spec.Stream.
	Stream bool
	// Wrap, when set, is the seam under the workers' links: the worker end of
	// each incarnation's control connection and every mesh connection it dials
	// or accepts pass through it (internal/net/faultnet's faults land there).
	Wrap LinkFunc

	// Hub is the coordinator side, live from Start to Close.
	Hub *Hub

	broker  *meshBroker
	cleanup func()
	wg      sync.WaitGroup
}

// Body is what one worker incarnation does with its Seat, start to finish.
// A returned error is shipped to the coordinator as an error record, a panic
// likewise — nothing arrives from an incarnation whose links are closed. A
// body that returns nil has its seat held until the coordinator hangs up
// (Close), so what it kept past its run — a streamed worker's mesh — serves a
// successor of a peer that died after its last record.
type Body func(Seat) error

// A LinkFunc stands between incarnation gen of shard and its link c toward
// peer (-1: the coordinator), returning the connection the worker uses.
type LinkFunc func(shard, gen, peer int, c net.Conn) net.Conn

// wrap applies f, the identity when f is nil.
func (f LinkFunc) wrap(shard, gen, peer int, c net.Conn) net.Conn {
	if f == nil {
		return c
	}
	return f(shard, gen, peer, c)
}

// Seat is one worker incarnation's place in a Cluster: its shard and the
// worker end of its coordinator connection. Worker builds the protocol
// endpoint that sits in it.
type Seat struct {
	Shard int
	Conn  *Conn
	cl    *Cluster
	gen   int
	inbox *meshInbox // on a streamed cluster, registered before the spawn
}

// Worker returns a worker endpoint for this seat's connection on g
// partitioned by assign, wired to the cluster's deadlines and — on a
// streamed cluster — to its mesh under this incarnation's generation.
func (s Seat) Worker(g *graph.Graph, assign []int) *Worker {
	w := NewWorker(s.Conn, g, assign)
	w.IOTimeout = s.cl.IOTimeout
	if b, ib := s.cl.broker, s.inbox; b != nil {
		w.MeshDial = func(dst int) (net.Conn, error) { return b.dial(s.Shard, s.gen, dst) }
		w.MeshAccept, w.MeshGen = ib.accept, s.gen
		w.MeshClose = func() { b.close(ib) }
	}
	return w
}

// Start dials the cluster, arms the deadlines, starts the hub and spawns the
// P workers, each running body.
func (cl *Cluster) Start(body Body) error {
	coord, workers, cleanup, err := DialCluster(cl.Transport, cl.P)
	if err != nil {
		return err
	}
	cl.cleanup = cleanup
	if cl.Stream {
		cl.broker = &meshBroker{inboxes: make([]*meshInbox, cl.P), wrap: cl.Wrap}
	}
	for i := range coord {
		coord[i].SetIOTimeout(cl.IOTimeout)
	}
	cl.Hub = NewHub(coord)
	cl.Hub.Timeout = cl.IOTimeout
	// Every mesh inbox is up before any worker runs, so no first dial finds
	// its peer not yet accepting.
	inboxes := make([]*meshInbox, cl.P)
	for s := range inboxes {
		inboxes[s] = cl.register(s, 0)
	}
	for s, c := range workers {
		cl.spawn(s, 0, c.nc, inboxes[s], body)
	}
	return nil
}

// register installs incarnation gen of shard's mesh inbox on a streamed
// cluster (nil otherwise).
func (cl *Cluster) register(shard, gen int) *meshInbox {
	if cl.broker == nil {
		return nil
	}
	return cl.broker.register(shard, gen)
}

// spawn runs body for incarnation gen of shard, on the worker end nc of its
// control connection and with its mesh inbox ib, in a goroutine that Close
// waits for.
func (cl *Cluster) spawn(shard, gen int, nc net.Conn, ib *meshInbox, body Body) {
	s := Seat{Shard: shard, Conn: NewConn(cl.Wrap.wrap(shard, gen, -1, nc)), cl: cl, gen: gen, inbox: ib}
	s.Conn.SetIOTimeout(cl.IOTimeout)
	cl.wg.Add(1)
	go func() {
		defer cl.wg.Done()
		defer s.Conn.Close()
		if ib != nil {
			// The inbox lives no longer than its incarnation, whether or not
			// the body ever built a mesh on it.
			defer cl.broker.close(ib)
		}
		// A panic anywhere in the worker stack (a factory bug; Worker.Run
		// converts protocol errors into panics) must not hang the coordinator:
		// it becomes an error record and the run aborts with the reason.
		defer func() {
			if r := recover(); r != nil {
				s.Conn.SendError(fmt.Errorf("worker panic: %v", r))
			}
		}()
		if err := body(s); err != nil {
			s.Conn.SendError(err)
			return
		}
		s.Conn.AwaitRecord() // the hang-up
	}()
}

// Respawn starts incarnation gen of shard (the generation Hub.Respawn hands
// its spawn callback) running body and returns the coordinator end of its
// connection — the shape Spec.Respawn and the session layer's recovery want.
// Whatever the original transport, the replacement runs over a fresh
// net.Pipe: the protocol bytes are transport-agnostic and the pipe needs no
// listener plumbing.
func (cl *Cluster) Respawn(shard, gen int, body Body) (*Conn, error) {
	a, b := net.Pipe()
	cl.spawn(shard, gen, b, cl.register(shard, gen), body) // Hub.Respawn arms the coordinator's end
	return NewConn(a), nil
}

// Run drives one coordinated run over the cluster's hub (Hub.Run), filling
// in what the bring-up already decided: the fan-out, the frame plane and, on
// a streamed cluster, a respawn of body — the one Start was given, so a
// respawned incarnation runs the whole worker life again.
func (cl *Cluster) Run(spec Spec, body Body) (dist.Metrics, *Report, error) {
	spec.P, spec.Stream = cl.P, cl.Stream
	if cl.Stream {
		spec.Respawn = func(s, gen int) (*Conn, error) { return cl.Respawn(s, gen, body) }
	}
	return cl.Hub.Run(spec)
}

// Close tears the cluster down: coordinator connections closed (the hang-up:
// every worker still alive sees EOF, releases its mesh and exits), hub readers
// released, worker goroutines waited for, listener leftovers removed. After a
// recovery the hub's slots hold the respawned workers' connections; dead
// incarnations were closed at restart.
func (cl *Cluster) Close() {
	for i := 0; i < cl.P; i++ {
		cl.Hub.Conn(i).Close()
	}
	cl.Hub.Close()
	cl.wg.Wait()
	cl.cleanup()
}

// meshBroker is the in-process stand-in for the mesh listeners of a real
// deployment: each worker incarnation registers an inbox of inbound mesh
// connections, and a dial manufactures a net.Pipe pair, both ends through the
// seam, parking one in the destination's current inbox. Respawns re-register,
// closing the dead incarnation's inbox so its accept loop exits.
type meshBroker struct {
	mu      sync.Mutex
	inboxes []*meshInbox
	wrap    LinkFunc
}

// meshInbox is one incarnation's inbound mesh connection queue.
type meshInbox struct {
	ch     chan net.Conn
	gen    int
	closed bool
}

// register installs a fresh inbox for incarnation gen of shard s, closing
// any previous one.
func (b *meshBroker) register(s, gen int) *meshInbox {
	// Buffered past the worst dial burst (every peer at once, twice over)
	// so dialers never block parking a conn.
	ib := &meshInbox{ch: make(chan net.Conn, 2*len(b.inboxes)), gen: gen}
	b.mu.Lock()
	old := b.inboxes[s]
	b.inboxes[s] = ib
	b.mu.Unlock()
	if old != nil {
		b.close(old)
	}
	return ib
}

// close shuts one incarnation's inbox (idempotent): its accept loop exits,
// and any parked conns are closed so their dialers' handshakes fail fast
// and retry against the successor inbox.
func (b *meshBroker) close(ib *meshInbox) {
	b.mu.Lock()
	defer b.mu.Unlock()
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

// dial connects incarnation gen of shard src to shard dst's current one.
func (b *meshBroker) dial(src, gen, dst int) (net.Conn, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ib := b.inboxes[dst]
	if ib == nil || ib.closed {
		return nil, fmt.Errorf("net: mesh endpoint %d not accepting", dst)
	}
	a, c := net.Pipe()
	select {
	case ib.ch <- b.wrap.wrap(dst, ib.gen, src, c):
		return b.wrap.wrap(src, gen, dst, a), nil
	default:
		a.Close()
		c.Close()
		return nil, fmt.Errorf("net: mesh endpoint %d backlog full", dst)
	}
}

// DialCluster establishes p coordinator↔worker connection pairs over the
// given transport (coord[i] ↔ workers[i]). cleanup tears down any listener
// and socket directory. Cluster.Start is its only caller in the program
// proper; it stays exported for the trusted benchmark's transport probes
// (dial cost, round trip, bulk throughput on a bare pair).
func DialCluster(transport string, p int) (coord []*Conn, workers []*Conn, cleanup func(), err error) {
	coord = make([]*Conn, p)
	workers = make([]*Conn, p)
	cleanup = func() {}
	var ln net.Listener
	switch transport {
	case "", TransportPipe:
		for i := range coord {
			a, b := net.Pipe()
			coord[i], workers[i] = NewConn(a), NewConn(b)
		}
		return coord, workers, cleanup, nil
	case TransportTCP:
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	case TransportUnix:
		var dir string
		if dir, err = os.MkdirTemp("", "distkcore-net-"); err == nil {
			cleanup = func() { os.RemoveAll(dir) }
			ln, err = net.Listen("unix", filepath.Join(dir, "cluster.sock"))
		}
	default:
		err = fmt.Errorf("unknown transport %q (want %s, %s or %s)",
			transport, TransportPipe, TransportUnix, TransportTCP)
	}
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	defer ln.Close()
	addr := ln.Addr()
	for i := range coord {
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
}
