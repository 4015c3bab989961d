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

// Cluster is the one in-process bring-up of a socket cluster: P connection
// pairs over Transport, a Hub on the coordinator ends, and one goroutine per
// worker incarnation running Body on the worker end. Everything an
// in-process cluster needs besides what its workers DO lives here — the
// dial, the deadlines, the goroutine wrapper that turns a worker's error or
// panic into an error record (and a fault-injected death into silence), the
// respawn on a fresh pipe with its mesh generation, the mesh broker of a
// streamed cluster, the teardown. Engine.Run is "Start, Run, Close";
// session.Open is the same with a body that continues into the epoch loop
// and a Close deferred to Session.Close — a session is a run whose hub stays
// open.
//
// Set the exported fields, call Start with the worker body, drive the Hub
// (Run, or the session layer's epochs), Close exactly once. The cluster does
// not keep the body: a session's epoch-0 body closes over the epoch-0 graph,
// which must be free to go once later epochs have replaced it.
type Cluster struct {
	// P is the worker count and Transport the connection kind
	// (TransportPipe when empty).
	P         int
	Transport string
	// IOTimeout, when non-zero, arms per-operation deadlines on every
	// connection, the hub's reply waits, mesh formation and credit waits.
	IOTimeout time.Duration
	// Stream puts the cluster on the streamed frame plane: workers get mesh
	// endpoints from an in-process broker and Run arms Spec.Stream.
	Stream bool

	// Hub is the coordinator side, live from Start to Close.
	Hub *Hub

	broker  *meshBroker
	cleanup func()
	wg      sync.WaitGroup
}

// Body is what one worker incarnation does with its Seat, start to finish.
// A returned error is shipped to the coordinator as an error record, a panic
// likewise; ErrKilled (returned or panicked) dies silently, as a crashed
// process would.
type Body func(Seat) error

// Seat is one worker incarnation's place in a Cluster: its shard and the
// worker end of its coordinator connection. Worker builds the protocol
// endpoint that sits in it.
type Seat struct {
	Shard int
	Conn  *Conn
	cl    *Cluster
	gen   int
}

// Worker returns a worker endpoint for this seat's connection on g
// partitioned by assign, wired to the cluster's deadlines and — on a
// streamed cluster — to its mesh under this incarnation's generation.
func (s Seat) Worker(g *graph.Graph, assign []int) *Worker {
	w := NewWorker(s.Conn, g, assign)
	w.IOTimeout = s.cl.IOTimeout
	if b := s.cl.broker; b != nil {
		ib := b.register(s.Shard)
		w.MeshDial, w.MeshAccept, w.MeshGen = b.dial, ib.accept, s.gen
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
		cl.broker = newMeshBroker(cl.P)
	}
	for i := range coord {
		coord[i].SetIOTimeout(cl.IOTimeout)
		workers[i].SetIOTimeout(cl.IOTimeout)
	}
	cl.Hub = NewHub(coord)
	cl.Hub.Timeout = cl.IOTimeout
	for s, c := range workers {
		cl.spawn(Seat{Shard: s, Conn: c, cl: cl}, body)
	}
	return nil
}

// spawn runs body in a worker goroutine that Close waits for.
func (cl *Cluster) spawn(s Seat, body Body) {
	cl.wg.Add(1)
	go func() {
		defer cl.wg.Done()
		defer s.Conn.Close()
		// A panic anywhere in the worker stack (a factory bug; Worker.Run
		// converts protocol errors into panics) must not hang the coordinator:
		// it becomes an error record and the run aborts with the reason.
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); !ok || !errors.Is(err, ErrKilled) {
					s.Conn.SendError(fmt.Errorf("worker panic: %v", r))
				}
			}
		}()
		if err := body(s); err != nil && !errors.Is(err, ErrKilled) {
			s.Conn.SendError(err)
		}
	}()
}

// Respawn starts incarnation gen of shard (the generation Hub.Respawn hands
// its spawn callback) running body and returns the coordinator end of its
// connection — the shape Spec.Respawn and the session layer's epoch recovery
// want. Whatever the original transport, the replacement runs over a fresh
// net.Pipe: the protocol bytes are transport-agnostic and the pipe needs no
// listener plumbing.
func (cl *Cluster) Respawn(shard, gen int, body Body) (*Conn, error) {
	a, b := net.Pipe()
	wc := NewConn(b)
	wc.SetIOTimeout(cl.IOTimeout) // Hub.Respawn arms the coordinator's end
	cl.spawn(Seat{Shard: shard, Conn: wc, cl: cl, gen: gen}, body)
	return NewConn(a), nil
}

// Run drives one coordinated run over the cluster's hub (Hub.Run), filling
// in what the bring-up already decided: the fan-out, the frame plane and,
// when spec arms recovery, a respawn of body — the one Start was given, so a
// respawned incarnation replays the whole worker life.
func (cl *Cluster) Run(spec Spec, body Body) (dist.Metrics, *Report, error) {
	spec.P, spec.Stream = cl.P, cl.Stream
	if spec.Recover {
		spec.Respawn = func(s, gen int) (*Conn, error) { return cl.Respawn(s, gen, body) }
	}
	return cl.Hub.Run(spec)
}

// Close tears the cluster down: coordinator connections closed (every
// worker still alive sees EOF and exits), hub readers released, worker
// goroutines waited for, listener leftovers removed. After a recovery the
// hub's slots hold the respawned workers' connections; dead incarnations
// were closed at restart.
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
	// Buffered past the worst dial burst (every peer at once, twice over)
	// so dialers never block parking a conn.
	ib := &meshInbox{ch: make(chan net.Conn, 2*len(b.inboxes))}
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
