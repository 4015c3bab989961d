package session

import (
	"errors"
	"fmt"
	stdnet "net"
	"sync"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	net "distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/shard"
)

// Options configures an in-process session.
type Options struct {
	// P is the worker count (required, ≥ 1).
	P int
	// Rounds is the round budget T (required, ≥ 1). Sessions always run
	// the exact threshold set Λ = ℝ — the incremental oracle repairs exact
	// histories, so there is no Lambda knob here.
	Rounds int
	// Part places nodes; nil means shard.Hash{}.
	Part shard.Partitioner
	// Transport is net.TransportPipe (default), TransportUnix or
	// TransportTCP.
	Transport string
	// IOTimeout, when non-zero, arms per-operation deadlines on every
	// connection and bounds the coordinator's reply waits.
	IOTimeout time.Duration
	// Trace, when set, collects the whole session's timeline on one tracer:
	// the epoch-0 run (coordinator and all worker spans), then per-epoch
	// seal/publish spans coordinator-side and repair/rebalance spans
	// worker-side.
	Trace *obs.Tracer
	// Recover arms crash recovery (DESIGN.md §13): a worker death during
	// the epoch-0 run is checkpoint-restored by the net layer, and one
	// during a later epoch seal is respawned and re-admitted at the last
	// sealed epoch instead of latching the session broken. Epoch-0
	// handshake faults stay fatal either way.
	Recover bool
	// kill, when non-nil, hands each worker goroutine its fault-injection
	// hook (the recovery tests' seam; unexported because fault injection is
	// not part of the public session surface).
	kill func(worker int) net.KillFunc
}

// Session is the in-process form of a long-lived cluster: P worker
// goroutines connected over real net.Conns, opened with one full
// coordinated run (epoch 0) and kept hot for streamed delta epochs. It is
// the same protocol cmd/cluster's serve/push/sub speak across processes,
// with the subscription layer driven directly (Subscribe/Ledger) instead of
// over a control socket. Not safe for concurrent use.
type Session struct {
	co      *Coordinator
	hub     *net.Hub
	conns   []*net.Conn
	cleanup func()
	wg      sync.WaitGroup
	met     dist.Metrics
	rep     *net.Report
	closed  bool
}

// Open dials P in-process workers, runs epoch 0 (a full coordinated run,
// byte-identical to dist.SeqEngine's) and seals it into the digest chain.
// The returned session owns the connections; Close it.
func Open(g *graph.Graph, opt Options) (*Session, error) {
	p := opt.P
	if p < 1 {
		return nil, fmt.Errorf("session: Open requires P >= 1")
	}
	T := opt.Rounds
	if T < 1 {
		return nil, fmt.Errorf("session: Open requires Rounds >= 1")
	}
	part := opt.Part
	if part == nil {
		part = shard.Hash{}
	}
	assign := part.Partition(g, p)
	if len(assign) != g.N() {
		return nil, fmt.Errorf("session: partitioner %s returned %d assignments for %d nodes", part.Name(), len(assign), g.N())
	}
	for v, sh := range assign {
		if sh < 0 || sh >= p {
			return nil, fmt.Errorf("session: partitioner %s assigned node %d to shard %d (p=%d)", part.Name(), v, sh, p)
		}
	}
	coord, workers, cleanup, err := net.DialCluster(opt.Transport, p)
	if err != nil {
		return nil, err
	}
	if opt.IOTimeout > 0 {
		for i := 0; i < p; i++ {
			coord[i].SetIOTimeout(opt.IOTimeout)
			workers[i].SetIOTimeout(opt.IOTimeout)
		}
	}

	s := &Session{conns: coord, cleanup: cleanup}
	// spawn runs one worker goroutine over c from fn, suppressing the
	// fault-injection sentinel: a killed worker dies silently (its conn is
	// already closed), everything else aborts the session with its reason —
	// a panic anywhere in the worker stack (Worker.Run converts protocol
	// errors into panics) must never hang the coordinator.
	spawn := func(idx int, c *net.Conn, fn func() error) {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer c.Close()
			defer func() {
				if r := recover(); r != nil {
					if e2, ok := r.(error); ok && errors.Is(e2, net.ErrKilled) {
						return
					}
					c.SendError(fmt.Errorf("session worker panic: %v", r))
				}
			}()
			if err := fn(); err != nil && !errors.Is(err, net.ErrKilled) {
				c.SendError(err)
			}
		}()
	}
	for i := 0; i < p; i++ {
		idx, wc := i, workers[i]
		spawn(idx, wc, func() error {
			return serveInProcessWorker(wc, g, assign, idx, p, T, part, opt.Trace, opt.kill)
		})
	}

	hub := net.NewHub(coord)
	s.hub = hub
	spec := net.Spec{
		P:          p,
		MaxRounds:  T,
		GraphHash:  g.Fingerprint(),
		PartDigest: shard.PartitionDigest(assign),
		WantValues: true,
		IOTimeout:  opt.IOTimeout,
		Trace:      opt.Trace,
	}
	// respawnConn builds a fresh in-process pipe to a replacement worker
	// goroutine started by run; both the epoch-0 net-layer recovery and the
	// session-layer epoch recovery funnel through it.
	respawnConn := func(run func(idx int, wc *net.Conn)) func(int) (*net.Conn, error) {
		return func(idx int) (*net.Conn, error) {
			a, b := stdnet.Pipe()
			wc := net.NewConn(b)
			wc.SetIOTimeout(opt.IOTimeout) // the hub arms the coordinator's end
			run(idx, wc)
			return net.NewConn(a), nil
		}
	}
	if opt.Recover {
		spec.Recover = true
		// An epoch-0 respawn replays the whole worker life: handshake,
		// checkpoint-restored run, then the session serve loop.
		spec.Respawn = respawnConn(func(idx int, wc *net.Conn) {
			spawn(idx, wc, func() error {
				return serveInProcessWorker(wc, g, assign, idx, p, T, part, opt.Trace, opt.kill)
			})
		})
	}
	met, rep, err := hub.Run(spec)
	if err != nil {
		s.teardown()
		return nil, err
	}
	b, err := rep.Assemble(g.N())
	if err != nil {
		s.teardown()
		return nil, err
	}
	s.met, s.rep = met, rep
	co, err := NewCoordinator(hub, g, assign, part, b)
	if err != nil {
		s.teardown()
		return nil, err
	}
	co.SetTracer(opt.Trace)
	if opt.Recover {
		// Session-layer recovery: the respawned worker recomputes its state
		// from the coordinator's committed graph and assignment — read at
		// respawn time, so a recovery mid-epoch-e restores to the sealed
		// epoch e-1 — and joins via ServeResumed.
		co.EnableRecovery(respawnConn(func(idx int, wc *net.Conn) {
			g2, as2 := co.g, co.assign
			spawn(idx, wc, func() error {
				return serveResumedWorker(wc, g2, as2, idx, p, T, part, opt.Trace, opt.kill)
			})
		}))
	}
	s.co = co
	return s, nil
}

// serveInProcessWorker is one worker goroutine's whole life: handshake and
// epoch-0 run (exactly what cmd/cluster's worker does), ship values, build
// the session state, serve epochs until Bye.
func serveInProcessWorker(c *net.Conn, g *graph.Graph, assign []int, idx, p, T int, part shard.Partitioner, tr *obs.Tracer, kill func(int) net.KillFunc) error {
	h, err := net.ReadHello(c)
	if err != nil {
		return err
	}
	var kf net.KillFunc
	if kill != nil {
		kf = kill(idx)
	}
	w := net.NewWorker(c, g, assign)
	w.Hello = h
	w.Part = part
	w.Trace = tr
	w.Kill = kf
	res, _ := core.RunDistributed(g, core.Options{Rounds: T}, w)
	if err := w.SendValues(res.B); err != nil {
		return err
	}
	ws, err := NewWorkerState(c, g, assign, idx, p, T, part, res.B)
	if err != nil {
		return err
	}
	ws.SetTracer(tr)
	ws.Kill = kf
	return ws.ServeEpochs()
}

// serveResumedWorker is a crash-recovered session worker's life (DESIGN.md
// §13): rebuild the oracle from the committed graph and assignment — the
// exact incremental oracle under Λ = ℝ makes the recomputed state
// bit-identical to what the dead incarnation held at the last seal, so no
// state ships — then verify and echo the re-admission stamp and join the
// epoch loop. runB is nil: there is no fresh run to cross-check against;
// the resume stamp's values digest is the admission check instead.
func serveResumedWorker(c *net.Conn, g *graph.Graph, assign []int, idx, p, T int, part shard.Partitioner, tr *obs.Tracer, kill func(int) net.KillFunc) error {
	ws, err := NewWorkerState(c, g, assign, idx, p, T, part, nil)
	if err != nil {
		return err
	}
	ws.SetTracer(tr)
	if kill != nil {
		ws.Kill = kill(idx)
	}
	return ws.ServeResumed()
}

// Push streams one delta batch as the next epoch (see Coordinator.Push for
// the failure contract: rejected batches leave the session live, forked
// epochs break it for good).
func (s *Session) Push(d dist.GraphDelta, moveBudget int) (*EpochReport, error) {
	if s.closed {
		return nil, fmt.Errorf("session: closed")
	}
	return s.co.Push(d, moveBudget)
}

// Subscribe registers a want-list and returns the subscriber ID.
func (s *Session) Subscribe(topics ...Topic) int { return s.co.Subs().Subscribe(topics) }

// Unsubscribe removes a subscriber.
func (s *Session) Unsubscribe(id int) bool { return s.co.Subs().Unsubscribe(id) }

// Ledger returns a copy of a subscriber's ledger.
func (s *Session) Ledger(id int) (Ledger, bool) { return s.co.Subs().Ledger(id) }

// Values returns a copy of the current value vector.
func (s *Session) Values() []float64 { return s.co.Values() }

// Epoch returns the last sealed epoch.
func (s *Session) Epoch() int { return s.co.Epoch() }

// ChainDigest returns the chain digest of the last sealed epoch.
func (s *Session) ChainDigest() uint64 { return s.co.ChainDigest() }

// Digests returns the last sealed epoch's (graph, partition, values)
// digests.
func (s *Session) Digests() (graphHash, partDigest, valuesDigest uint64) { return s.co.Digests() }

// Metrics returns the epoch-0 run's dist.Metrics.
func (s *Session) Metrics() dist.Metrics { return s.met }

// Recoveries returns the number of worker crash recoveries performed since
// the session opened (epoch-level ones; epoch-0 run recoveries are counted
// by the net layer).
func (s *Session) Recoveries() int64 { return s.co.Recoveries() }

// Report returns the epoch-0 run's cluster report.
func (s *Session) Report() *net.Report { return s.rep }

// Err returns the error that broke the session, nil while it is live (a
// break from a seal in flight is a *BreakCause — see Cause).
func (s *Session) Err() error { return s.co.Err() }

// Cause returns the structured break diagnosis — epoch, phase, implicated
// worker, underlying error — nil while the session is live.
func (s *Session) Cause() *BreakCause { return s.co.Cause() }

// Stat snapshots the session's introspection counters (see codec.Stat).
func (s *Session) Stat() codec.Stat { return s.co.Stat() }

// Close says goodbye to every worker, waits for them to exit and releases
// the connections. Idempotent.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.co != nil {
		s.co.Bye()
	}
	s.wg.Wait()
	s.teardownConns()
	return nil
}

// teardown is the failed-Open path: no Bye owed (the run itself failed and
// error records are already in flight), just release everything.
func (s *Session) teardown() {
	s.teardownConns()
	s.wg.Wait()
}

func (s *Session) teardownConns() {
	for _, c := range s.conns {
		c.Close()
	}
	if s.hub != nil {
		s.hub.Close()
	}
	if s.cleanup != nil {
		s.cleanup()
		s.cleanup = nil
	}
}
