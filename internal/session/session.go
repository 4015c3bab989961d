package session

import (
	"fmt"
	"time"

	"distkcore/internal/codec"
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
	// the epoch-0 run is replayed to its successor by the net layer, and one
	// during a later epoch seal is respawned and re-admitted at the last
	// sealed epoch instead of latching the session broken. Epoch-0
	// handshake faults stay fatal either way.
	Recover bool
	// wrap is the cluster's link seam (net.Cluster.Wrap), for this package's
	// fault tests: fault injection is not part of the session surface.
	wrap net.LinkFunc
}

// Session is the in-process form of a long-lived cluster: a net.Cluster —
// P worker goroutines connected over real net.Conns — whose run sealed epoch
// 0 and whose hub stays open for streamed delta epochs. It is the same
// protocol cmd/cluster's serve/push/sub speak across processes, with the
// subscription layer driven directly (Subscribe/Ledger) instead of over a
// control socket. Not safe for concurrent use.
type Session struct {
	co     *Coordinator
	cl     *net.Cluster
	met    dist.Metrics
	rep    *net.Report
	closed bool
}

// Open brings up P in-process workers whose body is ServeWorker, runs epoch
// 0 (a full coordinated run, byte-identical to dist.SeqEngine's) and seals
// it into the digest chain. The returned session owns the cluster; Close it.
func Open(g *graph.Graph, opt Options) (*Session, error) {
	p, T, part := opt.P, opt.Rounds, opt.Part
	if p < 1 {
		return nil, fmt.Errorf("session: Open requires P >= 1")
	}
	if T < 1 {
		return nil, fmt.Errorf("session: Open requires Rounds >= 1")
	}
	if part == nil {
		part = shard.Hash{}
	}
	assign, err := shard.Place(part, g, p)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	body := func(s net.Seat) error {
		w := s.Worker(g, assign)
		w.Trace = opt.Trace
		_, err := ServeWorker(s.Conn, w, g, assign, part, T)
		return err
	}
	cl := &net.Cluster{P: p, Transport: opt.Transport, IOTimeout: opt.IOTimeout, Wrap: opt.wrap}
	if err := cl.Start(body); err != nil {
		return nil, err
	}
	// With Recover an epoch-0 respawn replays the whole worker life: handshake,
	// the run replayed from Init, then the serve loop.
	met, rep, err := cl.Run(net.Spec{
		MaxRounds:  T,
		GraphHash:  g.Fingerprint(),
		PartDigest: shard.PartitionDigest(assign),
		WantValues: true,
		Recover:    opt.Recover,
		Trace:      opt.Trace,
	}, body)
	var co *Coordinator
	if err == nil {
		var b []float64
		if b, err = rep.Assemble(g.N()); err == nil {
			co, err = NewCoordinator(cl.Hub, g, assign, part, b)
		}
	}
	if err != nil {
		// No Bye owed: the run itself failed and error records are already in
		// flight.
		cl.Close()
		return nil, err
	}
	co.SetTracer(opt.Trace)
	if opt.Recover {
		// Session-layer recovery (DESIGN.md §13): the respawned worker rebuilds
		// its oracle from the coordinator's sealed graph (folded to a CSR on
		// this demand) and assignment — read here, at respawn time, so a
		// recovery mid-epoch-e restores to the sealed epoch e-1, not to the
		// adjacency the in-flight batch already mutated — and joins via
		// ServeResumed. The sealed assignment takes the epoch's moves in place
		// at commit, but NewWorkerState has copied it before the worker echoes
		// its admission, and no commit comes before that echo. The exact
		// incremental oracle under Λ = ℝ makes the recomputed state
		// bit-identical to what the dead incarnation held at the last seal, so
		// no state ships; there is no fresh run to cross-check against (runB
		// nil), the resume stamp's values digest is the admission check
		// instead.
		co.EnableRecovery(func(idx, gen int) (*net.Conn, error) {
			g2, as2 := co.Graph(), co.assign
			return cl.Respawn(idx, gen, func(s net.Seat) error {
				ws, err := NewWorkerState(s.Conn, g2, as2, idx, p, T, part, nil)
				if err != nil {
					return err
				}
				ws.trace = opt.Trace
				return ws.ServeResumed()
			})
		})
	}
	return &Session{co: co, cl: cl, met: met, rep: rep}, nil
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

// Close says goodbye to every worker and tears the cluster down (which
// waits for the workers to exit). Idempotent.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.co.Bye()
	s.cl.Close()
	return nil
}
