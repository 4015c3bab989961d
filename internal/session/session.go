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
	// per-epoch seal/publish spans coordinator-side and repair/rebalance
	// spans worker-side.
	Trace *obs.Tracer
	// wrap is the cluster's link seam (net.Cluster.Wrap), for this package's
	// fault tests: fault injection is not part of the session surface.
	wrap net.LinkFunc
}

// Session is the in-process form of a long-lived cluster: a net.Cluster —
// P worker goroutines connected over real net.Conns — opened on its
// oracles and kept hot for streamed delta epochs. It is the same protocol
// cmd/cluster's serve/push/sub speak across processes, with the
// subscription layer driven directly (Subscribe/Ledger) instead of over a
// control socket. Not safe for concurrent use.
type Session struct {
	co     *Coordinator
	cl     *net.Cluster
	closed bool
}

// Open brings up P in-process workers, each building its oracle, and seals
// epoch 0 in one exchange (NewCoordinator): the values are
// byte-identical to dist.SeqEngine's run. A worker death is recovered,
// before epoch 0's seal or in a later epoch (DESIGN.md §13.4). The returned
// session owns the cluster; Close it.
func Open(g *graph.Graph, opt Options) (*Session, error) {
	p, T, part := opt.P, opt.Rounds, opt.Part
	if err := checkBase(p, T, g); err != nil {
		return nil, err
	}
	if part == nil {
		part = shard.Hash{}
	}
	assign, err := shard.Place(part, g, p)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	// Every incarnation builds its oracle on the last sealed graph and
	// assignment — at open, g and assign — and Serve admits it by the first
	// record it reads: the hello, or a respawned worker's stamp.
	body := func(g *graph.Graph, assign []int) net.Body {
		return func(s net.Seat) error {
			ws, err := NewWorkerState(s.Conn, g, assign, s.Shard, p, T, part)
			if err != nil {
				return err
			}
			ws.trace = opt.Trace
			return ws.Serve(nil)
		}
	}
	cl := &net.Cluster{P: p, Transport: opt.Transport, IOTimeout: opt.IOTimeout, Wrap: opt.wrap}
	if err := cl.Start(body(g, assign)); err != nil {
		return nil, err
	}
	co, err := NewCoordinator(cl.Hub, g, "", assign, part, T,
		func(s, gen int, g *graph.Graph, assign []int) (*net.Conn, error) {
			return cl.Respawn(s, gen, body(g, assign))
		})
	if err != nil {
		// No Bye owed: the error record is already in flight.
		cl.Close()
		return nil, err
	}
	co.SetTracer(opt.Trace)
	return &Session{co: co, cl: cl}, nil
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

// Recoveries returns the number of worker crash recoveries performed since
// the session began opening.
func (s *Session) Recoveries() int64 { return s.co.Recoveries() }

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
