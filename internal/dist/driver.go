package dist

import (
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// Driver exposes the engine-shared machinery — per-node programs and
// contexts, mailboxes, delivery order and metrics accounting — to Engine
// implementations that live outside this package (the sharded cluster
// engine of internal/shard). It is the same sim core both built-in engines
// are thin schedulers over, so an engine built on a Driver inherits the
// package's determinism contract wholesale: step nodes in any order (or
// concurrently, for distinct nodes) between barriers, then call Deliver
// from a single goroutine, and the execution is byte-identical to
// SeqEngine's.
type Driver struct{ s *sim }

// NewDriver instantiates one Program per node of g via factory and returns
// the driver handle. lam prices Metrics.WireBytes (nil means Λ = ℝ).
func NewDriver(g *graph.Graph, lam quantize.Lambda, factory Factory) *Driver {
	return &Driver{s: newSim(g, lam, factory)}
}

// N returns the node count of the run.
func (d *Driver) N() int { return len(d.s.ctxs) }

// Alive returns the number of nodes that have not halted. Valid between a
// Deliver and the next Step wave (deliver is where halts are retired).
func (d *Driver) Alive() int { return d.s.alive }

// Halted reports whether node v has halted. Safe to read concurrently with
// Steps of other nodes; racing it against Step(v, ·) of the same node is
// the caller's bug.
func (d *Driver) Halted(v graph.NodeID) bool { return d.s.ctxs[v].halted }

// Step runs node v's hook for round t — Init when t == 0, Round with the
// node's current inbox otherwise — and is a no-op for halted nodes. The
// inbox is valid only for the duration of the hook (see Program).
// Concurrent Steps are safe for distinct v; the engine must barrier before
// calling Deliver.
func (d *Driver) Step(v graph.NodeID, t int) {
	if !d.s.ctxs[v].halted {
		d.StepRange(v, v+1, t)
	}
}

// StepRange runs Step for every node in [lo, hi) in ascending order for
// round t and returns the number of hooks invoked (halted nodes are
// skipped). It is the range-granular form of Step that the worker-pool
// parallel engine schedules over contiguous CSR blocks; engines built on
// the Driver (a sharded maintainer, a NUMA-pinned pool) get the same
// batched shape without re-deriving the loop. Concurrent StepRanges are
// safe for disjoint ranges; the engine must barrier before Deliver.
func (d *Driver) StepRange(lo, hi graph.NodeID, t int) int {
	buf := gatherBufs.Get().(*[]Message)
	stepped := 0
	for v := lo; v < hi; v++ {
		if d.s.step(v, t, buf) {
			stepped++
		}
	}
	gatherBufs.Put(buf)
	return stepped
}

// Sends invokes fn for every message node v has sent since the last
// Deliver, in send order — a leading Broadcast once per peer, then the
// queued sends — without consuming anything. It is the transport tap of the
// seam: an engine that ships a shard's traffic over a real wire
// (internal/net) calls it after the round's Steps and before the Deliver
// that flushes them, encoding cross-shard messages into frames and
// accounting its shard's Metrics share through WireSize. Call it only in
// that window, from a goroutine that is not concurrently Stepping v; the
// Message values (Vec included) are the live send buffers and must not be
// retained or mutated.
func (d *Driver) Sends(v graph.NodeID, fn func(to graph.NodeID, m Message)) {
	s := d.s
	c := &s.ctxs[v]
	if sl := &s.slots[s.wr+v]; sl.seq == s.seq {
		for _, to := range c.peers {
			fn(to, sl.m)
		}
	}
	for _, env := range c.out {
		fn(env.to, env.m)
	}
}

// Deliver closes the round: it accounts Metrics for every message sent
// since the last Deliver and makes them the receivers' next-round inboxes
// in the package's deterministic order (ascending sender ID, ties in send
// order). Each message passes through route when non-nil (see RouteFunc) —
// the hook transports use to divert traffic through their own wire format.
// Must be called from one goroutine, after every Step of the round has
// returned.
func (d *Driver) Deliver(route RouteFunc) { d.s.deliver(route) }

// Finish stamps and returns the run-level Metrics once the round loop
// exits.
func (d *Driver) Finish(rounds int) Metrics { return d.s.finish(rounds) }
