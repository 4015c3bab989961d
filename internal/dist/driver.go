package dist

import (
	"fmt"

	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// Driver exposes the engine-shared machinery — per-node programs and
// contexts, mailboxes, delivery order and metrics accounting — to Engine
// implementations that live outside this package (the sharded engine of
// internal/shard, the socket cluster's workers in internal/net). It is the
// same sim core both built-in engines are thin schedulers over, so an
// engine built on a Driver inherits the package's determinism contract
// wholesale: step nodes in any order (or concurrently, for distinct nodes)
// between barriers, then call Deliver from a single goroutine, and the
// execution is byte-identical to SeqEngine's.
type Driver struct{ s *sim }

// NewDriver instantiates one Program per node of g via factory and returns
// the driver handle. lam prices Metrics.WireBytes (nil means Λ = ℝ).
func NewDriver(g *graph.Graph, lam quantize.Lambda, factory Factory) *Driver {
	return &Driver{s: newSim(g, lam, factory)}
}

// NewSubsetDriver is NewDriver for an engine that steps only the nodes own
// (ascending, distinct) of g — one worker of a cluster. It instantiates their
// Programs and holds state for them and for the nodes they can hear, their
// peers, whose sends the engine writes in through Inject; the rest of g costs
// it four bytes a node (DESIGN.md §7). Programs, the tap and Inject keep
// speaking node IDs of g. Drivers whose subsets partition the nodes, each
// fed the others' taps, run the execution one Driver over g would — inbox
// for inbox — and their Metrics sum to its: each prices what its own nodes
// sent.
func NewSubsetDriver(g *graph.Graph, lam quantize.Lambda, own []graph.NodeID, factory Factory) *Driver {
	return &Driver{s: newSubsetSim(g, lam, own, factory)}
}

// Alive returns the number of stepped nodes that have not halted, the Halts
// of the round just stepped included (the next Deliver retires them into the
// count the built-in engines loop on). Call it while no step is running.
func (d *Driver) Alive() int { return d.s.alive - int(d.s.haltedNow.Load()) }

// Halted reports whether node v has halted. Safe to read concurrently with
// steps of other nodes; racing it against a step of the same node is the
// caller's bug.
func (d *Driver) Halted(v graph.NodeID) bool { return d.s.ctxs[d.s.recv(v)].halted }

// StepList runs the hook of every listed node, in list order, for round t —
// Init when t == 0, Round with the node's current inbox otherwise (valid only
// for the duration of the hook, see Program), nothing for a halted node or
// one asleep with no mail (Ctx.SleepUntil) — and returns the number of hooks
// invoked, the count an engine's step span records. It is the form for an
// engine whose share of the nodes is not a contiguous range — a shard's, a
// cluster worker's local nodes — and borrows the gather buffer once for the
// whole list. A node the engine never lists never runs a hook; listing one a
// subset Driver does not step is the engine's bug. Concurrent StepLists are
// safe for disjoint lists; the engine must barrier before Deliver.
func (d *Driver) StepList(nodes []graph.NodeID, t int) int {
	buf := gatherBufs.Get().(*[]Message)
	stepped := 0
	for _, v := range nodes {
		if d.s.step(int(d.s.recv(v)), t, buf) {
			stepped++
		}
	}
	gatherBufs.Put(buf)
	return stepped
}

// StepRange is StepList over the nodes [lo, hi) in ascending order: the
// range-granular form, and the external statement of the contract ParEngine's
// block cursor schedules under — any cover of [0, n) by disjoint ranges
// between two barriers, whoever steps which, is one execution. Engines built
// on the Driver (a sharded maintainer, a NUMA-pinned pool) get the batched
// shape without re-deriving the loop. On a subset Driver the range's other
// nodes are passed over. Concurrent StepRanges are safe for disjoint ranges;
// the engine must barrier before Deliver.
func (d *Driver) StepRange(lo, hi graph.NodeID, t int) int {
	buf := gatherBufs.Get().(*[]Message)
	stepped := 0
	for v := lo; v < hi; v++ {
		if r := d.s.recv(v); r >= 0 && d.s.step(int(r), t, buf) {
			stepped++
		}
	}
	gatherBufs.Put(buf)
	return stepped
}

// Slot returns the Broadcast node v opened this round with — the message
// sitting in its slot, addressed to every one of Peers(v) — and whether
// there is one (false when v sent nothing, or sent something else first).
// Together with Queued it is the transport tap of the seam: an engine that
// ships a shard's traffic over a real wire (internal/shard, internal/net)
// reads them after the round's Steps and before the Deliver that flushes
// them, so a leading broadcast is seen once, whatever its fan-out. Call
// both only in that window, from a goroutine that is not concurrently
// Stepping v; the Message values (Vec included) are the live send buffers
// and must not be retained or mutated.
func (d *Driver) Slot(v graph.NodeID) (Message, bool) {
	s := d.s
	sl := &s.slots[s.wr+s.sender(v)]
	return sl.m, sl.seq == s.seq
}

// Queued invokes fn for every send of node v's round that is not in its
// slot — each Send, and the per-peer copies of any Broadcast that was not
// the round's first send — in send order, without consuming anything.
func (d *Driver) Queued(v graph.NodeID, fn func(to graph.NodeID, m Message)) {
	s := d.s
	for _, env := range s.outs[s.sender(v)] {
		fn(graph.NodeID(env.to), env.m)
	}
}

// Sends invokes fn for every message node v has sent since the last
// Deliver, in send order, one call per recipient: Slot expanded over
// Peers(v), then Queued.
func (d *Driver) Sends(v graph.NodeID, fn func(to graph.NodeID, m Message)) {
	if m, ok := d.Slot(v); ok {
		for _, to := range d.s.g.Peers(v) {
			fn(to, m)
		}
	}
	d.Queued(v, fn)
}

// Inject is the inbound counterpart of the Slot/Queued tap: it records that
// node from — one this engine does not step, because another worker does —
// sent m this round, exactly where from's own hook would have put it. With
// to < 0 the message is the Broadcast from opened its round with and goes
// into from's slot; otherwise it is one queued send to the neighbor to.
// Injecting a node's Slot and then its Queued sends, in order, reproduces its
// round. What the real hook cannot have produced is refused with an error,
// not a panic — the entries come off a wire: a sender out of range, or one a
// subset Driver cannot hear (no peer among the nodes it steps, so no state
// here), a broadcast that is not the sender's first send of the round (a
// later one travels as its per-peer copies), a recipient that is not a
// neighbor of the sender stepped here.
//
// Call it between the Deliver that closed the previous round and the one
// that closes this one. It touches only from's own slot and queue, so it may
// run concurrently with Injects for other senders and with the steps of the
// round's local nodes; the engine orders all of them before Deliver.
func (d *Driver) Inject(from, to graph.NodeID, m Message) error {
	s := d.s
	if from < 0 || from >= s.g.N() {
		return fmt.Errorf("dist: inject: sender %d out of range [0,%d)", from, s.g.N())
	}
	f := s.sender(from)
	if f < 0 {
		return fmt.Errorf("dist: inject: sender %d has no neighbor among this driver's nodes", from)
	}
	m.From = from
	var vh uint64
	if CheckVecAliasing && len(m.Vec) > 0 {
		vh = vecHash(m.Vec)
	}
	if to >= 0 {
		if to >= s.g.N() || !isPeerOf(s.reach(f), int(s.recv(to))) {
			return fmt.Errorf("dist: inject: node %d is not a neighbor of sender %d", to, from)
		}
		s.queue(f, envelope{to: int32(to), at: s.recv(to), m: m, vh: vh})
		return nil
	}
	if !s.open(f, m, vh) {
		return fmt.Errorf("dist: inject: broadcast of sender %d is not the first send of its round", from)
	}
	return nil
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
