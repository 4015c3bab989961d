package session

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/dynamic"
	"distkcore/internal/graph"
	net "distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/shard"
)

// EpochReport is what one sealed epoch yields at the coordinator: the
// change set, the churn ledger, the four digests and the notifications the
// epoch fired.
type EpochReport struct {
	Epoch int
	// Changed lists every node whose β_T moved, ascending.
	Changed []ValueChange
	// Churn is the placement ledger of the absorbed batch.
	Churn shard.ChurnMetrics
	// The sealed state digests, as stamped.
	GraphHash    uint64
	PartDigest   uint64
	ValuesDigest uint64
	ChainDigest  uint64
	// Notifications are the epoch's subscription firings, in the protocol's
	// deterministic order.
	Notifications []Notification
}

// Stamp returns the epoch's codec.Stamp (what the wire server forwards to
// pushers as a receipt).
func (r *EpochReport) Stamp() codec.Stamp {
	return codec.Stamp{Epoch: r.Epoch, GraphHash: r.GraphHash, PartDigest: r.PartDigest,
		ValuesDigest: r.ValuesDigest, ChainDigest: r.ChainDigest, Changed: len(r.Changed)}
}

// Coordinator is the coordinator side of a live session: the authoritative
// graph, assignment and value vector, the digest chain, and the
// subscription registry. It drives epochs over a net.Hub whose workers have
// already completed their epoch-0 run and entered ServeEpochs. Not safe for
// concurrent use — one goroutine owns the session.
type Coordinator struct {
	hub *net.Hub
	// adj is the live graph, mutated in place as a batch is absorbed (so it
	// runs one epoch ahead of the seal while a Push is in flight). The sealed
	// graph is base — the epoch-0 CSR, or the last fold — plus log, the ops
	// sealed since; Graph folds them.
	adj  *dynamic.Adjacency
	base *graph.Graph
	log  []dist.EdgeOp
	// assign is the sealed assignment; next is the epoch in flight's, equal
	// to assign between epochs. An epoch's moves go into next at rebalance
	// and into assign at commit, so recovery sees only the sealed one.
	assign, next []int
	moves        []shard.Move // the epoch in flight's, ascending by node
	cut          cutCount     // of the sealed graph under assign

	part shard.Partitioner
	p    int
	// b is the sealed value vector; cur is the scratch the epoch in flight
	// folds its changes into. The seal swaps them, and the old vector catches
	// up by the same changes once Publish has read it.
	b, cur []float64
	epoch  int
	chain  uint64
	gh, pd uint64
	vd     uint64
	subs   *SubManager
	broken error
	// trace, when set, records one epoch span per Push plus the publish
	// span (repair/rebalance spans come from the worker side).
	trace *obs.Tracer
	// Crash recovery (DESIGN.md §13), armed by EnableRecovery: respawn
	// produces a fresh connection to a restarted worker, lastStamp is the
	// re-admission stamp (the last sealed epoch's) and recovered counts the
	// successful recoveries. The receive/respawn discipline itself — stash,
	// generations, the per-worker cap — is the hub's.
	respawn   func(shard, gen int) (*net.Conn, error)
	lastStamp codec.Stamp
	recovered int64
	// Running totals behind Stat; owned by the session goroutine.
	pushes, rejected    int64
	changed, deltaBytes int64
	notifs, epochMicros int64
	// statp is the lock-free snapshot StatView serves to other goroutines.
	statp atomic.Pointer[codec.Stat]
}

// NewCoordinator seals epoch 0 over the hub: g, assign and b are the
// epoch-0 run's graph, assignment and assembled value vector (the
// coordinator takes two copies of each, the sealed one and the one the epoch
// in flight writes). It broadcasts the epoch-0
// stamp and collects every worker's verify echo, so a returned Coordinator
// means all P oracles agree with the run bit for bit.
func NewCoordinator(hub *net.Hub, g *graph.Graph, assign []int, part shard.Partitioner, b []float64) (*Coordinator, error) {
	p := hub.P()
	switch {
	case len(assign) != g.N():
		return nil, fmt.Errorf("session: assignment covers %d nodes, graph has %d", len(assign), g.N())
	case len(b) != g.N():
		return nil, fmt.Errorf("session: values cover %d nodes, graph has %d", len(b), g.N())
	case part == nil:
		return nil, fmt.Errorf("session: coordinator needs the partitioner for epoch rebalances")
	}
	c := &Coordinator{
		hub: hub, adj: dynamic.NewAdjacency(g), base: g, part: part, p: p,
		assign: slices.Clone(assign), next: slices.Clone(assign),
		b: slices.Clone(b), cur: slices.Clone(b),
		subs: NewSubManager(),
	}
	for _, e := range g.Edges() {
		if !summable(e.W) {
			return nil, fmt.Errorf("session: edge {%d,%d}: %w", e.U, e.V, errNotSummable(e.W))
		}
		if !e.IsLoop() {
			c.cut.add(1, c.assign[e.U] != c.assign[e.V])
		}
	}
	c.gh, c.pd, c.vd = c.adj.Hash(), shard.PartitionDigest(c.assign), ValuesDigest(c.b)
	c.chain = ChainNext(0, c.gh, c.pd, c.vd)
	st := codec.Stamp{Epoch: 0, GraphHash: c.gh, PartDigest: c.pd, ValuesDigest: c.vd, ChainDigest: c.chain}
	for i := 0; i < p; i++ {
		if err := c.sendTo(i, net.RecValuesDigest, codec.AppendStamp(nil, st)); err != nil {
			return nil, c.fail(0, "stamp-broadcast", faultOf(i, err))
		}
	}
	if err := c.collectEchoes(st, nil, nil); err != nil {
		return nil, c.fail(0, "stamp-echo", err)
	}
	c.lastStamp = st
	c.publishStat()
	return c, nil
}

// EnableRecovery arms session-level crash recovery (DESIGN.md §13): a
// worker fault during an epoch seal is answered by respawning the worker
// and re-admitting it with the last sealed epoch's stamp instead of
// latching the session broken. The respawned worker recomputes its state
// from the current committed graph — sessions run Λ = ℝ with an exact
// incremental oracle, so the recomputation is bit-identical to the state
// the dead worker held — which is why no state ships. respawn is called
// from the session-owning goroutine. Epoch-0 faults (NewCoordinator) stay
// fatal: recovery can only be armed on a sealed session.
func (c *Coordinator) EnableRecovery(respawn func(shard, gen int) (*net.Conn, error)) {
	c.respawn = respawn
}

// Recoveries returns the number of worker crash recoveries this session has
// performed.
func (c *Coordinator) Recoveries() int64 { return c.recovered }

// recoverable reports whether worker death is survivable.
func (c *Coordinator) recoverable() bool { return c.respawn != nil }

// recoverThen answers a fault of worker w: with recovery armed the worker is
// re-admitted at the last sealed epoch and then walked forward by then;
// otherwise, or when the re-admission itself fails, the fault stands.
func (c *Coordinator) recoverThen(w int, cause error, then func() error) error {
	if !c.recoverable() {
		return cause
	}
	if rerr := c.recoverWorker(w); rerr != nil {
		return fmt.Errorf("%v (recovery: %w)", cause, rerr)
	}
	return then()
}

// recoverWorker respawns worker w and re-admits it: the fresh connection
// replaces the dead one in the hub, the last sealed epoch's stamp goes out
// as the resume record, and the worker — having recomputed its state from
// the committed graph — must echo it byte-identically. On return the worker
// stands at the last sealed epoch, parked in its serve loop.
func (c *Coordinator) recoverWorker(w int) error {
	sp := c.trace.Begin(obs.PhaseRecover, c.epoch, w)
	defer sp.End()
	if _, _, err := c.hub.Respawn(w, c.respawn); err != nil {
		return err
	}
	st := c.lastStamp
	if err := c.sendTo(w, net.RecEpochResume, codec.AppendStamp(nil, st)); err != nil {
		return err
	}
	typ, body, err := c.hub.AwaitFrom(w)
	if err != nil {
		return fmt.Errorf("session: re-admitting worker %d: %w", w, err)
	}
	if typ != net.RecValuesDigest {
		return fmt.Errorf("session: worker %d answered resume with record type %d", w, typ)
	}
	echo, _, err := codec.DecodeStamp(body)
	if err != nil {
		return fmt.Errorf("session: re-admitting worker %d: %w", w, err)
	}
	if echo != st {
		return fmt.Errorf("session: worker %d resume echo %+v, want %+v", w, echo, st)
	}
	c.recovered++
	c.publishStat()
	return nil
}

// redoEpoch walks a freshly recovered worker — standing at the last sealed
// epoch — through the in-flight epoch privately: re-send the delta push,
// collect its reconverge (which determinism demands equal the dead
// incarnation's change set bit for bit), and hand it the sealing stamp. Its
// echo then arrives through the ordinary collection.
func (c *Coordinator) redoEpoch(w, epoch int, push []byte, st codec.Stamp, want []ValueChange) error {
	if err := c.sendTo(w, net.RecDeltaPush, push); err != nil {
		return err
	}
	typ, body, err := c.hub.AwaitFrom(w)
	if err != nil {
		return fmt.Errorf("session: redoing epoch %d at worker %d: %w", epoch, w, err)
	}
	if typ != net.RecReconverge {
		return fmt.Errorf("session: worker %d sent record type %d during epoch %d redo, want reconverge", w, typ, epoch)
	}
	r, err := DecodeReconverge(body)
	if err != nil {
		return err
	}
	if r.Epoch != epoch || r.GraphHash != st.GraphHash || r.PartDigest != st.PartDigest {
		return fmt.Errorf("session: worker %d redo reconverge (epoch %d, %#x, %#x) disagrees with seal (epoch %d, %#x, %#x)",
			w, r.Epoch, r.GraphHash, r.PartDigest, epoch, st.GraphHash, st.PartDigest)
	}
	if !slices.Equal(r.Changes, want) {
		return fmt.Errorf("session: worker %d redo shipped %d changes that differ from the dead incarnation's %d", w, len(r.Changes), len(want))
	}
	return c.sendTo(w, net.RecValuesDigest, codec.AppendStamp(nil, st))
}

// SetTracer installs (or, with nil, removes) the tracer subsequent pushes
// record their epoch and publish spans into.
func (c *Coordinator) SetTracer(t *obs.Tracer) { c.trace = t }

// Push absorbs one delta batch as the next epoch: broadcast, collect every
// worker's reconverge, seal with a stamp, publish notifications. A batch
// that fails validation (out-of-range endpoint, delete of a missing edge)
// or an empty one is rejected BEFORE anything is mutated or broadcast — the
// error is returned and the session stays live, graph, hash, assignment and
// epoch untouched, because no worker saw the batch. Any failure after the
// broadcast breaks the session permanently (state may have forked), and
// every later call returns the original error.
func (c *Coordinator) Push(d dist.GraphDelta, moveBudget int) (*EpochReport, error) {
	if c.broken != nil {
		return nil, fmt.Errorf("session: broken by earlier error: %w", c.broken)
	}
	// The epoch's clock and span cover the coordinator's own absorb too; a
	// rejected batch ends neither, so it records no span and no time.
	epoch := c.epoch + 1
	sealStart := time.Now()
	ep := c.trace.Begin(obs.PhaseEpoch, epoch, -1)
	push, cm, cut, err := c.absorb(epoch, d, moveBudget)
	if err != nil {
		c.rejected++
		c.publishStat()
		return nil, fmt.Errorf("session: delta rejected (session still live): %w", err)
	}
	for i := 0; i < c.p; i++ {
		resend := func() error { return c.sendTo(i, net.RecDeltaPush, push) }
		err := resend()
		if err != nil {
			// Dead before the epoch reached it: recover to the sealed epoch
			// and hand it the push again.
			err = c.recoverThen(i, err, resend)
		}
		if err != nil {
			return nil, c.fail(epoch, "delta-broadcast", faultOf(i, err))
		}
	}
	gh, pd := c.adj.Hash(), shard.PartitionDigest(c.next)
	all, byWorker, err := c.collectReconverges(epoch, gh, pd, push)
	if err != nil {
		return nil, c.fail(epoch, "reconverge", err)
	}

	// Fold the changes into the scratch vector; the sealed one stays intact
	// for Publish.
	for _, ch := range all {
		if math.Float64bits(c.b[ch.Node]) != ch.OldBits {
			return nil, c.fail(epoch, "reconverge", fmt.Errorf("session: epoch %d change at node %d claims old bits %#x, coordinator holds %#x",
				epoch, ch.Node, ch.OldBits, math.Float64bits(c.b[ch.Node])))
		}
		c.cur[ch.Node] = math.Float64frombits(ch.NewBits)
	}
	vd := ValuesDigest(c.cur)
	chain := ChainNext(c.chain, gh, pd, vd)
	st := codec.Stamp{Epoch: epoch, GraphHash: gh, PartDigest: pd, ValuesDigest: vd, ChainDigest: chain, Changed: len(all)}
	for i := 0; i < c.p; i++ {
		err := c.sendTo(i, net.RecValuesDigest, codec.AppendStamp(nil, st))
		if err != nil {
			// Dead between its reconverge and the seal: recover to the sealed
			// epoch and redo the in-flight one privately.
			err = c.recoverThen(i, err, func() error { return c.redoEpoch(i, epoch, push, st, byWorker[i]) })
		}
		if err != nil {
			return nil, c.fail(epoch, "stamp-broadcast", faultOf(i, err))
		}
	}
	if err := c.collectEchoes(st, push, byWorker); err != nil {
		return nil, c.fail(epoch, "stamp-echo", err)
	}

	// Sealed: commit, then publish against the committed transition. The
	// sealed graph advances by the batch; it is folded into a fresh CSR only
	// when asked for (Graph), or here once the log has grown to the size of
	// its base — so the log stays O(n+m) and a fold costs O(1) per op it
	// clears.
	c.log = append(c.log, d.Ops...)
	if len(c.log) >= c.base.N()+c.base.M() {
		c.Graph()
	}
	shard.ApplyMoves(c.assign, c.moves)
	prev := c.b
	c.b, c.cur = c.cur, prev
	c.cut = cut
	c.epoch, c.chain = epoch, chain
	c.gh, c.pd, c.vd = gh, pd, vd
	c.lastStamp = st
	pub := c.trace.Begin(obs.PhasePublish, epoch, -1)
	notifs := c.subs.Publish(epoch, prev, c.b, changedNodes(all))
	pub.EndN(0, int64(len(notifs)))
	// Publish keeps neither vector; the old one becomes the next epoch's
	// scratch by the same changes.
	for _, ch := range all {
		c.cur[ch.Node] = math.Float64frombits(ch.NewBits)
	}
	ep.EndN(int64(len(push)), int64(len(all)))
	c.pushes++
	c.changed += int64(len(all))
	c.deltaBytes += int64(len(push))
	c.notifs += int64(len(notifs))
	c.epochMicros += time.Since(sealStart).Microseconds()
	c.publishStat()
	return &EpochReport{
		Epoch: epoch, Changed: all, Churn: cm,
		GraphHash: gh, PartDigest: pd, ValuesDigest: vd, ChainDigest: chain,
		Notifications: notifs,
	}, nil
}

// absorb is the coordinator's own half of an epoch: encode the push body the
// workers will decode, hold the batch to that encoding (so what is validated
// and priced is what is broadcast), validate it against the live adjacency,
// hold every inserted weight to the exact-sum contract, and only then mutate
// — adjacency and rolling hash in place, no CSR — and rebalance on the mutated
// topology, its moves applied to next. An error means nothing was touched.
// The ledger comes back with the cut count the seal commits.
func (c *Coordinator) absorb(epoch int, d dist.GraphDelta, moveBudget int) (push []byte, cm shard.ChurnMetrics, cut cutCount, err error) {
	if len(d.Ops) == 0 {
		return nil, cm, cut, fmt.Errorf("session: empty delta push")
	}
	push = AppendDeltaPush(nil, epoch, moveBudget, d)
	_, budget, decoded, err := DecodeDeltaPush(push)
	if err != nil {
		return nil, cm, cut, fmt.Errorf("session: delta codec round trip failed: %w", err)
	}
	if decoded.Digest() != d.Digest() {
		return nil, cm, cut, fmt.Errorf("session: delta digest changed across the codec round trip")
	}
	if err := c.adj.Validate(decoded); err != nil {
		return nil, cm, cut, err
	}
	for i, op := range decoded.Ops {
		if !op.Del && !summable(op.W) {
			return nil, cm, cut, fmt.Errorf("session: delta op %d: %w", i, errNotSummable(op.W))
		}
	}
	if _, err := c.adj.Apply(decoded); err != nil {
		panic("session: validated delta failed to apply: " + err.Error())
	}
	frontier := shard.Frontier(decoded)
	c.moves = c.part.Rebalance(c.adj, c.p, c.assign, frontier, budget, c.moves)
	shard.ApplyMoves(c.next, c.moves)
	cm, cut = c.ledger(decoded, frontier)
	// The ledger prices the shard delta encoding: the push body less its
	// epoch header.
	cm.DeltaBytes = int64(len(push) - len(binary.AppendUvarint(nil, uint64(epoch))))
	return push, cm, cut, nil
}

// summable is the exact-sum contract of a session (DESIGN.md §10.2), as one
// predicate on an edge weight: a multiple of 2⁻¹⁰ no larger than 2²⁰. Any sum
// of up to 2²³ such weights is exact in a float64 whatever the order, so the
// incremental oracle, the elimination protocol and a fresh run — which add a
// node's arcs in three different orders — agree bit for bit. The coordinator
// holds the base graph's edges and every pushed insert to it; the workers'
// oracle-versus-run comparison at open stays as the cross-check.
func summable(w float64) bool {
	return w >= 0 && w <= 1<<20 && w*(1<<10) == math.Trunc(w*(1<<10))
}

func errNotSummable(w float64) error {
	return fmt.Errorf("weight %v is not exactly summable: sessions take multiples of 2^-10 no larger than 2^20", w)
}

// cutCount is shard.CutFraction in integers, so it can be kept rolling: the
// non-loop edges of a graph and how many of them cross shards.
type cutCount struct{ cut, edges int }

// add counts by (±1) more edges, cut or not.
func (k *cutCount) add(by int, cut bool) {
	k.edges += by
	if cut {
		k.cut += by
	}
}

func (k cutCount) fraction() float64 {
	if k.edges == 0 {
		return 0
	}
	return float64(k.cut) / float64(k.edges)
}

// ledger fills the batch's shard.ChurnMetrics (DeltaBytes aside) exactly as
// shard.RebalanceWithMetrics would on a rebuilt CSR, without walking the
// graph: the sealed cut count moves by the batch's own edges for the "before"
// cut (mutated graph, stale assignment) and by the arcs of the epoch's moves
// for the "after" one. It returns the count under next.
func (c *Coordinator) ledger(d dist.GraphDelta, frontier []graph.NodeID) (shard.ChurnMetrics, cutCount) {
	k := c.cut
	for _, op := range d.Ops {
		if op.U != op.V {
			by := 1
			if op.Del {
				by = -1
			}
			k.add(by, c.assign[op.U] != c.assign[op.V])
		}
	}
	cm := shard.ChurnMetrics{FrontierSize: len(frontier), EdgeCutBefore: k.fraction()}
	// Take the moves one at a time, ascending: when v moves, every mover
	// below it already sits where next puts it, every other node where
	// assign does.
	for _, mv := range c.moves {
		v, from, to := mv.Node, mv.From, mv.To
		deg := c.adj.Degree(v)
		cm.MovedNodes++
		cm.MovedBytes += 8 + 8*int64(deg)
		for i := 0; i < deg; i++ {
			u := c.adj.Neighbor(v, i)
			if u == v {
				continue
			}
			at := c.assign[u]
			if u < v {
				at = c.next[u]
			}
			if at != from {
				k.cut--
			}
			if at != to {
				k.cut++
			}
		}
	}
	cm.EdgeCutAfter = k.fraction()
	return cm, k
}

// collectReconverges gathers one reconverge per worker, verifying digests,
// epoch, post-rebalance ownership and duplicate-freedom. It returns the
// merged change set ascending by node plus each worker's own slice (what a
// stamp-phase recovery redo must reproduce). A worker fault mid-collection
// is recovered inline when recovery is armed: the dead worker's
// contribution — if any — is discarded, the worker restored to the sealed
// epoch, and the push re-sent; its fresh reconverge is bit-identical by
// determinism.
func (c *Coordinator) collectReconverges(epoch int, gh, pd uint64, push []byte) ([]ValueChange, [][]ValueChange, error) {
	byWorker := make([][]ValueChange, c.p)
	owed := c.hub.Everyone()
	w, err := c.hub.Collect(owed, func(from int, typ byte, body []byte) (bool, error) {
		if typ != net.RecReconverge {
			return false, fmt.Errorf("session: worker %d sent record type %d, want reconverge", from, typ)
		}
		r, err := DecodeReconverge(body)
		if err != nil {
			return false, err
		}
		switch {
		case r.Epoch != epoch:
			return false, fmt.Errorf("session: worker %d reconverged epoch %d, want %d", from, r.Epoch, epoch)
		case r.GraphHash != gh:
			return false, fmt.Errorf("session: worker %d epoch %d graph hash %#x, coordinator %#x", from, epoch, r.GraphHash, gh)
		case r.PartDigest != pd:
			return false, fmt.Errorf("session: worker %d epoch %d partition digest %#x, coordinator %#x", from, epoch, r.PartDigest, pd)
		}
		for _, ch := range r.Changes {
			if ch.Node < 0 || ch.Node >= len(c.next) {
				return false, fmt.Errorf("session: worker %d shipped change for node %d of %d", from, ch.Node, len(c.next))
			}
			if c.next[ch.Node] != from {
				return false, fmt.Errorf("session: worker %d shipped change for node %d owned by shard %d", from, ch.Node, c.next[ch.Node])
			}
		}
		byWorker[from] = r.Changes
		return true, nil
	}, func(w int, cause error) error {
		// Whether it died before or after reconverging, drop its set and let
		// the recovered worker reproduce it, so one path covers both orders.
		byWorker[w], owed[w] = nil, true
		return c.recoverThen(w, cause, func() error { return c.sendTo(w, net.RecDeltaPush, push) })
	})
	if err != nil {
		return nil, nil, faultOf(w, err)
	}
	var all []ValueChange
	for _, chs := range byWorker {
		all = append(all, chs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Node < all[j].Node })
	for i := 1; i < len(all); i++ {
		if all[i].Node == all[i-1].Node {
			return nil, nil, fmt.Errorf("session: two workers shipped node %d at epoch %d", all[i].Node, epoch)
		}
	}
	return all, byWorker, nil
}

// sendTo writes and flushes one record to worker i (through the hub, so a
// recovery's replacement connection is picked up).
func (c *Coordinator) sendTo(i int, typ byte, body []byte) error {
	if err := c.hub.Send(i, typ, body); err != nil {
		return fmt.Errorf("session: record to worker %d: %w", i, err)
	}
	return nil
}

// collectEchoes demands every worker's byte-identical stamp echo. With
// recovery armed (push non-nil), a worker fault is answered by recovering
// the worker and walking it through a private epoch redo; its echo then
// arrives like everyone else's.
func (c *Coordinator) collectEchoes(want codec.Stamp, push []byte, byWorker [][]ValueChange) error {
	owed := c.hub.Everyone()
	w, err := c.hub.Collect(owed, func(from int, typ byte, body []byte) (bool, error) {
		if typ != net.RecValuesDigest {
			return false, fmt.Errorf("session: worker %d sent record type %d, want stamp echo", from, typ)
		}
		st, _, err := codec.DecodeStamp(body)
		if err != nil {
			return false, err
		}
		if st != want {
			return false, fmt.Errorf("session: worker %d echoed %+v, want %+v", from, st, want)
		}
		return true, nil
	}, func(w int, cause error) error {
		if push == nil {
			return cause
		}
		// Even one that echoed and then died must be re-admitted for the
		// epochs to come, and the redo makes it echo again.
		owed[w] = true
		return c.recoverThen(w, cause, func() error { return c.redoEpoch(w, want.Epoch, push, want, byWorker[w]) })
	})
	return faultOf(w, err)
}

// Bye broadcasts a clean goodbye (best-effort; the session is over either
// way).
func (c *Coordinator) Bye() {
	for i := 0; i < c.p; i++ {
		_ = c.sendTo(i, net.RecBye, nil)
	}
}

// Err returns the error that broke the session, nil while it is live. A
// break from a seal in flight is a *BreakCause carrying the epoch, phase
// and implicated worker (Cause unpacks it).
func (c *Coordinator) Err() error { return c.broken }

// Epoch returns the last sealed epoch.
func (c *Coordinator) Epoch() int { return c.epoch }

// ChainDigest returns the chain digest of the last sealed epoch.
func (c *Coordinator) ChainDigest() uint64 { return c.chain }

// Digests returns the last sealed epoch's (graph, partition, values)
// digests.
func (c *Coordinator) Digests() (graphHash, partDigest, valuesDigest uint64) {
	return c.gh, c.pd, c.vd
}

// Values returns a copy of the current value vector.
func (c *Coordinator) Values() []float64 { return append([]float64(nil), c.b...) }

// Graph returns the sealed graph as an immutable CSR: the last fold plus the
// ops sealed since, folded now by ONE dist.GraphDelta.Apply over their
// concatenation — canonical edge order and Fingerprint exactly as if every
// epoch had been applied on its own. It is what a respawned worker rebuilds
// its oracle from (DESIGN.md §13.4); a batch in flight is not in it.
func (c *Coordinator) Graph() *graph.Graph {
	if len(c.log) > 0 {
		g, err := dist.GraphDelta{Ops: c.log}.Apply(c.base)
		if err != nil {
			panic("session: sealed ops do not apply to their base: " + err.Error())
		}
		c.base, c.log = g, c.log[:0]
	}
	return c.base
}

// Subs exposes the subscription registry.
func (c *Coordinator) Subs() *SubManager { return c.subs }
