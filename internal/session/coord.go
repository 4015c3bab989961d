package session

import (
	"bytes"
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
// subscription registry. It opens the session over a net.Hub with the hello
// and drives every epoch after it. Not safe for concurrent use — one
// goroutine owns the session.
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
	// spec is the session's hello (Hub.Hello).
	spec net.Spec
	// Crash recovery (DESIGN.md §13): respawn, when set, produces a fresh
	// connection to a restarted worker, lastStamp is the re-admission stamp
	// (the last sealed epoch's; sealed says there is one) and recovered
	// counts the successful recoveries. The receive/respawn discipline
	// itself — stash, generations, the per-worker cap — is the hub's.
	respawn   func(shard, gen int, g *graph.Graph, assign []int) (*net.Conn, error)
	lastStamp codec.Stamp
	sealed    bool
	recovered int64
	// Running totals behind Stat; owned by the session goroutine.
	pushes, rejected    int64
	changed, deltaBytes int64
	notifs, epochMicros int64
	// statp is the lock-free snapshot StatView serves to other goroutines.
	statp atomic.Pointer[codec.Stat]
}

// NewCoordinator opens a session over the hub on graph g placed by assign
// and seals it as epoch 0, which is one exchange like every later epoch:
// every worker gets its hello and answers with its epoch-0 reconverge, the
// β_T of its own shard as changes from +∞, and the coordinator folds them
// and seals only when all P stamps equal the one the fold gives. The hello
// names the inputs: the round budget T every oracle runs, and — for workers
// in other processes; "" in-process — graphSpec, what they rebuild g from
// (cliutil.LoadGraphSpec), and part's name. respawn, when non-nil, restarts
// worker shard as incarnation gen on the sealed graph g and assignment
// assign, and arms crash recovery (DESIGN.md §13.4): a worker that dies
// before epoch 0's seal is respawned and handed the hello again, one that
// dies later is re-admitted at the last sealed epoch. With a nil respawn a
// death breaks the session.
func NewCoordinator(hub *net.Hub, g *graph.Graph, graphSpec string, assign []int, part shard.Partitioner, T int,
	respawn func(shard, gen int, g *graph.Graph, assign []int) (*net.Conn, error)) (*Coordinator, error) {
	p := hub.P()
	if err := checkBase(p, T, g); err != nil {
		return nil, err
	}
	switch {
	case len(assign) != g.N():
		return nil, fmt.Errorf("session: assignment covers %d nodes, graph has %d", len(assign), g.N())
	case part == nil:
		return nil, fmt.Errorf("session: coordinator needs the partitioner for epoch rebalances")
	}
	// Before epoch 0 every value is +∞, what its reconverges change.
	inf := slices.Repeat([]float64{math.Inf(1)}, g.N())
	c := &Coordinator{
		hub: hub, adj: dynamic.NewAdjacency(g), base: g, part: part, p: p,
		assign: slices.Clone(assign), next: slices.Clone(assign),
		b: inf, cur: slices.Clone(inf),
		subs: NewSubManager(), respawn: respawn,
	}
	for _, e := range g.Edges() {
		if !e.IsLoop() {
			c.cut.add(1, c.assign[e.U] != c.assign[e.V])
		}
	}
	c.spec = net.Spec{MaxRounds: T, GraphHash: g.Fingerprint(), PartDigest: shard.PartitionDigest(assign),
		GraphSpec: graphSpec, PartName: part.Name(), ProtoSpec: fmt.Sprintf("session:%d", T)}
	hello := func(w int) error { return c.hub.Hello(c.spec, w) }
	for i := 0; i < p; i++ {
		if err := hello(i); err != nil {
			if err = c.recoverThen(i, err, hello); err != nil {
				return nil, c.fail(0, "hello", faultOf(i, err))
			}
		}
	}
	if _, err := c.seal(0, c.adj.Hash(), shard.PartitionDigest(c.assign), hello); err != nil {
		return nil, err
	}
	c.publishStat()
	return c, nil
}

// checkBase refuses a session before any work: P and T at least 1, and every
// base weight inside the exact-sum contract (DESIGN.md §10.2), which the
// adjacency holds every pushed insert to: each worker's oracle is the
// elimination bit for bit. Open calls it before any worker starts.
func checkBase(p, T int, g *graph.Graph) error {
	if p < 1 || T < 1 {
		return fmt.Errorf("session: a session requires P >= 1 and Rounds >= 1, got %d and %d", p, T)
	}
	for _, e := range g.Edges() {
		if !dynamic.Summable(e.W) {
			return fmt.Errorf("session: edge {%d,%d}: weight %v is not exactly summable: sessions take multiples of 2^-10 no larger than 2^20", e.U, e.V, e.W)
		}
	}
	return nil
}

// Recoveries returns the number of worker crash recoveries this session has
// performed.
func (c *Coordinator) Recoveries() int64 { return c.recovered }

// recoverThen answers a fault of worker w: with recovery armed the worker is
// respawned, re-admitted at the last sealed epoch if there is one, and
// handed again by resend what prompts its reply in the exchange in flight;
// otherwise, or when the re-admission itself fails, the fault stands.
func (c *Coordinator) recoverThen(w int, cause error, resend func(w int) error) error {
	if c.respawn == nil {
		return cause
	}
	if rerr := c.recoverWorker(w); rerr != nil {
		return fmt.Errorf("%v (recovery: %w)", cause, rerr)
	}
	return resend(w)
}

// recoverWorker respawns worker w on the sealed graph and assignment, read
// now — so a recovery mid-epoch-e restores to the sealed epoch e-1, not to
// the adjacency the batch in flight already mutated — and the fresh
// connection replaces the dead one in the hub. Before epoch 0's seal that is
// all: the successor is owed the hello, as its predecessor was. After it, the
// last sealed epoch's stamp goes out on the ordinary stamp record, and the
// worker — having recomputed its state from the sealed graph — must echo it
// byte-identically; it then stands at the last sealed epoch, parked in its
// serve loop. The sealed assignment takes an epoch's moves in place at the
// seal, but the successor has copied it before its echo or its reply, and no
// seal comes before either.
func (c *Coordinator) recoverWorker(w int) error {
	sp := c.trace.Begin(obs.PhaseRecover, c.epoch, w)
	defer sp.End()
	g, assign := c.Graph(), c.assign
	if _, err := c.hub.Respawn(w, func(s, gen int) (*net.Conn, error) { return c.respawn(s, gen, g, assign) }); err != nil {
		return err
	}
	if c.sealed {
		if err := c.readmit(w, c.lastStamp); err != nil {
			return err
		}
	}
	c.recovered++
	c.publishStat()
	return nil
}

// readmit sends a respawned worker w the stamp st and demands its echo.
func (c *Coordinator) readmit(w int, st codec.Stamp) error {
	if err := c.sendTo(w, net.RecValuesDigest, codec.AppendStamp(nil, st)); err != nil {
		return err
	}
	typ, body, err := c.hub.AwaitFrom(w)
	if err != nil {
		return fmt.Errorf("session: re-admitting worker %d: %w", w, err)
	}
	if typ != net.RecValuesDigest {
		return fmt.Errorf("session: worker %d answered resume with record type %d", w, typ)
	}
	echo, err := codec.DecodeStamp(body)
	if err != nil {
		return fmt.Errorf("session: re-admitting worker %d: %w", w, err)
	}
	if echo != st {
		return fmt.Errorf("session: worker %d resume echo %+v, want %+v", w, echo, st)
	}
	return nil
}

// SetTracer installs (or, with nil, removes) the tracer subsequent pushes
// record their epoch and publish spans into.
func (c *Coordinator) SetTracer(t *obs.Tracer) { c.trace = t }

// Push absorbs one delta batch as the next epoch: broadcast, collect every
// worker's reconverge, seal when every worker's stamp equals the one the
// folded changes give, publish notifications. A batch
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
	// The push goes to every worker at once, so none waits for the others to
	// read theirs first; one found dead before the epoch reached it is
	// recovered to the sealed epoch and handed the push again.
	resend := func(w int) error { return c.sendTo(w, net.RecDeltaPush, push) }
	for i, err := range c.broadcast(net.RecDeltaPush, push) {
		if err != nil {
			err = c.recoverThen(i, err, resend)
		}
		if err != nil {
			return nil, c.fail(epoch, "delta-broadcast", faultOf(i, err))
		}
	}
	rep, err := c.seal(epoch, c.adj.Hash(), shard.PartitionDigest(c.next), resend)
	if err != nil {
		return nil, err
	}
	// The sealed graph advances by the batch; it is folded into a fresh CSR
	// only when asked for (Graph), or here once the log has grown to the size
	// of its base — so the log stays O(n+m) and a fold costs O(1) per op it
	// clears.
	c.log = append(c.log, d.Ops...)
	if len(c.log) >= c.base.N()+c.base.M() {
		c.Graph()
	}
	shard.ApplyMoves(c.assign, c.moves)
	c.cut = cut
	rep.Churn = cm
	ep.EndN(int64(len(push)), int64(len(rep.Changed)))
	c.pushes++
	c.changed += int64(len(rep.Changed))
	c.deltaBytes += int64(len(push))
	c.notifs += int64(len(rep.Notifications))
	c.epochMicros += time.Since(sealStart).Microseconds()
	c.publishStat()
	return rep, nil
}

// seal ends the exchange of epoch, whose record every worker has been sent
// (resend sends it to a successor again): it collects every reconverge,
// folds the changes into the scratch vector and seals only when every
// worker's stamp equals the one the fold gives — gh and pd are the graph hash
// and partition digest the coordinator holds for the epoch. Sealed, the
// values and digests are committed and the transition published.
func (c *Coordinator) seal(epoch int, gh, pd uint64, resend func(w int) error) (*EpochReport, error) {
	stamps, all, err := c.collectReconverges(epoch, gh, pd, resend)
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
	// Epoch, graph and partition were held to the coordinator's as each reply
	// landed; what is left to differ is what the fold decides.
	for w, ws := range stamps {
		if ws != st {
			return nil, c.fail(epoch, "reconverge", faultOf(w, fmt.Errorf("session: worker %d stamped epoch %d values %#x, chain %#x, %d changed; coordinator %#x, %#x, %d",
				w, epoch, ws.ValuesDigest, ws.ChainDigest, ws.Changed, vd, chain, len(all))))
		}
	}

	// Sealed: commit, then publish against the committed transition.
	prev := c.b
	c.b, c.cur = c.cur, prev
	c.epoch, c.chain = epoch, chain
	c.gh, c.pd, c.vd = gh, pd, vd
	c.lastStamp, c.sealed = st, true
	pub := c.trace.Begin(obs.PhasePublish, epoch, -1)
	notifs := c.subs.Publish(epoch, prev, c.b, changedNodes(all))
	pub.EndN(0, int64(len(notifs)))
	// Publish keeps neither vector; the old one becomes the next epoch's
	// scratch by the same changes.
	for _, ch := range all {
		c.cur[ch.Node] = math.Float64frombits(ch.NewBits)
	}
	return &EpochReport{
		Epoch: epoch, Changed: all,
		GraphHash: gh, PartDigest: pd, ValuesDigest: vd, ChainDigest: chain,
		Notifications: notifs,
	}, nil
}

// absorb is the coordinator's own half of an epoch: encode the push body the
// workers will decode, hold the batch to that encoding (so what is validated
// and priced is what is broadcast), validate it against the live adjacency
// (which holds every inserted weight to the exact-sum contract), and only
// then mutate — adjacency and rolling hash in place, no CSR — and rebalance on
// the mutated topology, its moves applied to next. An error means nothing was
// touched. The ledger comes back with the cut count the seal commits.
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
	if _, err := c.adj.Apply(decoded); err != nil {
		panic("session: validated delta failed to apply: " + err.Error())
	}
	frontier := shard.Frontier(decoded)
	c.moves = c.part.Rebalance(c.adj, c.p, c.assign, frontier, budget, c.moves)
	shard.ApplyMoves(c.next, c.moves)
	cm, cut = c.ledger(decoded, frontier)
	// The ledger prices the shard delta encoding: the push body less its
	// epoch header.
	cm.DeltaBytes = int64(len(push) - codec.UvarintSize(uint64(epoch)))
	return push, cm, cut, nil
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

// collectReconverges gathers one reconverge per worker, verifying epoch,
// digests, post-rebalance ownership and duplicate-freedom. It returns each
// worker's stamp and the merged change set ascending by node. A worker fault
// mid-collection is recovered inline when recovery is armed: the worker is
// restored to the sealed epoch and resend hands it the epoch's record again.
// Determinism makes its fresh reconverge bit-identical to whatever its dead
// incarnation got out, so one that already replied is held to those bytes,
// and one that had not is checked like any other.
func (c *Coordinator) collectReconverges(epoch int, gh, pd uint64, resend func(w int) error) ([]codec.Stamp, []ValueChange, error) {
	stamps, got := make([]codec.Stamp, c.p), make([][]byte, c.p)
	var all []ValueChange
	owed := c.hub.Everyone()
	w, err := c.hub.Collect(owed, func(from int, typ byte, body []byte) (bool, error) {
		if typ != net.RecReconverge {
			return false, fmt.Errorf("session: worker %d sent record type %d, want reconverge", from, typ)
		}
		if got[from] != nil {
			if !bytes.Equal(body, got[from]) {
				return false, fmt.Errorf("session: worker %d's epoch %d reconverge differs from its dead incarnation's", from, epoch)
			}
			return true, nil
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
		stamps[from], got[from] = r.Stamp, body
		all = append(all, r.Changes...)
		return true, nil
	}, func(w int, cause error) error {
		// Dead before or after its reply, it owes the one its successor sends.
		owed[w] = true
		return c.recoverThen(w, cause, resend)
	})
	if err != nil {
		return nil, nil, faultOf(w, err)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Node < all[j].Node })
	for i := 1; i < len(all); i++ {
		if all[i].Node == all[i-1].Node {
			return nil, nil, fmt.Errorf("session: two workers shipped node %d at epoch %d", all[i].Node, epoch)
		}
	}
	return stamps, all, nil
}

// sendTo writes and flushes one record to worker i (through the hub, so a
// recovery's replacement connection is picked up).
func (c *Coordinator) sendTo(i int, typ byte, body []byte) error {
	if err := c.hub.Send(i, typ, body); err != nil {
		return fmt.Errorf("session: record to worker %d: %w", i, err)
	}
	return nil
}

// broadcast writes and flushes one record to every worker at once (through
// the hub, so a recovery's replacement connection is picked up), with worker
// i's failure, worded as sendTo words it, in slot i.
func (c *Coordinator) broadcast(typ byte, body []byte) []error {
	errs := c.hub.Broadcast(typ, body)
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("session: record to worker %d: %w", i, err)
		}
	}
	return errs
}

// Bye broadcasts a clean goodbye (best-effort; the session is over either
// way).
func (c *Coordinator) Bye() { c.hub.Broadcast(net.RecBye, nil) }

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
