// Package dist is the message-passing runtime the distributed algorithms of
// the paper run on. It deliberately exposes a very small surface, fixed by
// its call sites in internal/core and internal/densest: a Program (per-node
// state machine with Init and Round hooks), a Ctx handed to every hook
// (topology queries plus Broadcast/Send/Halt), and an Engine that drives all
// n programs in lock-step rounds. This package provides SeqEngine, a
// deterministic single-threaded scheduler, and ParEngine, a worker pool (W
// workers, the caller among them, pulling a round's nodes off one cursor; one
// barrier per broadcast-only round, a deterministic parallel inbox fill on the
// others — see par.go and DESIGN.md §12). Engines outside the package register
// through the same interface by building on Driver, which exposes the shared
// step/deliver machinery without giving up the determinism contract:
// internal/shard (P worker goroutines, batched cross-shard frames) and
// internal/net (coordinator plus P workers over real connections). Both read
// their nodes' sends through the Slot/Queued tap; a net worker builds its
// Driver over its own nodes and the ones they can hear (NewSubsetDriver) and
// writes the other workers' sends back in through Inject — no hook runs, and
// no Program exists, there for a node it does not own. All engines produce
// byte-identical executions, so every protocol property can be tested on the
// cheap engine and trusted on a cluster. Asynchrony is a protocol matter, not
// an engine's: core.RunAsyncElimination delays its values in the program.
//
// Timing model (the LOCAL/Congest model of Section II of the paper): Init
// runs at round 0; a message sent during round t is delivered at the start of
// round t+1; Round(c, inbox) is called once per round on every node that has
// not halted, whether or not its inbox is empty — unless the node asked, with
// Ctx.SleepUntil, not to be called on an empty one for a while (the sleep
// contract, DESIGN.md §3). A
// round costs what was said in it: a node asleep with no mail costs an offset
// compare, and a round in which few spoke lists its speakers per receiver
// instead of having every receiver look at every neighbor (DESIGN.md §7).
// Silence is legal: an inbox holds the previous round's sends and nothing
// older, and a round in which nobody sends is delivered and followed like any
// other. The inbox is ordered by sender ID (ties by send order), which is
// what makes all engines agree execution-for-execution.
//
// Communication accounting (Metrics.Words, Metrics.WireBytes) flows through
// internal/quantize and internal/codec so that the Congest-model bandwidth
// claims are measurable — see wire.go and experiment E6.
package dist

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"distkcore/internal/graph"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
)

// Message is the unit of communication between neighboring nodes. The
// payload fields are protocol-defined: Kind tags the message type in
// multi-phase protocols, I0 carries one integer (a node ID, a slot index),
// F0 carries one scalar (a surviving number), and Vec carries a vector
// payload (tree aggregation arrays). From is stamped by the runtime on
// send; programs never set it.
//
// Receivers must treat a Message — including Vec, which Broadcast shares
// across all recipients — as read-only.
type Message struct {
	Kind uint8
	From graph.NodeID
	I0   int
	F0   float64
	Vec  []float64
}

// Words returns the number of payload words the message occupies: one for
// the scalar slot (Kind/From/I0 are O(log n)-bit addressing overhead,
// accounted separately by the wire codec) plus one per Vec entry. Summed
// into Metrics.Words, so that Words × quantize.Lambda.Bits bounds the
// protocol's information volume.
func (m Message) Words() int { return 1 + len(m.Vec) }

// Metrics reports the communication cost of a synchronous run.
type Metrics struct {
	// Rounds is the number of rounds executed (Init is round 0 and is not
	// counted).
	Rounds int
	// Messages counts point-to-point messages: a Broadcast to d distinct
	// neighbors counts d. It counts what the protocol chose to say: the
	// elimination program re-sends a value only in the rounds it moved
	// (DESIGN.md §2), so its count follows the value trajectories and the
	// paper's every-round T·Σ|Peers(v)| is its upper bound.
	Messages int64
	// Words counts transmitted payload words (Message.Words per message).
	Words int64
	// WireBytes is the concrete wire volume of the run under the engine's
	// threshold set (internal/codec encoding; Λ = ℝ when unset).
	WireBytes int64
	// Halted reports whether every node halted before the round budget ran
	// out (false means the engine cut the run off at maxRounds).
	Halted bool
}

// Program is the code one node runs in a synchronous protocol. The runtime
// calls Init once at round 0 and then Round once per round t = 1, 2, ...
// with the messages sent to this node during round t-1, until the program
// calls Ctx.Halt or the engine's round budget runs out. Those messages and no
// others: a neighbor that sent nothing in round t-1 is absent from the inbox,
// the inbox may be empty, and the hook runs all the same — whether there is
// anything to compute is the program's decision, and what a neighbor said
// earlier is the program's to remember (core.ElimState). A program that knows
// it has nothing to do until somebody speaks says so with Ctx.SleepUntil and
// is not called on an empty inbox until then.
//
// inbox is valid only for the duration of the Round call: after a
// broadcast-only round it is a scratch buffer of the stepping goroutine,
// overwritten for the next node (DESIGN.md §7). A program that needs a
// message later copies it out — the Message value, and the Vec it points
// to if it must outlive the next delivery. CheckInboxRetention makes a
// violation fail in tests.
type Program interface {
	Init(*Ctx)
	Round(c *Ctx, inbox []Message)
}

// Factory builds the Program of node v; an Engine calls it once per node.
type Factory func(v graph.NodeID) Program

// Engine executes a synchronous protocol: it instantiates one Program per
// node of g via factory and drives them for at most maxRounds rounds,
// delivering messages between rounds. Implementations must be
// deterministic: the same (g, protocol, maxRounds) yields the same
// execution and the same Metrics. Run returns only once no hook of the run
// can still execute — none running, none to come, a dead worker
// incarnation's included — so the caller may reuse what the programs
// worked on as soon as it returns (core.Slab.Release). SeqEngine and
// net.Worker step on the calling goroutine; ParEngine joins its pool, and
// shard.Engine's shard goroutines have passed their last phase barrier, before
// either returns; net.Engine waits for every worker incarnation in
// Cluster.Close.
type Engine interface {
	Run(g *graph.Graph, factory Factory, maxRounds int) Metrics
	// WithWireLambda returns a copy of the engine whose Metrics.WireBytes
	// prices transmitted values under lam (nil means Λ = ℝ). Protocol
	// drivers call it with the threshold set the protocol actually rounds
	// to, so value rounding and wire pricing cannot diverge.
	WithWireLambda(lam quantize.Lambda) Engine
}

// envelope is a queued outgoing message: every send of a node's round except
// a leading Broadcast, which lives in the node's slot instead. to is the
// recipient's ID — what the tap reports — and at its index among the sim's
// receivers (the same number on the whole graph), -1 for a recipient another
// sim steps; the two share one word. vh caches the hash of m.Vec at send time
// when CheckVecAliasing is on (0 otherwise).
type envelope struct {
	to, at int32
	m      Message
	vh     uint64
}

// slot is a sender's broadcast slot: the message its round opened with, if
// that was a Broadcast, written once instead of once per peer. seq is the
// delivery sequence number of the round that wrote it (0 = never), so a
// stale slot is told from a fresh one without clearing anything between
// rounds.
type slot struct {
	m   Message
	seq uint32
	// shut is the stamp of a round in which the sender queued a send before
	// any Broadcast: its slot stays empty for that round (Broadcast writes the
	// slot only as the round's first send), and knowing so takes no look at
	// the queue.
	shut uint32
}

// CheckVecAliasing enables an integrity check on shared Vec payloads in the
// engines' deliver path. Broadcast hands the SAME Vec slice to every
// recipient, guarded only by the read-only contract on Message; with the
// check on, the runtime hashes each Vec at send time and again after the
// receivers' hooks have run, and panics if any program mutated it — so a
// protocol that violates the contract fails loudly instead of silently
// corrupting sibling inboxes. A broadcast slot is hashed once, not once per
// recipient. Set it before Run and do not toggle it while an engine is
// running (the parallel engines read it concurrently). It is meant for
// tests; the default build pays one branch per send.
var CheckVecAliasing bool

// CheckInboxRetention makes the runtime overwrite a node's inbox with
// poison messages (Kind 0xFF, From -1, NaN) the moment its Round hook
// returns, so a program that keeps the slice — or a pointer into it — past
// the call, against the Program contract, reads garbage and fails its
// equivalence test instead of depending on which delivery path the round
// took. Same rules as CheckVecAliasing: tests only, set before Run.
var CheckInboxRetention bool

// vecHash is a word-granular FNV-1a variant over the float bit patterns of
// v: each Float64bits word is folded in with one xor and one multiply by the
// 64-bit FNV prime, instead of the byte-at-a-time inner loop (8× fewer
// multiplies on the CheckVecAliasing hot path). The exact values are pinned
// by TestVecHashPinned so the aliasing panics stay deterministic across
// builds.
func vecHash(v []float64) uint64 {
	h := uint64(1469598103934665603)
	for _, x := range v {
		h = (h ^ math.Float64bits(x)) * 1099511628211
	}
	return h
}

// vecCheck is one delivered Vec awaiting verification at the next deliver.
type vecCheck struct {
	vec []float64
	h   uint64
}

// Ctx is a node's handle on the runtime, passed to every Program hook. It
// is only valid during the hook invocation that received it; the slices it
// returns are shared and must not be modified.
type Ctx struct {
	id    graph.NodeID
	peers []graph.NodeID // distinct neighbors, self excluded, ascending
	// hear is peers as the runtime reads them: each one's index among the
	// sim's senders, which is what the gather walks. On the whole graph an
	// index is an ID and this is peers again.
	hear []graph.NodeID

	sim    *sim
	round  int32 // with wake in one word: n contexts are the run's largest array
	wake   int32 // SleepUntil's round; 0 once a Round hook has been invoked
	halted bool
	ix     int32 // the node's index among the sim's senders: id on the whole graph
}

// ID returns the node this context belongs to.
func (c *Ctx) ID() graph.NodeID { return c.id }

// Neighbors returns the node's adjacency list: one Arc per incident edge
// (parallel edges appear once each, a self-loop appears once with
// To == ID()).
func (c *Ctx) Neighbors() []graph.Arc { return c.sim.g.Adj(c.id) }

// Round returns the current round number: 0 during Init, t during the
// round-t invocation of Round.
func (c *Ctx) Round() int { return int(c.round) }

// Broadcast sends m to every distinct neighbor (self excluded — a
// self-loop is local state, not a communication link). Delivery happens at
// the start of the next round.
//
// When it is the node's first send of the round the message is written to
// the node's slot — once, whatever the fan-out — and the receivers read it
// from there; any later send of the same round is queued per recipient
// behind it, which keeps each receiver's view in send order.
func (c *Ctx) Broadcast(m Message) {
	m.From = c.id
	var vh uint64
	if CheckVecAliasing && len(m.Vec) > 0 {
		vh = vecHash(m.Vec)
	}
	s, ix := c.sim, int(c.ix)
	if s.open(ix, m, vh) {
		return
	}
	s.noteQueued()
	out := slices.Grow(s.outs[ix], len(c.peers))
	for _, p := range c.peers {
		out = append(out, envelope{to: int32(p), at: s.recv(p), m: m, vh: vh})
	}
	s.outs[ix] = out
}

// Send sends m to the neighbor `to`. Sending to a non-neighbor (or to
// itself) panics: the LOCAL model has no routing.
func (c *Ctx) Send(to graph.NodeID, m Message) {
	if !isPeerOf(c.peers, to) {
		panic("dist: Send target is not a neighbor")
	}
	m.From = c.id
	var vh uint64
	if CheckVecAliasing && len(m.Vec) > 0 {
		vh = vecHash(m.Vec)
	}
	s := c.sim
	s.queue(int(c.ix), envelope{to: int32(to), at: s.recv(to), m: m, vh: vh})
}

// Peers returns the node's distinct neighbors, self excluded, ascending —
// the recipients of Broadcast. The slice is shared topology state; the
// caller must not modify it.
func (c *Ctx) Peers() []graph.NodeID { return c.peers }

// Halt marks the node as terminated: its Round hook will not be called
// again and messages addressed to it are dropped. Messages it sent during
// the halting round are still delivered. The runtime retires the node at
// the next delivery, maintaining the alive count incrementally (no per-round
// rescan; the counter is atomic because the parallel engines run hooks —
// and therefore Halts — concurrently).
func (c *Ctx) Halt() {
	if !c.halted {
		c.halted = true
		c.sim.haltedNow.Add(1)
	}
}

// SleepUntil asks the runtime not to invoke this node's Round hook on an empty
// inbox before round t: the program's promise that until then such a call
// would send nothing and change nothing (DESIGN.md §3). Any message wakes the
// node in the round it arrives, with that inbox; every Round invocation clears
// the request, so a program that wants to sleep on asks again. t at or before
// the next round asks for nothing.
func (c *Ctx) SleepUntil(t int) { c.wake = int32(t) }

// Mutex returns a mutex shared by all nodes of the run, for guarding
// writes to a result sink from program hooks. (The parallel engine runs
// hooks concurrently; per-node state needs no locking, shared sinks do.)
func (c *Ctx) Mutex() *sync.Mutex { return &c.sim.mu }

// isPeerOf reports membership in a sorted distinct-peer list (the
// graph.Peers shape).
func isPeerOf(peers []graph.NodeID, v graph.NodeID) bool {
	i := sort.SearchInts(peers, v)
	return i < len(peers) && peers[i] == v
}

// sim is the engine-shared state of one synchronous run: contexts, mailboxes
// and metrics. The built-in engines are thin schedulers over it (external
// engines reach it through Driver); a delivery is the single place metrics
// accumulate, and its sequential glue always runs on one goroutine (between
// barriers in the concurrent engines), which is what keeps every engine
// execution-identical.
//
// Mailboxes (DESIGN.md §7). A round's leading Broadcast sits in its sender's
// slot; everything else sits in the senders' queues. What a delivery does
// with them depends only on what the round's hooks called:
//
//   - pull: no queue was touched and no transport hook is installed. Nothing
//     moves. Each fresh slot is priced once × its fan-out, and node v's
//     inbox is gathered from the slots of Peers(v) right before its hook
//     runs (inbox) — ascending sender order for free, since Peers is
//     ascending and a slot holds one message. When few spoke the delivery
//     also lists, per receiver, the senders whose slot is fresh
//     (listSpeakers), and the gather walks that list instead of Peers(v).
//   - scatter: anything else. Every message — slot × peers first, then the
//     queue, per sender in ascending ID — is counted, then placed into one
//     round arena, and inboxOf(v) is a subslice of it.
//
// Slots are double-buffered: round k's hooks write half k&1 while they read
// the half round k-1 wrote, so concurrent steppers never meet on a slot.
//
// Receivers and senders (DESIGN.md §7, §8.5). The sim keeps two kinds of
// per-node state: a receiver's — the nodes whose hooks run here: Program, Ctx,
// inbox offsets, count scratch — and a sender's — the nodes whose sends can
// reach a receiver: the slot pair and the queue. On the whole graph every node
// is both and either index is its ID. A sim over a subset (newSubsetSim: a
// cluster worker's) has the subset for receivers and, for senders, the subset
// and the nodes with a peer in it, which it only hears: their slots and
// queues are written by Driver.Inject, nothing else of them exists here, and
// the rest of the graph has no state at all. Both numberings are positions in
// ascending ID, so every walk below still meets senders in ascending ID and
// the delivery order is the whole graph's, restricted.
type sim struct {
	g   *graph.Graph
	lam quantize.Lambda

	// Per receiver. A Ctx carries whom its node hears: the sender indices of
	// its Peers, ascending (Ctx.hear; the gather walks it).
	progs []Program
	ctxs  []Ctx

	// Per sender. reach is hear transposed, in CSR form: the receiver indices
	// among a sender's Peers, ascending — whom a Broadcast of its is placed
	// for (the scatter and the listing walk it). On the whole graph it is the
	// graph's own Peers storage, and so is every hear. stepOf is the sender's
	// receiver index, -1 for one only heard; nil on the whole graph.
	slots    []slot       // 2 per sender: the two halves of its slot
	outs     [][]envelope // a sender's queued sends this round; grown on first use
	reachOff []int32
	reachIx  []graph.NodeID
	stepOf   []int32

	// ix finds a node by ID at the Driver's surface and for Ctx.Send: its
	// receiver index, -2 minus its sender index for a node only heard, -1 for
	// one with no state here. nil on the whole graph.
	ix []int32

	slotVH []uint64 // send-time Vec hash per slot; nil unless CheckVecAliasing
	seq    uint32   // stamp of the round being stepped: deliveries done + 1
	wr, rd int      // offsets of the half being written / read
	queued atomic.Bool
	// pull records that the last delivery moved nothing: inboxes come from
	// slots[rd:]. listed adds that it was sparse enough to list its speakers:
	// receiver v's fresh senders are speakers[inboxOff[v]:inboxOff[v+1]].
	pull, listed bool
	speakers     []int32
	sumPeers     int64 // Σ |hear| over the receivers, what a round in which everyone broadcasts places

	inboxArena []Message // the last scatter's inboxes, sized by its counting pass
	inboxOff   []int32   // one offset per receiver and the end, into inboxArena or into speakers
	cnt        []int32   // per-receiver counting/cursor scratch, zero between rounds

	alive     int
	haltedNow atomic.Int32 // Halts since the last delivery retired them
	mu        sync.Mutex
	met       Metrics
	vecChecks []vecCheck // delivered Vecs awaiting verification (CheckVecAliasing)

	// mem holds the arrays above that the sim sized by its node counts; a
	// Driver's comes off the free list and goes back to it on Release (mem.go).
	mem *simMem
}

// newSim builds the sim of a run over the whole of g, in memory off the free
// list.
func newSim(g *graph.Graph, lam quantize.Lambda, factory Factory) *sim {
	n := g.N()
	s := &sim{g: g, lam: lam, mem: takeMem(simShape{receivers: n, senders: n})}
	s.reachOff, s.reachIx = g.PeerCSR()
	s.alloc(n, n)
	for v := range s.ctxs {
		s.seat(v, v, v, factory)
		s.ctxs[v].hear = s.ctxs[v].peers
	}
	return s
}

// newSubsetSim is newSim with the nodes own (ascending, distinct) for
// receivers: factory runs for them only, and what the sim sizes follows their
// number, their degrees and the number of nodes they can hear — except ix,
// four bytes a node of g, the price of finding a node by its ID in O(1).
func newSubsetSim(g *graph.Graph, lam quantize.Lambda, own []graph.NodeID, factory Factory) *sim {
	// The shape first — who can be heard is marked in a bitmap — so that the
	// free list is searched for memory that fits it.
	n := g.N()
	marked := make([]uint64, (n+63)/64)
	for i, v := range own {
		if i > 0 && own[i-1] >= v {
			panic("dist: subset nodes must be ascending and distinct")
		}
		marked[v/64] |= 1 << (v % 64)
	}
	senders, links := len(own), 0
	for _, v := range own {
		peers := g.Peers(v)
		links += len(peers)
		for _, p := range peers {
			if w, b := &marked[p/64], uint64(1)<<(p%64); *w&b == 0 {
				*w |= b
				senders++
			}
		}
	}
	mem := takeMem(simShape{receivers: len(own), senders: senders, links: links, nodes: n})
	s := &sim{g: g, lam: lam, mem: mem}
	s.alloc(len(own), senders)
	s.ix, s.stepOf = take(&mem.ix, n), take(&mem.stepOf, senders)
	r, i := 0, 0
	for v := range s.ix {
		switch {
		case r < len(own) && own[r] == v:
			s.seat(r, i, v, factory)
			s.ix[v], s.stepOf[i] = int32(r), int32(r)
			r++
		case marked[v/64]&(1<<(v%64)) != 0:
			s.ix[v], s.stepOf[i] = int32(-2-i), -1
		default:
			s.ix[v] = -1
			continue
		}
		i++
	}
	// hear, receiver by receiver, counting each sender's row of reach on the
	// way; then reach, hear transposed: row sizes to row starts, and a fill in
	// ascending receiver order — which leaves every row ascending — that uses
	// each row's start as its cursor and so leaves the starts one row ahead,
	// where the copy shifts them back from.
	hear := take(&mem.hear, links)[:0]
	s.reachOff, s.reachIx = take(&mem.rowOff, senders+1), take(&mem.rows, links)
	for r := range s.ctxs {
		c, lo := &s.ctxs[r], len(hear)
		for _, p := range c.peers {
			i := s.sender(p)
			hear = append(hear, i)
			s.reachOff[i+1]++
		}
		c.hear = hear[lo:len(hear):len(hear)]
	}
	for i := 0; i < senders; i++ {
		s.reachOff[i+1] += s.reachOff[i]
	}
	for r := range s.ctxs {
		for _, i := range s.ctxs[r].hear {
			s.reachIx[s.reachOff[i]] = r
			s.reachOff[i]++
		}
	}
	copy(s.reachOff[1:], s.reachOff)
	s.reachOff[0] = 0
	return s
}

// alloc sizes the per-node arrays, in the sim's memory, and opens round 0.
func (s *sim) alloc(receivers, senders int) {
	m := s.mem
	s.progs = take(&m.progs, receivers)
	s.ctxs = take(&m.ctxs, receivers)
	s.inboxOff = take(&m.inboxOff, receivers+1)
	s.cnt = take(&m.cnt, receivers)
	s.slots = take(&m.slots, 2*senders)
	s.outs = keep(&m.outs, senders)
	s.inboxArena, s.speakers = m.arena[:0], m.speakers[:0]
	s.seq, s.wr, s.alive = 1, senders, receivers
	if s.lam == nil {
		s.lam = quantize.Reals{}
	}
	if CheckVecAliasing {
		s.slotVH = make([]uint64, 2*senders)
	}
}

// seat makes receiver r, sender i, the node v.
func (s *sim) seat(r, i int, v graph.NodeID, factory Factory) {
	peers := s.g.Peers(v)
	s.ctxs[r] = Ctx{id: v, peers: peers, sim: s, ix: int32(i)}
	s.sumPeers += int64(len(peers))
	s.progs[r] = factory(v)
}

// reach returns the receivers sender i reaches.
func (s *sim) reach(i int) []graph.NodeID { return s.reachIx[s.reachOff[i]:s.reachOff[i+1]] }

// recv returns node v's receiver index, -1 when no hook runs for it here.
func (s *sim) recv(v graph.NodeID) int32 {
	if s.ix == nil {
		return int32(v)
	}
	return max(s.ix[v], -1)
}

// sender returns node v's sender index, -1 when the sim cannot hear it.
func (s *sim) sender(v graph.NodeID) int {
	if s.ix == nil {
		return v
	}
	k := int(s.ix[v])
	if k >= 0 {
		return int(s.ctxs[k].ix)
	}
	return -2 - k // -1 stays -1
}

// stepped reports whether sender i is a node the sim steps, not one it only
// hears.
func (s *sim) stepped(i int) bool { return s.stepOf == nil || s.stepOf[i] >= 0 }

// open puts m in sender i's slot if it is the sender's first send of the
// round, and reports whether it did.
func (s *sim) open(i int, m Message, vh uint64) bool {
	sl := &s.slots[s.wr+i]
	if sl.seq == s.seq || sl.shut == s.seq {
		return false
	}
	sl.m, sl.seq = m, s.seq
	if s.slotVH != nil {
		s.slotVH[s.wr+i] = vh
	}
	return true
}

// queue appends one send of sender i, behind whatever the sender has already
// sent this round.
func (s *sim) queue(i int, env envelope) {
	s.noteQueued()
	if sl := &s.slots[s.wr+i]; sl.seq != s.seq {
		sl.shut = s.seq
	}
	s.outs[i] = append(s.outs[i], env)
}

// noteQueued records that this round needs a scatter. Hooks run concurrently
// in the parallel engines; after the first store the flag's cache line stays
// shared, so a Send-heavy round does not bounce it between workers.
func (s *sim) noteQueued() {
	if !s.queued.Load() {
		s.queued.Store(true)
	}
}

// gatherBufs recycles the stepping goroutines' gather buffers across
// Driver.StepList/StepRange calls and across runs.
var gatherBufs = sync.Pool{New: func() any { return new([]Message) }}

// inboxOf returns receiver v's inbox in the round arena of the last scatter
// (empty before the first one).
func (s *sim) inboxOf(v int) []Message {
	return s.inboxArena[s.inboxOff[v]:s.inboxOff[v+1]]
}

// inbox returns node v's inbox for the round being stepped: its slice of the
// arena after a scatter, or — after a pull delivery — the fresh slots of
// Peers(v) gathered into *buf, the calling goroutine's scratch: found by
// walking Peers(v), or read off v's speaker list when the delivery made one,
// where no mail is an offset compare. Either way the result is only good
// until the caller steps its next node.
func (s *sim) inbox(v int, buf *[]Message) []Message {
	if !s.pull {
		return s.inboxOf(v)
	}
	if s.listed {
		from := s.speakers[s.inboxOff[v]:s.inboxOff[v+1]]
		if len(from) == 0 {
			return nil
		}
		b, rd := gatherBuf(buf, len(from)), s.slots[s.rd:]
		for k, p := range from {
			b[k] = rd[p].m
		}
		return b
	}
	peers, rd := s.ctxs[v].hear, s.slots[s.rd:]
	b := gatherBuf(buf, len(peers))
	fresh, k := s.seq-1, 0
	for _, p := range peers {
		if sl := &rd[p]; sl.seq == fresh {
			b[k] = sl.m
			k++
		}
	}
	return b[:k]
}

// gatherBuf returns *buf resized to n messages, growing it geometrically.
func gatherBuf(buf *[]Message, n int) []Message {
	if cap(*buf) < n {
		*buf = make([]Message, max(n, 2*cap(*buf)))
	}
	return (*buf)[:n]
}

// round runs node v's Round hook for round t on its inbox. The caller has
// checked that v is not halted.
func (s *sim) round(v, t int, inbox []Message) {
	c := &s.ctxs[v]
	c.round = int32(t)
	s.progs[v].Round(c, inbox)
	if CheckInboxRetention {
		for i := range inbox {
			inbox[i] = Message{Kind: 0xFF, From: -1, I0: -1, F0: math.NaN()}
		}
	}
}

// step runs node v's hook for round t — Init at t == 0 — and reports whether
// a hook ran: false for a halted node, and for one asleep (Ctx.SleepUntil)
// with no mail. Every engine steps through here, so the sleep contract is
// decided once.
func (s *sim) step(v, t int, buf *[]Message) bool {
	c := &s.ctxs[v]
	if c.halted {
		return false
	}
	if t == 0 {
		s.progs[v].Init(c)
		return true
	}
	inbox := s.inbox(v, buf)
	if len(inbox) == 0 && t < int(c.wake) {
		return false
	}
	c.wake = 0
	s.round(v, t, inbox)
	return true
}

// RouteFunc is the transport hook of Driver.Deliver: the engine's delivery
// loop calls it once per message, in the deterministic global delivery
// order (ascending sender ID, ties in send order), and places the returned
// message in the receiver's inbox. A transport may transform the message in
// flight — round-trip it through a wire codec, say — as long as the result
// is semantically identical; it is called even for messages whose receiver
// has already halted (a real transport ships them before learning that),
// though those are then dropped. A delivery with a hook is always a scatter,
// one call per copy; the cluster engines of this repo tap the senders
// instead (Driver.Slot, Driver.Queued) and Deliver(nil).
type RouteFunc func(from, to graph.NodeID, m Message) Message

// traceDeliver is deliver wrapped in a deliver span whose byte and message
// counts are the delivery's own Metrics deltas — the tracer records exactly
// the numbers the run accounted, nothing recomputed.
func (s *sim) traceDeliver(tr *obs.Tracer, round int, route RouteFunc) {
	if tr == nil {
		s.deliver(route)
		return
	}
	wb0, mg0 := s.met.WireBytes, s.met.Messages
	sp := tr.Begin(obs.PhaseDeliver, round, -1)
	s.deliver(route)
	sp.EndN(s.met.WireBytes-wb0, s.met.Messages-mg0)
}

// deliver closes the round on one goroutine: it accounts every message the
// hooks sent, makes them the next round's inboxes — by leaving them in the
// slots (pull) or by moving them into the arena (scatter, always taken with
// a transport hook, which must see every message) — and retires freshly
// halted nodes. Metrics always account the original message (Words and
// WireBytes are properties of the protocol, not of the transport), and
// neither the path nor route changes the delivery order — which is what
// keeps engines built on transports byte-identical to SeqEngine.
func (s *sim) deliver(route RouteFunc) {
	pull := route == nil && !s.queued.Load()
	if CheckVecAliasing {
		s.verifyDeliveredVecs()
		s.checkSlotVecs(pull)
	}
	fan, msgs, words, wire := s.priceSlots(0, len(s.outs))
	s.account(msgs, words, wire)
	if !pull {
		s.scatter(route)
	}
	s.endDelivery(pull, fan)
}

// account adds one range's metric partials to the run's Metrics.
func (s *sim) account(msgs, words, wire int64) {
	s.met.Messages += msgs
	s.met.Words += words
	s.met.WireBytes += wire
}

// priceSlots prices the fresh slots of senders [lo, hi): each once, times
// its fan-out — to the byte what pricing every copy would sum to, halted
// recipients included (a real sender pays for those too). fan is what the
// slots reach here, the entries a listing of the round would hold. The metric
// partials are those of the senders stepped here, each at its whole fan-out
// (all of its Peers, wherever they are stepped); a sender only heard is priced
// by the sim that steps it — so a subset's Metrics are its own nodes' share of the run's,
// and on the whole graph fan == msgs.
func (s *sim) priceSlots(lo, hi int) (fan, msgs, words, wire int64) {
	wr := s.slots[s.wr : s.wr+len(s.outs)]
	for v := lo; v < hi; v++ {
		sl := &wr[v]
		if sl.seq != s.seq {
			continue
		}
		f := int64(s.reachOff[v+1] - s.reachOff[v]) // the CSR offsets, not the Ctx
		fan += f
		if s.stepOf != nil {
			r := s.stepOf[v]
			if r < 0 {
				continue
			}
			f = int64(len(s.ctxs[r].peers))
		}
		msgs += f
		words += f * int64(sl.m.Words())
		wire += f * int64(WireSize(s.lam, sl.m))
	}
	return fan, msgs, words, wire
}

// checkSlotVecs is the per-slot half of CheckVecAliasing: the send-time hash
// must still hold, and on the pull path — where no copy passes through place
// — a Vec that reaches anyone is queued for re-verification after the
// receivers' hooks have run.
func (s *sim) checkSlotVecs(pull bool) {
	for v := range s.outs {
		sl := &s.slots[s.wr+v]
		if sl.seq != s.seq || len(sl.m.Vec) == 0 {
			continue
		}
		if vecHash(sl.m.Vec) != s.slotVH[s.wr+v] {
			panic(errVecMutatedAfterSend)
		}
		if pull && len(s.reach(v)) > 0 {
			s.vecChecks = append(s.vecChecks, vecCheck{vec: sl.m.Vec, h: s.slotVH[s.wr+v]})
		}
	}
}

const errVecMutatedAfterSend = "dist: Message.Vec mutated after Broadcast/Send — sent messages are read-only (see Message)"

// scatter materialises the round's inboxes in the arena: a counting pass
// over every sender sizes them, prefix sums place them, and the fill pass
// writes them in the deterministic global order. It prices the queued sends
// on the way (the slots are priced by priceSlots on both paths).
func (s *sim) scatter(route RouteFunc) {
	n := len(s.outs)
	// Halted flags are stable here (they only change inside hooks), so the
	// counts match the fill pass exactly.
	s.countSends(0, n, s.cnt)
	s.sizeArena(s.prefixCounts())
	s.account(s.fillSends(0, n, s.cnt, route))
	clear(s.cnt)
}

// prefixCounts turns the per-receiver counts in cnt into inboxOff and into
// the per-receiver write cursors, in place, and returns their sum.
func (s *sim) prefixCounts() int32 {
	total := int32(0)
	for v := range s.cnt {
		s.inboxOff[v] = total
		total += s.cnt[v]
		s.cnt[v] = s.inboxOff[v]
	}
	s.inboxOff[len(s.cnt)] = total
	return total
}

// sizeArena makes the arena hold total messages; a run of broadcast-only
// rounds never allocates it.
func (s *sim) sizeArena(total int32) {
	if cap(s.inboxArena) < int(total) {
		s.inboxArena = make([]Message, total)
	} else {
		s.inboxArena = s.inboxArena[:total]
	}
}

// countSends adds to row, per live receiver, the messages senders [lo, hi)
// sent this round: slot × reach, then the queue.
func (s *sim) countSends(lo, hi int, row []int32) {
	wr := s.slots[s.wr : s.wr+len(s.outs)]
	for v := lo; v < hi; v++ {
		if wr[v].seq == s.seq {
			for _, to := range s.reach(v) {
				if !s.ctxs[to].halted {
					row[to]++
				}
			}
		}
		out := s.outs[v]
		for i := range out {
			if to := out[i].at; to >= 0 && !s.ctxs[to].halted {
				row[to]++
			}
		}
	}
}

// fillSends places the messages of senders [lo, hi) through the cursors cur
// — sender ascending, slot × reach before the queue, the queue in send
// order, so each inbox comes out ordered by sender — and empties the queues.
// It returns the metric partials of the queued sends of the senders stepped
// here; a sender only heard is priced where it is stepped, queue and slot
// alike. Ranges with disjoint cursors may fill concurrently when route is nil
// and CheckVecAliasing off.
func (s *sim) fillSends(lo, hi int, cur []int32, route RouteFunc) (msgs, words, wire int64) {
	wr := s.slots[s.wr : s.wr+len(s.outs)]
	for v := lo; v < hi; v++ {
		if sl := &wr[v]; sl.seq == s.seq {
			for _, to := range s.reach(v) {
				s.place(cur, to, sl.m, route)
			}
		}
		out := s.outs[v]
		priced := s.stepped(v)
		for i := range out {
			env := &out[i]
			if priced {
				msgs++
				words += int64(env.m.Words())
				wire += int64(WireSize(s.lam, env.m))
			}
			if CheckVecAliasing && len(env.m.Vec) > 0 && vecHash(env.m.Vec) != env.vh {
				panic(errVecMutatedAfterSend)
			}
			if env.at >= 0 {
				s.place(cur, int(env.at), env.m, route)
			}
		}
		s.outs[v] = out[:0]
	}
	return msgs, words, wire
}

// place routes one message and, unless its receiver has halted, writes it at
// the receiver's cursor.
func (s *sim) place(cur []int32, to int, m Message, route RouteFunc) {
	if route != nil {
		m = route(m.From, s.ctxs[to].id, m)
	}
	if s.ctxs[to].halted {
		return
	}
	s.inboxArena[cur[to]] = m
	cur[to]++
	if CheckVecAliasing && len(m.Vec) > 0 {
		s.vecChecks = append(s.vecChecks, vecCheck{vec: m.Vec, h: vecHash(m.Vec)})
	}
}

// listFactor is the K of the sparse pull: a pull delivery lists its speakers
// when the round's slot fan-out is under 1/K of Σ|Peers(v)|, which bounds the
// lists at Σ|Peers|/K entries. The sweep of DESIGN.md §7 found listing ahead
// of the walk at every density short of everyone out of cache (a stale stamp
// is a miss per peer per listener) and level with it in cache; 4 keeps the
// lists at a byte per (listener, peer) pair.
const listFactor = 4

// listSpeakers gives every receiver of a sparse pull delivery the ascending
// list of its peers whose slot is fresh: count, prefix, fill over the fresh
// senders' peer lists, the scatter's passes with sender IDs where it places
// messages. fanOut is what priceSlots counted, so the lists hold exactly
// fanOut < Σ|hear|/listFactor entries; the messages stay in the slots.
func (s *sim) listSpeakers(fanOut int64) {
	if fanOut == 0 { // a silent round, the long tail's common case
		clear(s.inboxOff)
		return
	}
	wr := s.slots[s.wr : s.wr+len(s.outs)]
	for v := range wr {
		if wr[v].seq == s.seq {
			for _, to := range s.reach(v) {
				s.cnt[to]++
			}
		}
	}
	total := s.prefixCounts()
	if cap(s.speakers) < int(total) {
		s.speakers = make([]int32, s.sumPeers/listFactor) // every sparse round fits
	}
	s.speakers = s.speakers[:total]
	for v := range wr {
		if wr[v].seq == s.seq {
			for _, to := range s.reach(v) {
				s.speakers[s.cnt[to]] = int32(v)
				s.cnt[to]++
			}
		}
	}
	clear(s.cnt)
}

// endDelivery is the shared tail of every delivery: record which path the
// next round's inboxes come from — listing the speakers of a sparse pull,
// whose slots reach slotFan receivers — flip the slot halves, and retire the
// round's Halts incrementally instead of rescanning all n contexts.
func (s *sim) endDelivery(pull bool, slotFan int64) {
	s.pull, s.listed = pull, pull && slotFan*listFactor < s.sumPeers
	if s.listed {
		s.listSpeakers(slotFan)
	}
	s.queued.Store(false)
	s.seq++
	s.wr, s.rd = s.rd, s.wr
	s.alive -= int(s.haltedNow.Swap(0))
}

// verifyDeliveredVecs re-hashes every Vec delivered in the previous round —
// the receivers' hooks have all run by now — and panics if any program
// mutated one. Broadcast shares a single Vec across recipients, so a
// single mutation would corrupt every sibling inbox.
func (s *sim) verifyDeliveredVecs() {
	for _, vc := range s.vecChecks {
		if vecHash(vc.vec) != vc.h {
			panic("dist: a delivered Message.Vec was mutated by a receiver — inbox messages are read-only (see Message)")
		}
	}
	s.vecChecks = s.vecChecks[:0]
}

// finish stamps the run-level metrics once the round loop exits.
func (s *sim) finish(rounds int) Metrics {
	s.met.Rounds = rounds
	s.met.Halted = s.alive == 0
	return s.met
}
