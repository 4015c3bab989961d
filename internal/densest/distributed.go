package densest

import (
	"sort"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// This file implements the weak densest subset pipeline as an actual
// message-passing protocol on a dist.Engine — every node runs the state
// machine below, exchanging only messages with neighbors. Weak() remains
// the centralized reference simulation, which steps every node every round;
// TestDistributedMatchesCentralized checks the two produce identical
// collections. The protocol is change-driven in all four phases (DESIGN.md
// §2): a node speaks in the round its state moved, remembers what each
// neighbor last said, and sleeps (Ctx.SleepUntil) until mail arrives or the
// next round that is not a function of the inbox comes — T, 2T, 3T+1, 6T+9.
//
// Message kinds:
//
//	kElim    rounds 1..T-1    F0 = surviving number, sent when it moved (Algorithm 2)
//	kLeader  rounds T..2T-1   I0 = leader ID, F0 = leader's b: the seed (self, b) at
//	                          round T, afterwards only when the pair moved (Algorithm 4)
//	kReq     round 2T         targeted at parent: I0 = leader ID
//	kAck     round 2T+1       targeted at requester (parent confirms)
//	kActive  round 2T+1       I0 = leader ID: the node enters Algorithm 5 active
//	kDrop    rounds 2T+2..3T  the node's degree fell under its leader's b (slots 0..T-2)
//	kAgg     rounds 3T+1..    to parent: Vec = num[0..T-1] ++ deg[0..T-1] (Algorithm 6)
//	kStar    phase 4          I0 = t*, flooded down the accepted tree
const (
	kElim uint8 = iota + 1
	kLeader
	kReq
	kAck
	kActive
	kDrop
	kAgg
	kStar
)

// weakRun is what the programs of one run share: the protocol parameters,
// the slab the programs and their arrays are carved from, and the per-node
// outcomes. Each node writes its own elements, and nobody reads before the
// engine returns, so the parallel engines need no lock.
type weakRun struct {
	T     int
	gamma float64 // 1 under Config.LiteralAcceptance: the test becomes bmax ≥ b_v
	slab  core.Slab

	b        []float64
	leader   []graph.NodeID
	inSubset []bool
	tstar    []int // per root: accepted t*, -1 otherwise
}

func newWeakRun(g *graph.Graph, cfg Config) *weakRun {
	if cfg.Gamma <= 2 {
		panic("densest: Config.Gamma must exceed 2")
	}
	n := g.N()
	r := &weakRun{
		T:        cfg.Rounds,
		gamma:    cfg.Gamma,
		b:        make([]float64, n),
		leader:   make([]graph.NodeID, n),
		inSubset: make([]bool, n),
		tstar:    make([]int, n),
	}
	if r.T <= 0 {
		r.T = core.TForGamma(n, cfg.Gamma)
	}
	if cfg.LiteralAcceptance {
		r.gamma = 1
	}
	for v := range r.tstar {
		r.tstar[v] = -1
	}
	return r
}

func (r *weakRun) program(v graph.NodeID) dist.Program {
	p := core.Alloc[weakProgram](&r.slab)
	p.run, p.id = r, v
	return p
}

// weakProgram is the per-node protocol state machine.
type weakProgram struct {
	// phase 1 state: Algorithm 2 with Λ = ℝ, change-driven
	core.ElimState
	run *weakRun
	id  graph.NodeID

	// phase 2 state
	leader   graph.NodeID
	leaderB  float64
	parent   graph.NodeID // self for a root, -1 once detached
	children []graph.NodeID

	// phase 3 state. A neighbor counts toward the degree while it is active
	// under this node's leader: it said so once (kActive) and says once when
	// it stops (kDrop), so its status is kept — per rank in Peers — and the
	// degree stands until a status moves.
	arcRank []int32   // arc index → rank of its far end in Peers, -1 for a self-loop
	nbrIn   []bool    // per peer rank: active, and under this node's leader
	rec     []float64 // num[0..T-1] ++ deg[0..T-1], the layout kAgg carries
	deg     float64   // the standing degree: the adjacency-order sum over nbrIn
	next    int       // first slot not recorded yet

	// phase 4 state
	agg     []float64 // rec plus the children's reports; nil until one arrives
	pending int       // children that have not reported

	active, sentUp, done bool
}

// RunWeakDistributed executes the four phases of Theorem I.3 as a real
// message-passing protocol and returns the same Result structure as Weak,
// along with the engine's communication metrics. cfg.LiteralAcceptance is
// honored; cfg.Rounds overrides T.
func RunWeakDistributed(g *graph.Graph, cfg Config, eng dist.Engine) (*Result, dist.Metrics) {
	run := newWeakRun(g, cfg)
	met := eng.Run(g, run.program, 6*run.T+10)
	run.slab.Release() // the outcomes are the run's own arrays; a run that panicked drops the slab
	return assembleResult(g, run), met
}

// assembleResult reconstructs the Result collection from per-node outputs.
func assembleResult(g *graph.Graph, r *weakRun) *Result {
	n := g.N()
	res := &Result{
		B:           r.b,
		LeaderOf:    r.leader,
		InSubset:    r.inSubset,
		T:           r.T,
		TotalRounds: r.T + (r.T + 2) + r.T + 3*r.T,
	}
	members := make(map[graph.NodeID][]graph.NodeID)
	for v := 0; v < n; v++ {
		if r.inSubset[v] {
			members[r.leader[v]] = append(members[r.leader[v]], v)
		}
	}
	for root, ms := range members {
		sort.Ints(ms)
		mask := make([]bool, n)
		for _, v := range ms {
			mask[v] = true
		}
		w, k := g.SubsetEdgeWeight(mask)
		density := 0.0
		if k > 0 {
			density = w / float64(k)
		}
		res.Subsets = append(res.Subsets, Subset{
			Leader:  root,
			LeaderB: r.b[root],
			Members: ms,
			Density: density,
			TStar:   r.tstar[root],
		})
	}
	sortSubsets(res.Subsets)
	return res
}

func (p *weakProgram) Init(c *dist.Ctx) {
	p.Start(p.id, c.Neighbors(), c.Peers(), &p.run.slab)
	p.leader = p.id
	p.parent = p.id
	p.active = true
}

func (p *weakProgram) Round(c *dist.Ctx, inbox []dist.Message) {
	T := p.run.T
	switch t := c.Round(); {
	case t <= T:
		p.phase1(c, inbox, t)
	case t <= 2*T:
		p.elect(c, inbox, t)
	case t == 2*T+1:
		p.confirm(c, inbox)
	default:
		p.phase34(c, inbox, t)
	}
}

// phase1: Algorithm 2 for T rounds.
func (p *weakProgram) phase1(c *dist.Ctx, inbox []dist.Message, t int) {
	T := p.run.T
	moved, _ := p.Advance(inbox, quantize.Reals{}, false) // rounds 1..T only ever carry kElim
	b := p.B()
	if t < T {
		if moved {
			c.Broadcast(dist.Message{Kind: kElim, F0: b})
		} else {
			c.SleepUntil(T) // as the elimination program does; round T opens phase 2
		}
		return
	}
	// Phase 1 done: publish b, seed phase 2 by announcing (self, b).
	p.leaderB = b
	p.run.b[p.id] = b
	c.Broadcast(dist.Message{Kind: kLeader, I0: p.id, F0: b})
	c.SleepUntil(2 * T)
}

// precedes reports (l1,b1) ≻ (l2,b2) in the leader order.
func precedes(l1 graph.NodeID, b1 float64, l2 graph.NodeID, b2 float64) bool {
	if b1 != b2 {
		return b1 > b2
	}
	return l1 > l2
}

// elect is an election round of Algorithm 4 (T+1..2T). The inbox holds the
// pairs that moved last round — every neighbor's seed at T+1 — and that is
// all an adoption ever reads: a pair a neighbor has held for longer was
// offered before, so this node's own is at least as good, and every neighbor
// holding the pair adopted now moved to it last round, so the first best
// sender in ascending order is the every-round protocol's parent (DESIGN.md
// §2). A node with no mail has nothing to adopt or say before round 2T, which
// sends the request.
func (p *weakProgram) elect(c *dist.Ctx, inbox []dist.Message, t int) {
	T := p.run.T
	bestFrom := graph.NodeID(-1)
	var bestL graph.NodeID
	var bestB float64
	for _, m := range inbox {
		if m.Kind != kLeader {
			continue
		}
		if bestFrom < 0 || precedes(m.I0, m.F0, bestL, bestB) {
			bestFrom, bestL, bestB = m.From, m.I0, m.F0
		}
	}
	moved := bestFrom >= 0 && precedes(bestL, bestB, p.leader, p.leaderB)
	if moved {
		p.leader, p.leaderB = bestL, bestB
		p.parent = bestFrom
	}
	if t < 2*T {
		if moved {
			c.Broadcast(dist.Message{Kind: kLeader, I0: p.leader, F0: p.leaderB})
		}
		c.SleepUntil(2 * T)
		return
	}
	// end of election: request parent confirmation
	if p.parent != p.id {
		c.Send(p.parent, dist.Message{Kind: kReq, I0: p.leader})
	}
}

// confirm is round 2T+1: process requests, send acks — children are fixed
// here, carved from the run's slab once they are counted — and enter phase 3
// active.
func (p *weakProgram) confirm(c *dist.Ctx, inbox []dist.Message) {
	for _, m := range inbox {
		if m.Kind == kReq && m.I0 == p.leader {
			p.pending++
		}
	}
	if p.pending > 0 {
		p.children, _, _, _ = p.run.slab.Carve(p.pending, 0, 0, 0)
	}
	i := 0
	for _, m := range inbox {
		if m.Kind == kReq && m.I0 == p.leader {
			p.children[i] = m.From
			i++
			c.Send(m.From, dist.Message{Kind: kAck})
		}
	}
	c.Broadcast(dist.Message{Kind: kActive, I0: p.leader})
}

// phase34 handles the elimination-with-recording rounds (slot k is round
// 2T+2+k) and the tree aggregation/flood-down that follows them.
func (p *weakProgram) phase34(c *dist.Ctx, inbox []dist.Message, t int) {
	T := p.run.T
	k := t - (2*T + 2)
	if k == 0 {
		p.openRecording(c)
	}
	// One walk of the inbox — ascending by sender — against ascending Peers:
	// r is the rank the next status message is looked for at.
	peers, r := c.Peers(), 0
	acked, moved := false, k == 0
	var star *dist.Message
	for i := range inbox {
		m := &inbox[i]
		switch m.Kind {
		case kAck:
			acked = acked || m.From == p.parent
		case kActive:
			r = seek(peers, r, m.From)
			p.nbrIn[r] = m.I0 == p.leader
			r++
		case kDrop:
			if r = seek(peers, r, m.From); p.nbrIn[r] {
				p.nbrIn[r], moved = false, true
			}
			r++
		case kAgg:
			p.absorb(m.Vec)
		case kStar:
			star = m
		}
	}
	if k == 0 && p.parent != p.id && !acked {
		p.parent = -1 // ⊥: detached from any tree
	}

	// Phase 3 proper: an active node records slot k. The slots it slept
	// through are the standing degree's — nothing moved, so the every-round
	// sum would have added the same weights in the same order — and the sum
	// is taken again only now that a status did.
	if k < T && p.active {
		num, deg := p.rec[:T], p.rec[T:]
		for ; p.next < k; p.next++ {
			num[p.next], deg[p.next] = 1, p.deg
		}
		if moved {
			p.deg = p.degree(c.Neighbors())
		}
		num[k], deg[k] = 1, p.deg
		p.next = k + 1
		if p.deg < p.leaderB {
			p.active = false
			if k < T-1 { // nobody reads a status after the last slot
				c.Broadcast(dist.Message{Kind: kDrop})
			}
		}
	}
	if t < 3*T+1 {
		c.SleepUntil(3*T + 1) // the last slot, and the leaves' reports
		return
	}

	// Phase 4: once recording finished, leaves push their arrays up; inner
	// nodes forward when all children reported; the root floods t* down.
	if p.parent != -1 {
		p.maybeSendUp(c)
	}
	if star != nil && !p.done {
		p.handleStar(c, star.I0)
	}
	// Safety termination (Algorithm 6 line 18: "even if a node does not
	// hear back from its parent, it terminates after 3T rounds"): flush
	// final state for nodes in rejected or detached trees.
	if t >= 6*T+9 && !p.done {
		p.finish(c, false)
	}
	if !p.done {
		c.SleepUntil(6*T + 9) // a child's kAgg or the parent's kStar comes as mail
	}
}

// seek returns the rank of neighbor u in peers, looking at r first: walking an
// inbox in which every peer spoke, or an adjacency list that runs ascending,
// the next rank is where it is.
func seek(peers []graph.NodeID, r int, u graph.NodeID) int {
	if r < len(peers) && peers[r] == u {
		return r
	}
	return sort.SearchInts(peers, u)
}

// openRecording carves phase 3's per-node arrays at slot 0, whose inbox —
// every neighbor's kActive — fills nbrIn.
func (p *weakProgram) openRecording(c *dist.Ctx) {
	arcs, peers := c.Neighbors(), c.Peers()
	_, p.rec, p.arcRank, p.nbrIn = p.run.slab.Carve(0, 2*p.run.T, len(arcs), len(peers))
	r := 0
	for i, a := range arcs {
		if a.To == p.id {
			p.arcRank[i] = -1
			continue
		}
		r = seek(peers, r, a.To)
		p.arcRank[i] = int32(r)
		r++
	}
}

// degree is Algorithm 5's test quantity: the weight of the arcs whose far end
// is active under this node's leader, summed in adjacency order. A self-loop
// counts while the node itself is active, which is when this is called.
func (p *weakProgram) degree(arcs []graph.Arc) float64 {
	d := 0.0
	for i, a := range arcs {
		if r := p.arcRank[i]; r < 0 || p.nbrIn[r] {
			d += a.W
		}
	}
	return d
}

// absorb adds a child's report; only acked children send one, each once. The
// sum starts as a copy of rec, carved from the run's slab.
func (p *weakProgram) absorb(vec []float64) {
	if p.agg == nil {
		_, p.agg, _, _ = p.run.slab.Carve(0, len(p.rec), 0, 0)
		copy(p.agg, p.rec)
	}
	for i, x := range vec {
		p.agg[i] += x
	}
	p.pending--
}

func (p *weakProgram) maybeSendUp(c *dist.Ctx) {
	if p.sentUp || p.pending > 0 {
		return
	}
	p.sentUp = true
	agg := p.agg
	if agg == nil {
		agg = p.rec // a leaf's report is its record, which nothing writes any more
	}
	if p.parent != p.id {
		c.Send(p.parent, dist.Message{Kind: kAgg, Vec: agg})
		return
	}
	// Root: pick the densest recorded prefix and accept or reject.
	T := p.run.T
	aggNum, aggDeg := agg[:T], agg[T:]
	bmax, tstar := -1.0, -1
	for i := 0; i < T; i++ {
		if aggNum[i] > 0 {
			if d := aggDeg[i] / (2 * aggNum[i]); d > bmax {
				bmax, tstar = d, i
			}
		}
	}
	if tstar >= 0 && bmax >= p.B()/p.run.gamma {
		p.run.tstar[p.id] = tstar
		p.handleStar(c, tstar)
	} else {
		p.finish(c, false)
	}
}

func (p *weakProgram) handleStar(c *dist.Ctx, tstar int) {
	for _, ch := range p.children {
		c.Send(ch, dist.Message{Kind: kStar, I0: tstar})
	}
	p.finish(c, p.rec[tstar] == 1)
}

// finish publishes the node's outcome and halts: once a node has flooded t*
// to its children — or rejected, or given up waiting — it has no further
// role, relay duties included.
func (p *weakProgram) finish(c *dist.Ctx, in bool) {
	p.done = true
	p.run.leader[p.id] = p.leader
	p.run.inSubset[p.id] = in
	c.Halt()
}
