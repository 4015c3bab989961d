package densest

import (
	"sort"
	"sync"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// This file implements the weak densest subset pipeline as an actual
// message-passing protocol on a dist.Engine — every node runs the state
// machine below, exchanging only messages with neighbors. Weak() remains
// the centralized reference simulation; TestDistributedMatchesCentralized
// checks the two produce identical collections.
//
// Message kinds (round ranges use R1 = T, R2 = 2T, R3 = 2T+2, R4 = 3T+2):
//
//	kElim    rounds 1..T-1     F0 = surviving number, sent when it moved (Algorithm 2)
//	kLeader  rounds T+1..2T    I0 = leader ID, F0 = leader's b (Algorithm 4)
//	kReq     round 2T          targeted at parent: I0 = leader ID
//	kAck     round 2T+1        targeted at requester (parent confirms)
//	kActive  rounds 2T+2..3T+2 I0 = leader ID (Algorithm 5 active status)
//	kAgg     phase 4           Vec = num[0..T-1] ++ deg[0..T-1] (Algorithm 6)
//	kStar    phase 4           I0 = t*, flooded down the accepted tree
const (
	kElim uint8 = iota + 1
	kLeader
	kReq
	kAck
	kActive
	kAgg
	kStar
)

// weakSink gathers per-node outcomes of the distributed run.
type weakSink struct {
	mu       sync.Mutex
	b        []float64
	leader   []graph.NodeID
	parent   []graph.NodeID
	inSubset []bool
	tstar    []int // per root: accepted t*, -1 otherwise
}

// weakProgram is the per-node protocol state machine.
type weakProgram struct {
	id    graph.NodeID
	T     int
	gamma float64
	sink  *weakSink
	slab  *core.Slab // the run's, for the phase 1 arrays

	// phase 1 state: Algorithm 2 with Λ = ℝ, change-driven
	core.ElimState

	// phase 2 state
	leader   graph.NodeID
	leaderB  float64
	parent   graph.NodeID
	children []graph.NodeID

	// phase 3 state
	nbrLeader map[graph.NodeID]graph.NodeID
	nbrActive map[graph.NodeID]bool
	num       []float64
	deg       []float64

	// phase 4 state
	aggNum, aggDeg []float64
	pendingKids    map[graph.NodeID]bool

	// The flags of phases 2 (acked), 3 (active) and 4, together so that they
	// share one word: the program is one allocation per node and sits exactly
	// on a size class.
	acked, active, sentUp, done bool
}

// RunWeakDistributed executes the four phases of Theorem I.3 as a real
// message-passing protocol and returns the same Result structure as Weak,
// along with the engine's communication metrics. cfg.LiteralAcceptance is
// honored; cfg.Rounds overrides T.
func RunWeakDistributed(g *graph.Graph, cfg Config, eng dist.Engine) (*Result, dist.Metrics) {
	if cfg.Gamma <= 2 {
		panic("densest: Config.Gamma must exceed 2")
	}
	n := g.N()
	T := cfg.Rounds
	if T <= 0 {
		T = core.TForGamma(n, cfg.Gamma)
	}
	sink := &weakSink{
		b:        make([]float64, n),
		leader:   make([]graph.NodeID, n),
		parent:   make([]graph.NodeID, n),
		inSubset: make([]bool, n),
		tstar:    make([]int, n),
	}
	for v := range sink.tstar {
		sink.tstar[v] = -1
	}
	gamma := cfg.Gamma
	if cfg.LiteralAcceptance {
		gamma = 1 // acceptance test becomes bmax ≥ b_v
	}
	maxRounds := 6*T + 10
	slab := new(core.Slab)
	met := eng.Run(g, func(v graph.NodeID) dist.Program {
		return &weakProgram{id: v, T: T, gamma: gamma, sink: sink, slab: slab}
	}, maxRounds)

	return assembleResult(g, cfg, T, sink), met
}

// assembleResult reconstructs the Result collection from per-node outputs.
func assembleResult(g *graph.Graph, cfg Config, T int, sink *weakSink) *Result {
	n := g.N()
	res := &Result{
		B:           sink.b,
		LeaderOf:    sink.leader,
		InSubset:    sink.inSubset,
		T:           T,
		TotalRounds: T + (T + 2) + T + 3*T,
	}
	members := make(map[graph.NodeID][]graph.NodeID)
	for v := 0; v < n; v++ {
		if sink.inSubset[v] {
			members[sink.leader[v]] = append(members[sink.leader[v]], v)
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
			LeaderB: sink.b[root],
			Members: ms,
			Density: density,
			TStar:   sink.tstar[root],
		})
	}
	sort.Slice(res.Subsets, func(i, j int) bool {
		if res.Subsets[i].Density != res.Subsets[j].Density {
			return res.Subsets[i].Density > res.Subsets[j].Density
		}
		return res.Subsets[i].Leader < res.Subsets[j].Leader
	})
	return res
}

func (p *weakProgram) Init(c *dist.Ctx) {
	p.Start(p.id, c.Neighbors(), c.Peers(), p.slab)
	p.leader = p.id
	p.parent = p.id
	p.active = true
	p.num = make([]float64, p.T)
	p.deg = make([]float64, p.T)
	p.nbrLeader = make(map[graph.NodeID]graph.NodeID)
	p.nbrActive = make(map[graph.NodeID]bool)
	p.pendingKids = make(map[graph.NodeID]bool)
}

func (p *weakProgram) Round(c *dist.Ctx, inbox []dist.Message) {
	T := p.T
	t := c.Round()
	switch {
	case t <= T:
		p.phase1(c, inbox, t)
	case t <= 2*T+1:
		p.phase2(c, inbox, t)
	default:
		p.phase34(c, inbox, t)
	}
}

// phase1: Algorithm 2 for T rounds.
func (p *weakProgram) phase1(c *dist.Ctx, inbox []dist.Message, t int) {
	moved, _ := p.Advance(inbox, quantize.Reals{}, false) // rounds 1..T only ever carry kElim
	b := p.B()
	if t < p.T {
		if moved {
			c.Broadcast(dist.Message{Kind: kElim, F0: b})
		} else {
			c.SleepUntil(p.T) // as the elimination program does; round T opens phase 2
		}
		return
	}
	// Phase 1 done: publish b, seed phase 2 by announcing (self, b).
	p.leaderB = b
	p.sink.mu.Lock()
	p.sink.b[p.id] = b
	p.sink.mu.Unlock()
	c.Broadcast(dist.Message{Kind: kLeader, I0: p.id, F0: b})
}

// precedes reports (l1,b1) ≻ (l2,b2) in the leader order.
func precedes(l1 graph.NodeID, b1 float64, l2 graph.NodeID, b2 float64) bool {
	if b1 != b2 {
		return b1 > b2
	}
	return l1 > l2
}

// phase2: Algorithm 4 — T election rounds, then request/ack.
func (p *weakProgram) phase2(c *dist.Ctx, inbox []dist.Message, t int) {
	T := p.T
	if t <= 2*T {
		// election round (the message seen was broadcast last round)
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
		if bestFrom >= 0 && precedes(bestL, bestB, p.leader, p.leaderB) {
			p.leader, p.leaderB = bestL, bestB
			p.parent = bestFrom
		}
		if t < 2*T {
			c.Broadcast(dist.Message{Kind: kLeader, I0: p.leader, F0: p.leaderB})
			return
		}
		// end of election: request parent confirmation
		if p.parent != p.id {
			c.Send(p.parent, dist.Message{Kind: kReq, I0: p.leader})
		}
		return
	}
	// t == 2T+1: process requests, send acks; children are fixed here.
	for _, m := range inbox {
		if m.Kind == kReq && m.I0 == p.leader {
			p.children = append(p.children, m.From)
			p.pendingKids[m.From] = true
			c.Send(m.From, dist.Message{Kind: kAck})
		}
	}
	// kick off phase 3: everyone starts active
	c.Broadcast(dist.Message{Kind: kActive, I0: p.leader})
}

// phase34 handles the elimination-with-recording rounds and the tree
// aggregation/flood-down, which overlap in time across the network.
func (p *weakProgram) phase34(c *dist.Ctx, inbox []dist.Message, t int) {
	T := p.T
	// Ack processing (arrives at t = 2T+2).
	if t == 2*T+2 && p.parent != p.id {
		for _, m := range inbox {
			if m.Kind == kAck && m.From == p.parent {
				p.acked = true
			}
		}
		if !p.acked {
			p.parent = -1 // ⊥: detached from any tree
		}
	}
	// Collect active statuses and aggregation payloads.
	var starMsg *dist.Message
	for i := range inbox {
		m := &inbox[i]
		switch m.Kind {
		case kActive:
			p.nbrLeader[m.From] = m.I0
			p.nbrActive[m.From] = true
		case kAgg:
			p.absorbAgg(m)
		case kStar:
			starMsg = m
		}
	}

	// Phase 3 proper: rounds 2T+2 .. 3T+1 record slots 0..T-1.
	k := t - (2*T + 2) // slot index
	if k >= 0 && k < T && p.active {
		d := 0.0
		for _, a := range c.Neighbors() {
			if a.To == p.id {
				d += a.W // self-loop counts while the node itself is active
				continue
			}
			if p.nbrActive[a.To] && p.nbrLeader[a.To] == p.leader {
				d += a.W
			}
		}
		p.num[k] = 1
		p.deg[k] = d
		if d < p.leaderB {
			p.active = false
		} else if k < T-1 {
			c.Broadcast(dist.Message{Kind: kActive, I0: p.leader})
		}
		// statuses expire each round
		for key := range p.nbrActive {
			delete(p.nbrActive, key)
		}
	}

	// Phase 4: once recording finished, leaves push their arrays up; inner
	// nodes forward when all children reported; the root floods t* down.
	if t >= 3*T+1 && !p.done && p.parent != -1 {
		p.maybeSendUp(c)
	}
	if starMsg != nil && !p.done {
		p.handleStar(c, starMsg.I0)
	}
	// Safety termination (Algorithm 6 line 18: "even if a node does not
	// hear back from its parent, it terminates after 3T rounds"): flush
	// final state for nodes in rejected or detached trees.
	if t >= 6*T+9 && !p.done {
		p.finishWeak(c, false, -1)
	}
}

func (p *weakProgram) absorbAgg(m *dist.Message) {
	T := p.T
	if p.aggNum == nil {
		p.aggNum = append([]float64(nil), p.num...)
		p.aggDeg = append([]float64(nil), p.deg...)
	}
	for i := 0; i < T; i++ {
		p.aggNum[i] += m.Vec[i]
		p.aggDeg[i] += m.Vec[T+i]
	}
	delete(p.pendingKids, m.From)
}

func (p *weakProgram) maybeSendUp(c *dist.Ctx) {
	if p.sentUp || len(p.pendingKids) > 0 {
		return
	}
	if p.aggNum == nil {
		p.aggNum = append([]float64(nil), p.num...)
		p.aggDeg = append([]float64(nil), p.deg...)
	}
	p.sentUp = true
	if p.parent != p.id {
		vec := make([]float64, 2*p.T)
		copy(vec, p.aggNum)
		copy(vec[p.T:], p.aggDeg)
		c.Send(p.parent, dist.Message{Kind: kAgg, Vec: vec})
		return
	}
	// Root: pick the densest recorded prefix and accept or reject.
	bmax, tstar := -1.0, -1
	for i := 0; i < p.T; i++ {
		if p.aggNum[i] > 0 {
			if d := p.aggDeg[i] / (2 * p.aggNum[i]); d > bmax {
				bmax, tstar = d, i
			}
		}
	}
	if tstar >= 0 && bmax >= p.B()/p.gamma {
		p.sink.mu.Lock()
		p.sink.tstar[p.id] = tstar
		p.sink.mu.Unlock()
		p.handleStar(c, tstar)
	} else {
		p.finishWeak(c, false, -1)
	}
}

func (p *weakProgram) handleStar(c *dist.Ctx, tstar int) {
	for _, ch := range p.children {
		c.Send(ch, dist.Message{Kind: kStar, I0: tstar})
	}
	p.finishWeak(c, p.num[tstar] == 1, tstar)
}

func (p *weakProgram) finishWeak(c *dist.Ctx, in bool, _ int) {
	p.done = true
	p.sink.mu.Lock()
	p.sink.leader[p.id] = p.leader
	p.sink.parent[p.id] = p.parent
	p.sink.inSubset[p.id] = in
	p.sink.mu.Unlock()
	// Do not halt yet: this node may still need to relay kAgg/kStar for
	// others? No — in a tree, once a node has flooded t* to its children it
	// has no further role; but nodes that rejected (roots) or are detached
	// must also stop. Relay duties end here, so halt.
	c.Halt()
}
