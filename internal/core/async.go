package core

import (
	"fmt"
	"math"
	"slices"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// DelayModel is the network of the asynchronous elimination: the k-th value a
// node sends to a peer arrives d rounds after the round it was computed in,
// d = round(Base + Jitter·U) with U ∈ [0,1) a pure hash of (Seed, sender,
// recipient, k). Base must be at least 1 and Jitter at least 0; Base = 1,
// Jitter = 0 is the synchronous schedule. Delays are per value, so a later
// value can overtake an earlier one on the same link — the earlier one is
// then never sent (see asyncProgram).
type DelayModel struct {
	Base   float64
	Jitter float64
	Seed   int64
}

// maxDelay bounds Base + Jitter, so a due round fits the runtime's int32.
const maxDelay = 1 << 30

func (d DelayModel) check() {
	if !(d.Base >= 1) || !(d.Jitter >= 0) || !(d.Base+d.Jitter <= maxDelay) {
		panic(fmt.Sprintf("core: DelayModel %+v: want Base ≥ 1, Jitter ≥ 0 and Base+Jitter ≤ 2³⁰", d))
	}
}

// delay returns the delay, in rounds, of the k-th value from sends to to.
func (d DelayModel) delay(from, to graph.NodeID, k int) int {
	u := 0.0
	if d.Jitter > 0 {
		h := graph.Mix64(graph.Mix64(graph.Mix64(uint64(d.Seed)^uint64(from))^uint64(to)) ^ uint64(k))
		u = float64(h>>11) / (1 << 53)
	}
	return int(math.Round(d.Base + d.Jitter*u))
}

// AsyncResult is the state of an asynchronous elimination at its round
// budget.
type AsyncResult struct {
	// B[v] is the node's value at the budget: its exact coreness when the run
	// quiesced.
	B []float64
	// Makespan is the last round in which a value was sent.
	Makespan int
	// Quiesced reports that every value computed was delivered before the
	// budget. False means the budget cut the run off with values in flight.
	Quiesced bool
}

// RunAsyncElimination runs the elimination in the asynchronous regime of the
// paper's related work (Gillet & Hanusse; Montresor et al.) on eng for rounds
// rounds: a node recomputes whenever a neighbor's value reaches it and sends
// its own only when it moved, each value delayed by d. The update is monotone
// — values only fall from +∞ — so this chaotic iteration reaches the same
// greatest fixpoint as the synchronous one, the exact coreness, on every
// schedule. With R the synchronous rounds to convergence (ExactCoreness) and
// D = round(Base + Jitter) the longest delay, a budget of (R+1)·D rounds
// always quiesces: after k·D rounds every value is at or below the k-th
// synchronous round's.
//
// The node program is the synchronous one's ElimState plus a delay line, so
// the run is a Program like any other and byte-identical on every engine.
func RunAsyncElimination(g *graph.Graph, d DelayModel, rounds int, eng dist.Engine) (*AsyncResult, dist.Metrics) {
	d.check()
	if rounds <= 0 || rounds > math.MaxInt32 {
		panic("core: RunAsyncElimination requires 0 < rounds ≤ 2³¹−1")
	}
	n := g.N()
	run := &asyncRun{d: d, rounds: rounds, b: make([]float64, n), last: make([]int32, n), open: make([]bool, n)}
	met := eng.WithWireLambda(quantize.Reals{}).Run(g, run.program, rounds)
	run.slab.Release() // a run that panicked drops it
	res := &AsyncResult{B: run.b, Quiesced: true}
	for v := range run.last {
		res.Makespan = max(res.Makespan, int(run.last[v]))
		res.Quiesced = res.Quiesced && !run.open[v]
	}
	return res, met
}

// asyncRun is what the programs of one asynchronous run share. Each node
// writes its own element of b, last and open, so the parallel engines need no
// lock.
type asyncRun struct {
	d      DelayModel
	rounds int
	b      []float64
	last   []int32 // the round of the node's last send
	open   []bool  // the node had values in flight at the budget
	slab   Slab
}

func (r *asyncRun) program(v graph.NodeID) dist.Program {
	p := Alloc[asyncProgram](&r.slab)
	p.run, p.id = r, v
	return p
}

// release is one value waiting on a node's delay line.
type release struct {
	due  int32 // the round it is sent in
	peer int32 // the recipient's rank in Ctx.Peers
	b    float64
}

// asyncProgram is the elimination with a delay line between ElimState and the
// wire. When Advance moves b in round t, the program queues, for each peer, a
// release in round t + d − 1 (delivery in t + d). Each round it sends what is
// due: per peer the lowest due value, and only if it is below the last one
// sent to that peer — so at most one value per peer per round and, as on a
// link whose receiver drops stale values, what a neighbor hears only falls
// (ElimState's arcs must only fall). Then it sleeps until its next release or
// the budget, at which it publishes b and halts. Values fall with every move,
// so the line, kept in queueing order, is in falling value order too.
type asyncProgram struct {
	ElimState
	run   *asyncRun
	id    graph.NodeID
	moves int       // values queued so far: the send count delays are drawn from
	line  []release // queued values not yet due, in queueing order
	sent  []float64 // per peer rank: the last value sent, +∞ before the first
}

func (p *asyncProgram) Init(c *dist.Ctx) {
	p.Start(p.id, c.Neighbors(), c.Peers(), &p.run.slab)
	_, p.sent, _, _ = p.run.slab.Carve(0, len(c.Peers()), 0, 0)
	for r := range p.sent {
		p.sent[r] = math.Inf(1)
	}
	if len(c.Neighbors()) == 0 {
		p.finish(c, false) // isolated: nothing to say or hear
	}
}

func (p *asyncProgram) Round(c *dist.Ctx, inbox []dist.Message) {
	t := c.Round()
	moved, _ := p.Advance(inbox, quantize.Reals{}, false)
	if t >= p.run.rounds {
		p.finish(c, moved)
		return
	}
	if moved {
		p.line = slices.Grow(p.line, len(c.Peers()))
		for r, to := range c.Peers() {
			due := min(t+p.run.d.delay(p.id, to, p.moves)-1, p.run.rounds)
			p.line = append(p.line, release{due: int32(due), peer: int32(r), b: p.b})
		}
		p.moves++
	}
	// Newest first: the first due value met for a peer is its lowest.
	next := p.run.rounds
	for i := len(p.line) - 1; i >= 0; i-- {
		if r := p.line[i]; int(r.due) > t {
			next = min(next, int(r.due))
		} else if r.b < p.sent[r.peer] {
			p.sent[r.peer] = r.b
			c.Send(c.Peers()[r.peer], dist.Message{F0: r.b})
			p.run.last[p.id] = int32(t)
		}
	}
	p.line = slices.DeleteFunc(p.line, func(r release) bool { return int(r.due) <= t })
	// A step owed only to the self-loop arcs, which a move rewrites, cannot
	// move b — they still count at every x ≤ b — so without mail nothing is
	// due before next.
	c.SleepUntil(next)
}

// finish publishes b at the budget; moved or a non-empty line means values in
// flight.
func (p *asyncProgram) finish(c *dist.Ctx, moved bool) {
	p.run.b[p.id] = p.b
	p.run.open[p.id] = moved || len(p.line) > 0
	c.Halt()
}
