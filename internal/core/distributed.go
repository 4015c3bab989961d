package core

import (
	"fmt"
	"math"
	"sort"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// ElimState is one node's side of Algorithm 2: its surviving number b, the
// maintained order of Algorithm 3 and, per incident arc, the latest value heard
// from its far end. Both protocols that run the algorithm embed it — the
// elimination program below and phase 1 of the weak densest subset protocol —
// so the change-driven round exists once (DESIGN.md §2): b_t(v) is a pure
// function of the neighbor values and the node's own last value, so a node
// that heard nothing and whose own value stood still holds its next value
// already, and a node whose value did not move has nothing to tell. A round
// costs the node its mail, not its degree: a heard value is written to its
// sender's arcs and the step re-places only those.
type ElimState struct {
	b float64
	// upd.vals holds the neighbor values across steps. They start at +∞, which
	// is all a round-0 broadcast would say; a self-loop arc holds b.
	upd   Updater
	peers []graph.NodeID
	// byPeer lists the arc indices in Updater.init's (neighbor, arc) order,
	// self-loops moved to the end: the arcs to peers[r] — parallel ones
	// included — are byPeer[start[r]:start[r+1]], the self-loop arcs
	// byPeer[start[len(peers)]:].
	byPeer, start []int32
	// dirty counts the arc values overwritten since the last step; with none a
	// step would stable-sort a sorted order over identical keys, so it is
	// skipped — exact to the bit, not just to the value.
	dirty int
}

// Start is the node's round 0: b = +∞ (0 for an isolated node, for which
// β_t = 0 in every round t ≥ 1), the order by (neighbor ID, arc index), every
// neighbor at +∞. arcs and peers are the node's runtime topology; the arrays
// are carved from sl (nil allocates them individually). It sends nothing.
func (s *ElimState) Start(id graph.NodeID, arcs []graph.Arc, peers []graph.NodeID, sl *Slab) {
	d, np := len(arcs), len(peers)
	order, vals, idx, _ := sl.Carve(d, d, np+1+d, 0)
	s.upd.init(arcs, order, vals)
	s.peers, s.start, s.byPeer = peers, idx[:np+1], idx[np+1:]
	k, r := int32(0), -1
	for _, a := range order { // sorted by neighbor: the r-th distinct one is peers[r]
		to := arcs[a].To
		if to == id {
			continue
		}
		if r < 0 || to != peers[r] {
			r++
			s.start[r] = k
		}
		s.byPeer[k] = int32(a)
		k++
	}
	s.start[np] = k
	for _, a := range order {
		if arcs[a].To == id {
			s.byPeer[k] = int32(a)
			k++
		}
	}
	for i := range vals {
		vals[i] = math.Inf(1)
	}
	// A first step is due on the values just written, which the order is
	// already sorted for; an isolated node has none to take.
	s.b, s.dirty = math.Inf(1), 1
	if d == 0 {
		s.b, s.dirty = 0, 0
	}
}

// B returns the node's current surviving number, rounded down to Λ.
func (s *ElimState) B() float64 { return s.b }

// Advance is the node's round: it writes the inbox — the neighbors whose
// value moved last round, F0 each, in sender order — to the senders' arcs and,
// if anything a step reads has changed since the last one (or live is set),
// runs Algorithm 3 and rounds the result down to lam. It reports whether b
// moved, which is when the caller has something to broadcast; when it did not,
// the next round's Advance on an empty inbox is a no-op. aux is Updater.Step's
// auxiliary set, nil when no step ran; live forces the step, for the caller
// that needs the set. A sender that is not a neighbor — or an inbox out of
// sender order — panics: its value has no arc to go to.
func (s *ElimState) Advance(inbox []dist.Message, lam quantize.Lambda, live bool) (moved bool, aux []int) {
	vals, r := s.upd.vals, 0
	for k := range inbox {
		from := inbox[k].From
		if r < len(s.peers) && s.peers[r] < from {
			r++ // when every peer spoke, the next message is the next peer's
			if r < len(s.peers) && s.peers[r] < from {
				r += sort.SearchInts(s.peers[r:], from)
			}
		}
		if r == len(s.peers) || s.peers[r] != from {
			panic(fmt.Sprintf("core: ElimState: message %d of the inbox is from node %d, which is not a neighbor or is out of sender order", k, from))
		}
		to := s.byPeer[s.start[r]:s.start[r+1]]
		for _, a := range to {
			vals[a] = inbox[k].F0
		}
		s.dirty += len(to)
	}
	if s.dirty == 0 && !live {
		return false, nil
	}
	nb, aux := s.upd.step(s.dirty)
	s.dirty = 0
	nb = lam.RoundDown(nb)
	if nb == s.b {
		return false, aux
	}
	s.b = nb
	loops := s.byPeer[s.start[len(s.peers)]:] // a self-loop arc sees the node's own value
	for _, a := range loops {
		vals[a] = nb
	}
	s.dirty = len(loops)
	return true, aux
}

// eliminationProgram is the per-node dist.Program realizing Algorithm 2,
// change-driven. Protocol: Init is silent; in round t a node advances its
// ElimState on the values it received and broadcasts the new value if it
// differs from the one it last sent, and otherwise sleeps until somebody's
// value reaches it (Ctx.SleepUntil) — except in the final round, for which
// everyone wakes and halts instead (the last broadcast would never be read).
type eliminationProgram struct {
	ElimState
	run *eliminationRun
	id  graph.NodeID
}

// eliminationRun is what the programs of one run share: the protocol
// parameters, the result sink, and the slab their state is carved from —
// the programs themselves included, so a run's allocation count does not
// grow with n.
type eliminationRun struct {
	T        int
	lam      quantize.Lambda
	trackAux bool
	sink     *DistResult
	slab     Slab
}

func (r *eliminationRun) program(v graph.NodeID) dist.Program {
	p := Alloc[eliminationProgram](&r.slab)
	p.run, p.id = r, v
	return p
}

// DistResult collects the outputs of a distributed elimination run. Each
// node writes its own element once, at halt time, and nobody reads before the
// engine returns, so the parallel engines need no lock.
type DistResult struct {
	B        []float64
	AuxEdges [][]int
}

// RunDistributed executes Algorithm 2 as a message-passing protocol on the
// given engine for T = opt.Rounds rounds (opt.Rounds must be > 0;
// convergence mode is only available in the centralized Run). It returns
// the surviving numbers, the auxiliary edge sets (if opt.TrackAux), and the
// engine's communication metrics. The values are bit for bit those of the
// printed algorithm, which broadcasts b_t(v) every round; the metrics are
// those of the change-driven program (ElimState, DESIGN.md §2), which says
// b_t(v) only when it moved: Messages = Σ_{t<T} Σ_{v : β_t(v) ≠ β_{t−1}(v)}
// |Peers(v)|, at most the every-round T·Σ_v |Peers(v)|.
func RunDistributed(g *graph.Graph, opt Options, eng dist.Engine) (*Result, dist.Metrics) {
	if opt.Rounds <= 0 {
		panic("core: RunDistributed requires Rounds > 0")
	}
	lam := opt.Lambda
	if lam == nil {
		lam = quantize.Reals{}
	}
	if opt.TrackAux && !lam.Exact() {
		panic("core: TrackAux requires the exact threshold set Λ = ℝ (Lemma III.11)")
	}
	// Price the wire under the same Λ the protocol rounds to, so
	// Metrics.WireBytes always reflects the quantized encoding (E6).
	eng = eng.WithWireLambda(lam)
	sink := &DistResult{B: make([]float64, g.N())}
	if opt.TrackAux {
		sink.AuxEdges = make([][]int, g.N())
	}
	run := &eliminationRun{T: opt.Rounds, lam: lam, trackAux: opt.TrackAux, sink: sink}
	met := eng.Run(g, run.program, opt.Rounds)
	run.slab.Release() // the sink holds copies; a run that panicked drops the slab
	res := &Result{B: sink.B, AuxEdges: sink.AuxEdges, Rounds: met.Rounds}
	return res, met
}

func (p *eliminationProgram) Init(c *dist.Ctx) {
	p.Start(p.id, c.Neighbors(), c.Peers(), &p.run.slab)
	if len(c.Neighbors()) == 0 {
		p.finish(c) // isolated: nothing to say or hear
	}
}

func (p *eliminationProgram) Round(c *dist.Ctx, inbox []dist.Message) {
	last := c.Round() >= p.run.T
	// The auxiliary set comes from a live step of the final round.
	moved, auxArcs := p.Advance(inbox, p.run.lam, last && p.run.trackAux)
	if last {
		if p.run.trackAux {
			arcs := c.Neighbors()
			edges := make([]int, len(auxArcs))
			for k, ai := range auxArcs {
				edges[k] = arcs[ai].EdgeID
			}
			p.run.sink.AuxEdges[p.id] = edges
		}
		p.finish(c)
		return
	}
	if moved {
		c.Broadcast(dist.Message{F0: p.b})
	} else {
		c.SleepUntil(p.run.T) // nothing to compute until somebody speaks; round T publishes
	}
}

func (p *eliminationProgram) finish(c *dist.Ctx) {
	p.run.sink.B[p.id] = p.b
	c.Halt()
}

// CheckInvariants verifies the two invariants of Definition III.7 for a
// state (B, AuxEdges) produced with Λ = ℝ:
//
//  1. for each node v, Σ_{e ∈ N_v} w_e ≤ b_v (up to floating-point slack);
//  2. for each edge {u,v}, e ∈ N_u or e ∈ N_v.
//
// It returns the first violation found, or ok = true.
func CheckInvariants(g *graph.Graph, B []float64, auxEdges [][]int) (ok bool, detail string) {
	const slack = 1e-9
	covered := make([]bool, g.M())
	for v := 0; v < g.N(); v++ {
		sum := 0.0
		for _, eid := range auxEdges[v] {
			sum += g.Edges()[eid].W
			covered[eid] = true
		}
		if sum > B[v]*(1+slack)+slack {
			return false, invariantDetail1(v, sum, B[v])
		}
	}
	for eid, c := range covered {
		if !c {
			e := g.Edges()[eid]
			return false, invariantDetail2(eid, e.U, e.V)
		}
	}
	return true, ""
}

func invariantDetail1(v int, sum, b float64) string {
	return fmt.Sprintf("invariant 1 violated at node %d: Σw(N_v)=%g > b_v=%g", v, sum, b)
}

func invariantDetail2(eid, u, v int) string {
	return fmt.Sprintf("invariant 2 violated: edge %d {%d,%d} unassigned", eid, u, v)
}
