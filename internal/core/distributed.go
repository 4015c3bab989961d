package core

import (
	"fmt"
	"math"
	"sync"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// eliminationProgram is the per-node dist.Program realizing Algorithm 2.
// Protocol: in its Init a node broadcasts its initial surviving number +∞;
// in round t it feeds the values received from its neighbors to Update,
// rounds the result down to Λ, and broadcasts the new value — except in the
// final round, where it halts instead (the last broadcast would never be
// read).
type eliminationProgram struct {
	run *eliminationRun
	id  graph.NodeID
	b   float64
	upd Updater
	// nbrB is the latest value per neighbor, flat (DESIGN.md §7).
	nbrB PeerTable
}

// eliminationRun is what the programs of one run share: the protocol
// parameters, the result sink, and the slabs their state is carved from —
// the programs themselves included, so a run's allocation count does not
// grow with n.
type eliminationRun struct {
	T        int
	lam      quantize.Lambda
	trackAux bool
	sink     *DistResult
	slab     Slab
	progs    []eliminationProgram // current chunk, guarded by slab.mu
}

func (r *eliminationRun) program(v graph.NodeID) dist.Program {
	r.slab.mu.Lock()
	p := &carve(&r.progs, 1)[0]
	r.slab.mu.Unlock()
	p.run, p.id = r, v
	return p
}

// DistResult collects the outputs of a distributed elimination run.
// Fields are written once per node (at halt time), guarded by mu so the
// parallel engine can be used.
type DistResult struct {
	mu       sync.Mutex
	B        []float64
	AuxEdges [][]int
}

// RunDistributed executes Algorithm 2 as a message-passing protocol on the
// given engine for T = opt.Rounds rounds (opt.Rounds must be > 0;
// convergence mode is only available in the centralized Run). It returns
// the surviving numbers, the auxiliary edge sets (if opt.TrackAux), and the
// engine's communication metrics.
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
	res := &Result{B: sink.B, AuxEdges: sink.AuxEdges, Rounds: met.Rounds}
	return res, met
}

func (p *eliminationProgram) Init(c *dist.Ctx) {
	p.upd.Init(c.Neighbors(), &p.run.slab)
	p.b = math.Inf(1)
	p.nbrB.Init(p.id, c.Neighbors(), c.Peers(), math.Inf(1), &p.run.slab)
	if len(c.Neighbors()) == 0 {
		// Isolated node: β_t = 0 for all t ≥ 1; nothing to say or hear.
		p.b = 0
		p.finish(c)
		return
	}
	c.Broadcast(dist.Message{F0: p.b})
}

func (p *eliminationProgram) Round(c *dist.Ctx, inbox []dist.Message) {
	p.nbrB.Merge(inbox)
	arcs := c.Neighbors()
	nb, auxArcs := p.upd.Step(func(i int) float64 {
		return p.nbrB.ArcVal(i, p.b) // a self-loop arc sees the node's own value
	})
	p.b = p.run.lam.RoundDown(nb)
	if c.Round() >= p.run.T {
		if p.run.trackAux {
			edges := make([]int, len(auxArcs))
			for k, ai := range auxArcs {
				edges[k] = arcs[ai].EdgeID
			}
			p.run.sink.mu.Lock()
			p.run.sink.AuxEdges[p.id] = edges
			p.run.sink.mu.Unlock()
		}
		p.finish(c)
		return
	}
	c.Broadcast(dist.Message{F0: p.b})
}

func (p *eliminationProgram) finish(c *dist.Ctx) {
	p.run.sink.mu.Lock()
	p.run.sink.B[p.id] = p.b
	p.run.sink.mu.Unlock()
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
