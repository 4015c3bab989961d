package dynamic

import (
	"fmt"
	"math"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
)

// arc is one mutable adjacency entry.
type arc struct {
	to graph.NodeID
	w  float64
}

// Maintainer tracks β_T values of a mutable graph.
type Maintainer struct {
	T   int
	n   int
	adj [][]arc
	// hist[t][v] = β_t(v); hist[0][v] = +∞ (the initial surviving number).
	hist [][]float64
	// eval scratch, grown to the largest degree evaluated so far
	bs, ws  []float64
	scratch []int
	// Frontier of the repair in flight, reused across batches: seeds are the
	// endpoints of the applied ops, cand the nodes to evaluate this round,
	// changed those whose value moved last round; mark[x] == gen means x is
	// already in cand.
	seeds, cand, changed []graph.NodeID
	mark                 []uint32
	gen                  uint32
	// Stats accumulates work counters across updates.
	Stats Stats
}

// Stats reports incremental-work counters.
type Stats struct {
	// Updates is the number of edge mutations applied (ops, not batches).
	Updates int
	// Reevaluated counts node-rounds evaluated by the batched repairs: each
	// (t, x) at most once per batch, however many of its ops touch it.
	Reevaluated int64
	// Changed counts those node-rounds whose value actually changed.
	Changed int64
}

// New builds a Maintainer for g with round budget T (use
// core.TForEpsilon(n, eps) for a 2(1+eps) guarantee).
func New(g *graph.Graph, T int) *Maintainer {
	if T < 1 {
		panic("dynamic: T must be >= 1")
	}
	n := g.N()
	m := &Maintainer{T: T, n: n, adj: make([][]arc, n), mark: make([]uint32, n)}
	for v := 0; v < n; v++ {
		arcs := g.Adj(v)
		m.adj[v] = make([]arc, 0, len(arcs))
		for _, a := range arcs {
			m.adj[v] = append(m.adj[v], arc{to: a.To, w: a.W})
		}
	}
	m.hist = make([][]float64, T+1)
	m.hist[0] = make([]float64, n)
	for v := range m.hist[0] {
		m.hist[0][v] = math.Inf(1)
	}
	for t := 1; t <= T; t++ {
		m.hist[t] = make([]float64, n)
		for v := 0; v < n; v++ {
			m.hist[t][v] = m.eval(t, v)
		}
	}
	return m
}

// eval recomputes β_t(v) from the round t-1 values.
func (m *Maintainer) eval(t int, v graph.NodeID) float64 {
	if d := len(m.adj[v]); d > cap(m.scratch) {
		// Inserts can push a degree past anything seen so far; scratch is
		// handed to UpdateValue by value, so it has to be grown here.
		m.bs, m.ws, m.scratch = make([]float64, 0, 2*d), make([]float64, 0, 2*d), make([]int, 0, 2*d)
	}
	m.bs = m.bs[:0]
	m.ws = m.ws[:0]
	prev := m.hist[t-1]
	for _, a := range m.adj[v] {
		m.bs = append(m.bs, prev[a.to])
		m.ws = append(m.ws, a.w)
	}
	return core.UpdateValue(m.bs, m.ws, m.scratch)
}

// B returns the current β_T values. The slice aliases internal state; do
// not modify it.
func (m *Maintainer) B() []float64 { return m.hist[m.T] }

// History returns β_t(v) for 1 ≤ t ≤ T.
func (m *Maintainer) History(t int) []float64 { return m.hist[t] }

// InsertEdge adds the undirected edge {u,v} (u == v for a self-loop) with
// weight w and repairs the affected history: a batch of one.
func (m *Maintainer) InsertEdge(u, v graph.NodeID, w float64) {
	if err := m.ApplyDelta(dist.GraphDelta{Ops: []dist.EdgeOp{{U: u, V: v, W: w}}}); err != nil {
		panic(err.Error())
	}
}

// DeleteEdge removes one copy of the undirected edge {u,v} and repairs the
// history; it reports whether such an edge existed. A batch of one.
func (m *Maintainer) DeleteEdge(u, v graph.NodeID) bool {
	return m.ApplyDelta(dist.GraphDelta{Ops: []dist.EdgeOp{{Del: true, U: u, V: v}}}) == nil
}

// ApplyDelta applies a batched churn delta — the oracle side of the cluster
// churn protocol (DESIGN.md §9): the same dist.GraphDelta an engine absorbs
// by rebuild-and-rerun, the Maintainer absorbs by frontier repair, and
// experiment E19 compares the two bills. The adjacency is mutated for every
// op in the delta's canonical application order, then ONE T-round repair
// runs over the union of the ops' endpoints, so a node touched by many ops
// of a batch is re-evaluated once per round, not once per op per round. A
// delete of a missing edge fails the batch at its op index with the
// Maintainer reflecting exactly the prefix that applied, repaired (a failed
// delta must abort a run, not fork state silently — callers treat the error
// the way the wire protocol treats a digest mismatch).
func (m *Maintainer) ApplyDelta(d dist.GraphDelta) error {
	m.seeds = m.seeds[:0]
	var err error
	for i, op := range d.Ops {
		if err = m.mutate(i, op); err != nil {
			break
		}
		m.seeds = append(m.seeds, op.U, op.V)
		m.Stats.Updates++
	}
	m.repair()
	return err
}

// mutate applies one op to the adjacency lists.
func (m *Maintainer) mutate(i int, op dist.EdgeOp) error {
	if op.U < 0 || op.U >= m.n || op.V < 0 || op.V >= m.n {
		return fmt.Errorf("dynamic: delta op %d: edge (%d,%d) out of range [0,%d)", i, op.U, op.V, m.n)
	}
	if op.Del {
		if !m.removeArc(op.U, op.V) {
			return fmt.Errorf("dynamic: delta op %d: delete of missing edge {%d,%d}", i, op.U, op.V)
		}
		if op.U != op.V && !m.removeArc(op.V, op.U) {
			panic("dynamic: adjacency lists out of sync")
		}
		return nil
	}
	if op.W < 0 || math.IsNaN(op.W) || math.IsInf(op.W, 0) {
		return fmt.Errorf("dynamic: delta op %d: invalid insert weight %v", i, op.W)
	}
	m.adj[op.U] = append(m.adj[op.U], arc{to: op.V, w: op.W})
	if op.U != op.V {
		m.adj[op.V] = append(m.adj[op.V], arc{to: op.U, w: op.W})
	}
	return nil
}

// removeArc removes the FIRST arc from→to in adjacency order,
// order-preserving. Both halves matter for the oracle contract: adjacency
// lists start in edge-insertion order (graph.Build lays CSR arcs out that
// way) and inserts append, so the first match is the lowest-index copy
// of the edge — exactly the one dist.GraphDelta.Apply deletes — and the
// shift (not a swap) keeps the order intact so *later* deletes keep
// picking canonical copies too. With a swap-remove, parallel edges of
// different weights could make the maintainer delete a different copy than
// the engines, silently forking the edge multiset.
func (m *Maintainer) removeArc(from, to graph.NodeID) bool {
	l := m.adj[from]
	for i := range l {
		if l[i].to == to {
			m.adj[from] = append(l[:i], l[i+1:]...)
			return true
		}
	}
	return false
}

// repair re-evaluates the history after the adjacency of the seeds changed.
// The round-t frontier contains exactly the nodes whose β_t may differ: the
// seeds (whose update expression changed, in every round — so the loop runs
// to T even when the frontier dies) and the changed nodes of round t-1 with
// their neighbors. Each (t, x) is evaluated once, against an already final
// hist[t-1], so hist[t] ends as the from-scratch β_t of the mutated graph.
func (m *Maintainer) repair() {
	m.changed = m.changed[:0]
	for t := 1; t <= m.T; t++ {
		if m.gen++; m.gen == 0 { // wrapped: stale marks could alias
			clear(m.mark)
			m.gen = 1
		}
		m.cand = m.cand[:0]
		for _, x := range m.seeds {
			m.push(x)
		}
		for _, x := range m.changed {
			m.push(x)
			for _, a := range m.adj[x] {
				m.push(a.to)
			}
		}
		m.changed = m.changed[:0]
		cur := m.hist[t]
		for _, x := range m.cand {
			if nb := m.eval(t, x); nb != cur[x] {
				cur[x] = nb
				m.changed = append(m.changed, x)
			}
		}
		m.Stats.Reevaluated += int64(len(m.cand))
		m.Stats.Changed += int64(len(m.changed))
	}
}

// push adds x to the current round's candidates once.
func (m *Maintainer) push(x graph.NodeID) {
	if m.mark[x] != m.gen {
		m.mark[x] = m.gen
		m.cand = append(m.cand, x)
	}
}

// DensestValue returns max_v β_T(v), a 2·n^{1/T}-approximation of the
// current maximum subset density ρ*: max_v c(v) ≥ max_v r(v) = ρ* gives
// the lower bound and Lemma III.3 the upper one. Maintaining it under
// churn is the "densest subgraph in evolving graphs" functionality of
// Epasto et al. / Hu et al. (both cited by the paper), obtained here for
// the cost of one slice scan after each repair.
func (m *Maintainer) DensestValue() float64 {
	best := 0.0
	for _, b := range m.hist[m.T] {
		if b > best {
			best = b
		}
	}
	return best
}

// Graph materializes the current adjacency as an immutable graph.Graph
// (used by tests to cross-check against a from-scratch run).
func (m *Maintainer) Graph() *graph.Graph {
	b := graph.NewBuilder(m.n)
	for v := 0; v < m.n; v++ {
		for _, a := range m.adj[v] {
			if a.to > v || a.to == v {
				b.AddEdge(v, a.to, a.w)
			}
		}
	}
	return b.Build()
}
