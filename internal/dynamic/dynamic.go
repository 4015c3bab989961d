package dynamic

import (
	"math"
	"slices"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
)

// Maintainer tracks β_T values of a mutable graph: an Adjacency plus the
// per-round history of the elimination procedure on it.
type Maintainer struct {
	T   int
	adj *Adjacency
	// hist[t][v] = β_t(v); hist[0][v] = +∞ (the initial surviving number).
	hist [][]float64
	// eval scratch, grown to the largest degree evaluated so far
	bs, ws  []float64
	scratch []int
	// Frontier of the repair in flight, reused across batches: seeds are the
	// endpoints of the applied ops, cand the nodes to evaluate this round,
	// moved those whose value moved last round (after a repair: in round T);
	// mark[x] == gen means x is already in cand.
	seeds, cand []graph.NodeID
	moved       []Move
	mark        []uint32
	gen         uint32
	// Stats accumulates work counters across updates.
	Stats Stats
}

// Move is one node whose value a repair round changed, with the value it
// held before.
type Move struct {
	Node graph.NodeID
	Old  float64
}

// Stats reports incremental-work counters.
type Stats struct {
	// Updates is the number of edge mutations applied (ops, not batches).
	Updates int
	// Reevaluated counts node-rounds evaluated by the batched repairs: each
	// (t, x) at most once per batch, however many of its ops touch it, and a
	// non-seed x only when a neighbour's move could reach β_t(x) (see repair).
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
	m := &Maintainer{T: T, adj: NewAdjacency(g), mark: make([]uint32, n)}
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
	arcs := m.adj.adj[v]
	if d := len(arcs); d > cap(m.scratch) {
		// Inserts can push a degree past anything seen so far; scratch is
		// handed to UpdateValue by value, so it has to be grown here.
		m.bs, m.ws, m.scratch = make([]float64, 0, 2*d), make([]float64, 0, 2*d), make([]int, 0, 2*d)
	}
	m.bs = m.bs[:0]
	m.ws = m.ws[:0]
	prev := m.hist[t-1]
	for _, a := range arcs {
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

// Adjacency returns the graph the values are maintained on, for reading (its
// Hash, its topology). It aliases internal state: mutate it only through
// ApplyDelta, or the history goes stale.
func (m *Maintainer) Adjacency() *Adjacency { return m.adj }

// Graph materializes the current adjacency (see Adjacency.Graph).
func (m *Maintainer) Graph() *graph.Graph { return m.adj.Graph() }

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
	applied, err := m.adj.Apply(d)
	m.seeds = m.seeds[:0]
	for _, op := range d.Ops[:applied] {
		m.seeds = append(m.seeds, op.U, op.V)
	}
	m.Stats.Updates += applied
	m.repair()
	return err
}

// Moved returns the nodes whose β_T the last ApplyDelta moved, ascending,
// each with the value it held before — the batch's change set, known from
// the repair without comparing n values. The slice aliases internal state
// and is valid until the next ApplyDelta.
func (m *Maintainer) Moved() []Move { return m.moved }

// repair re-evaluates the history after the adjacency of the seeds changed.
// The round-t frontier contains every node whose β_t may differ: the seeds
// (whose update expression changed, in every round — so the loop runs to T
// even when the frontier dies) and each neighbour z of a node x that moved in
// round t-1, unless old_x and new_x lie strictly on the same side of the
// stored r = β_t(z). Algorithm 3's update is a threshold function,
// r = max{b′ : S(b′) ≥ b′} with S(b′) = Σ_{u : b_u ≥ b′} w_u, and such a
// move cannot reach it: inside (r, ∞) it changes S only on b′ ∈ (a, max] for
// a = min(old, new) > r, where S(b′) ≤ S(a) < a < b′ stays infeasible; inside
// (−∞, r) it changes S only below r; r stands, and several such neighbours
// compose because r never moved (exact under this package's contract:
// Λ = ℝ, exactly summable weights). x itself is reached through its self-loop
// arc if it has one. Each (t, x) is evaluated once, against an already final
// hist[t-1], so hist[t] ends as the from-scratch β_t of the mutated graph.
func (m *Maintainer) repair() {
	m.moved = m.moved[:0]
	for t := 1; t <= m.T; t++ {
		if m.gen++; m.gen == 0 { // wrapped: stale marks could alias
			clear(m.mark)
			m.gen = 1
		}
		m.cand = m.cand[:0]
		for _, x := range m.seeds {
			m.push(x)
		}
		prev, cur := m.hist[t-1], m.hist[t]
		for _, mv := range m.moved {
			old, now := mv.Old, prev[mv.Node]
			for _, a := range m.adj.adj[mv.Node] {
				if r := cur[a.to]; (old > r && now > r) || (old < r && now < r) {
					continue
				}
				m.push(a.to)
			}
		}
		m.moved = m.moved[:0]
		for _, x := range m.cand {
			if nb := m.eval(t, x); nb != cur[x] {
				m.moved = append(m.moved, Move{Node: x, Old: cur[x]})
				cur[x] = nb
			}
		}
		m.Stats.Reevaluated += int64(len(m.cand))
		m.Stats.Changed += int64(len(m.moved))
	}
	slices.SortFunc(m.moved, func(a, b Move) int { return a.Node - b.Node })
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
