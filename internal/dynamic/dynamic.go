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
	// eval scratch, grown to the largest degree evaluated so far plus one
	bs, ws  []float64
	scratch []int
	// Frontier of the repair in flight, reused across batches: cand the nodes
	// to evaluate this round, moved those whose value moved last round (after
	// a repair: in round T); mark[x] == gen means x is already in cand.
	// far[2i], far[2i+1] are the values op i's U and V held in the previous
	// round before the repair touched it — what a deleted arc's far end read.
	cand  []graph.NodeID
	moved []Move
	far   []float64
	mark  []uint32
	gen   uint32
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
	// (t, x) at most once per batch, however many of its ops touch it, and
	// only when an op or a neighbour's move crosses β_t(x) (see repair).
	Reevaluated int64
	// Verified counts those evaluations the pivot pass settled — the stored
	// value was still feasible — without a full gather and heap (see eval).
	Verified int64
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
			m.hist[t][v], _ = m.eval(t, v, m.hist[t-1][v]) // β_t ≤ β_{t-1}
		}
	}
	return m
}

// eval computes β_t(v) from the round t-1 values, given a pivot p it is
// expected not to lie below (the stored β_t(v); in New, β_{t-1}(v)). One pass
// sums the weight at p and gathers only the arcs strictly above it. If the
// weight at or above p reaches p, then β_t(v) ≥ p and no arc below p can
// decide it, so the answer is UpdateValue of the gathered arcs plus one
// element (p, weight at p) standing for the ties — in max_k min(b_(k), S_k) a
// run of equal values peaks at its last member, which is that element; the
// sums are the same sums in another order, exact under this package's
// contract. This holds for any p, so verified is not a claim about the
// pivot's origin. Only a value that fell below p pays the full gather.
func (m *Maintainer) eval(t int, v graph.NodeID, p float64) (b float64, verified bool) {
	arcs := m.adj.adj[v]
	if d := len(arcs) + 1; d > cap(m.scratch) {
		// Inserts can push a degree past anything seen so far; scratch is
		// handed to UpdateValue by value, so it has to be grown here — with
		// room for the tie element on top of d arcs all above the pivot.
		m.bs, m.ws, m.scratch = make([]float64, 0, 2*d), make([]float64, 0, 2*d), make([]int, 0, 2*d)
	}
	bs, ws := m.bs[:0], m.ws[:0]
	prev := m.hist[t-1]
	mass, at := 0.0, 0.0
	for _, a := range arcs {
		if b := prev[a.to]; b > p {
			bs = append(bs, b)
			ws = append(ws, a.w)
			mass += a.w
		} else if b == p {
			at += a.w
		}
	}
	if mass+at >= p {
		return core.UpdateValue(append(bs, p), append(ws, at), m.scratch), true
	}
	bs, ws = bs[:0], ws[:0]
	for _, a := range arcs {
		bs = append(bs, prev[a.to])
		ws = append(ws, a.w)
	}
	return core.UpdateValue(bs, ws, m.scratch), false
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
// runs for all of them, so a node touched by many ops of a batch is
// re-evaluated at most once per round, not once per op per round. A
// delete of a missing edge fails the batch at its op index with the
// Maintainer reflecting exactly the prefix that applied, repaired (a failed
// delta must abort a run, not fork state silently — callers treat the error
// the way the wire protocol treats a digest mismatch).
func (m *Maintainer) ApplyDelta(d dist.GraphDelta) error {
	applied, err := m.adj.Apply(d)
	m.Stats.Updates += applied
	m.repair(d.Ops[:applied])
	return err
}

// Moved returns the nodes whose β_T the last ApplyDelta moved, ascending,
// each with the value it held before — the batch's change set, known from
// the repair without comparing n values. The slice aliases internal state
// and is valid until the next ApplyDelta.
func (m *Maintainer) Moved() []Move { return m.moved }

// repair re-evaluates the history after ops were applied to the adjacency.
// Algorithm 3's update is a threshold function of the (value, weight) pairs a
// node's arcs read: r = max{b′ : S(b′) ≥ b′}, S(b′) = Σ_{u : b_u ≥ b′} w_u.
// Between the stored hist[t-1] and the repaired one every arc of z makes at
// most one move old → new — a surviving arc when its far end moved in round
// t-1, an inserted arc from −∞ to its far end's new value, a deleted arc from
// its far end's pre-repair value to −∞ — and the round-t frontier admits z
// only if some move crosses the stored r = β_t(z):
//
//   - down, new < r ≤ old: the only moves that lower S(r), so the only ones
//     r can fall by;
//   - up, old ≤ r < new: the only moves that raise S somewhere above r from a
//     start not above r.
//
// Any other set of moves leaves r where it is: none of them lowers S(r), and
// for b′ > r the arcs that newly count towards S(b′) all started in (r, b′),
// so with a the least such start the new S(b′) ≤ old S(a) < a < b′ — above r
// everything stays infeasible. Landing on r (from either side) is not
// crossing it. An op is therefore a seed only while it can reach its
// endpoints, not in every round; round 1 always can (hist[0] = +∞). A
// self-loop's far end is the node itself. Exact under this package's
// contract: Λ = ℝ, exactly summable weights. Each (t, x) is evaluated once,
// against an already final hist[t-1], so hist[t] ends as the from-scratch β_t
// of the mutated graph.
func (m *Maintainer) repair(ops []dist.EdgeOp) {
	m.moved = m.moved[:0]
	m.far = m.far[:0]
	for range ops {
		m.far = append(m.far, math.Inf(1), math.Inf(1))
	}
	for t := 1; t <= m.T; t++ {
		if m.gen++; m.gen == 0 { // wrapped: stale marks could alias
			clear(m.mark)
			m.gen = 1
		}
		m.cand = m.cand[:0]
		prev, cur := m.hist[t-1], m.hist[t]
		for i, op := range ops {
			if !op.Del {
				if cur[op.U] < prev[op.V] {
					m.push(op.U)
				}
				if cur[op.V] < prev[op.U] {
					m.push(op.V)
				}
				continue
			}
			farU, farV := m.far[2*i], m.far[2*i+1]
			if cur[op.U] <= farV {
				m.push(op.U)
			}
			if cur[op.V] <= farU {
				m.push(op.V)
			}
			m.far[2*i], m.far[2*i+1] = cur[op.U], cur[op.V] // before round t overwrites them
		}
		for _, mv := range m.moved {
			old, now := mv.Old, prev[mv.Node]
			if now < old {
				for _, a := range m.adj.adj[mv.Node] {
					if r := cur[a.to]; now < r && r <= old {
						m.push(a.to)
					}
				}
			} else {
				for _, a := range m.adj.adj[mv.Node] {
					if r := cur[a.to]; old <= r && r < now {
						m.push(a.to)
					}
				}
			}
		}
		m.moved = m.moved[:0]
		for _, x := range m.cand {
			nb, verified := m.eval(t, x, cur[x])
			if verified {
				m.Stats.Verified++
			}
			if nb != cur[x] {
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
