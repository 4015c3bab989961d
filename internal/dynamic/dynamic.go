package dynamic

import (
	"fmt"
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
	// mass[t][v] = S_t(v) and above[t][v] = G_t(v) for t ≥ 1: the weight of
	// v's arcs whose far end reads at least β_t(v) in round t-1, and of those
	// reading strictly above it, kept exact through every repair (see repair
	// and settle) because every weight held is Summable.
	mass, above [][]float64
	// gather scratch, grown to the largest degree gathered so far plus one
	bs, ws  []float64
	scratch []int
	// Frontier of the repair in flight, reused across batches: cand the nodes
	// to settle this round, moved those whose value moved last round (after
	// a repair: in round T); mark[x] == gen means x is already in cand.
	// far[2i], far[2i+1] are the values op i's U and V held in the previous
	// round before the repair touched it — what a deleted arc's far end read,
	// and where an inserted one enters the kept masses; opW[i] is the weight
	// op i added or removed.
	cand  []graph.NodeID
	moved []Move
	far   []float64
	opW   []float64
	mark  []uint32
	gen   uint32
	// stood, fell and rose count the candidates the kept masses settled: by
	// two comparisons, by gathering the arcs below a value that fell, or those
	// above one that rose.
	stood, fell, rose int64
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
	// Verified counts those evaluations whose stored value was still
	// feasible, so the answer did not fall: the kept masses settled them with
	// no gather when the value stood, or a gather of the arcs above it did
	// when it rose (see settle).
	Verified int64
	// Changed counts those node-rounds whose value actually changed.
	Changed int64
}

// New builds a Maintainer for g with round budget T (use
// core.TForEpsilon(n, eps) for a 2(1+eps) guarantee) by the repair's own
// loops, seeded with every node: round 1 is stored at +∞, where S is the
// weighted degree and G is 0, and each later round is stored at the one
// before, masses included — round t-1's values are round t-2's function, so
// that is a consistent history, and round t-1's moves repair it. New panics on
// T < 1 and on a weight outside the exact-sum contract (Summable), and leaves
// Stats at zero.
func New(g *graph.Graph, T int) *Maintainer {
	if T < 1 {
		panic("dynamic: T must be >= 1")
	}
	n := g.N()
	m := &Maintainer{T: T, adj: NewAdjacency(g), mark: make([]uint32, n),
		hist: make([][]float64, T+1), mass: make([][]float64, T+1), above: make([][]float64, T+1),
		cand: make([]graph.NodeID, 0, n), moved: make([]Move, 0, n)}
	m.hist[0] = slices.Repeat([]float64{math.Inf(1)}, n)
	m.hist[1], m.mass[1], m.above[1] = slices.Clone(m.hist[0]), make([]float64, n), make([]float64, n)
	for v, arcs := range m.adj.adj {
		for _, a := range arcs {
			if !Summable(a.w) {
				panic(fmt.Sprintf("dynamic: edge {%d,%d}: weight %v is not exactly summable", v, a.to, a.w))
			}
			m.mass[1][v] += a.w
		}
	}
	m.begin()
	for v := range n {
		m.push(v)
	}
	m.round(1)
	for t := 2; t <= T; t++ {
		m.hist[t], m.mass[t], m.above[t] = slices.Clone(m.hist[t-1]), slices.Clone(m.mass[t-1]), slices.Clone(m.above[t-1])
		m.begin()
		m.round(t)
	}
	m.moved, m.Stats, m.stood, m.fell, m.rose = m.moved[:0], Stats{}, 0, 0, 0
	return m
}

// Summable is the exact-sum contract (DESIGN.md §10.2) as one predicate on an
// edge weight: a multiple of 2⁻¹⁰ no larger than 2²⁰. Any sum of up to 2²³
// such weights is exact in a float64 whatever the order, so the Maintainer,
// the elimination protocol and a fresh run — which add a node's arcs in
// different orders — agree bit for bit, and a kept sum never drifts from a
// recount. The Maintainer holds every weight to it: New panics on a base
// weight outside it, and Validate and ApplyDelta refuse such an insert.
func Summable(w float64) bool {
	return w >= 0 && w <= 1<<20 && w*(1<<10) == math.Trunc(w*(1<<10))
}

// settle decides β_t(v) from its pivot p, the stored value, with S(p) = s
// and G(p) = g, the kept weights of v's arcs reading at or above p and
// strictly above it, and returns the answer, S and G at it, and whether p
// was feasible:
//
//   - falls, s < p: see fall;
//   - stands, g ≤ p ≤ s: S(p) ≥ p makes p feasible, and above p S ≤ g ≤ p
//     keeps everything infeasible, so β_t(v) = p — no arc is read;
//   - rises, g > p: see rise, with the ties weighing s − g.
//
// The split holds for any p, so verified (not fallen) is not a claim about
// the pivot's origin.
func (m *Maintainer) settle(t int, v graph.NodeID, p, s, g float64) (b, sb, gb float64, verified bool) {
	switch {
	case s < p:
		b, sb, gb = m.fall(t, v, p, s)
		return b, sb, gb, false
	case g <= p:
		return p, s, g, true
	}
	b, sb, gb = m.rise(t, v, p, s-g)
	return b, sb, gb, true
}

// rise computes β_t(v) when it lies above p, given the weight at of the arcs
// reading exactly p. Only the arcs above p count there: UpdateValue gets them
// plus one element (p, at) standing for the ties (in max_k min(b_(k), S_k) a
// run of equal values peaks at its last member, which is that element). S and
// G at the answer are the gathered arcs at or above it and strictly above it.
func (m *Maintainer) rise(t int, v graph.NodeID, p, at float64) (b, s, g float64) {
	arcs := m.adj.adj[v]
	m.grow(len(arcs))
	prev := m.hist[t-1]
	bs, ws := m.bs[:0], m.ws[:0]
	for _, a := range arcs {
		if b := prev[a.to]; b > p {
			bs = append(bs, b)
			ws = append(ws, a.w)
		}
	}
	b = core.UpdateValue(append(bs, p), append(ws, at), m.scratch)
	s, g = sums(bs, ws, b, 0)
	return b, s, g
}

// fall computes β_t(v) when the value p has fallen, given S(p) = sp < p, and
// S and G at the answer. Everything at or above p is infeasible, and below p
// those arcs count only as their total, so UpdateValue gets the arcs below p
// plus one element (p, sp) — its term is the one the full descending order
// reaches at its last arc ≥ p. The answer is below p, so S and G at it are sp
// plus the gathered arcs at or above it and strictly above it.
func (m *Maintainer) fall(t int, v graph.NodeID, p, sp float64) (b, s, g float64) {
	arcs := m.adj.adj[v]
	m.grow(len(arcs))
	prev := m.hist[t-1]
	bs, ws := m.bs[:0], m.ws[:0]
	for _, a := range arcs {
		if b := prev[a.to]; b < p {
			bs = append(bs, b)
			ws = append(ws, a.w)
		}
	}
	b = core.UpdateValue(append(bs, p), append(ws, sp), m.scratch)
	s, g = sums(bs, ws, b, sp)
	return b, s, g
}

// sums returns base plus the gathered weights whose value is at least b, and
// base plus those whose value is above b.
func sums(bs, ws []float64, b, base float64) (s, g float64) {
	s, g = base, base
	for i, x := range bs {
		if x >= b {
			s += ws[i]
			if x > b {
				g += ws[i]
			}
		}
	}
	return s, g
}

// grow sizes the gather scratch for a node of degree d. Inserts can push a
// degree past anything seen so far; scratch is handed to UpdateValue by
// value, so it has to be grown here — with room for the element at p on top
// of every arc on one side of it.
func (m *Maintainer) grow(d int) {
	if d++; d > cap(m.scratch) {
		m.bs, m.ws, m.scratch = make([]float64, 0, 2*d), make([]float64, 0, 2*d), make([]int, 0, 2*d)
	}
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
// delete of a missing edge, or an insert outside the exact-sum contract
// (Summable), fails the batch at its op index with the Maintainer
// reflecting exactly the prefix that applied, repaired (a failed
// delta must abort a run, not fork state silently — callers treat the error
// the way the wire protocol treats a digest mismatch).
func (m *Maintainer) ApplyDelta(d dist.GraphDelta) error {
	m.opW = slices.Grow(m.opW[:0], len(d.Ops))[:len(d.Ops)]
	applied, err := m.adj.apply(d, m.opW)
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
//
// The same loops keep the round's masses S_t = S(r) and G_t = G(r), the weight
// reading strictly above r, exact before any candidate is settled: an op's arc
// leaves them, or enters them as if it had always read its far end's
// pre-repair value, when that value is ≥ r (S) or > r (G), a self-loop once; a
// move old → now then carries every current arc across — S out when now < r ≤
// old and in when old < r ≤ now, G out when now ≤ r < old and in when old ≤ r
// < now. A down-move admits the nodes whose S it lowers, an up-move those whose
// G it raises.
func (m *Maintainer) repair(ops []dist.EdgeOp) {
	m.moved = m.moved[:0]
	m.far = m.far[:0]
	for range ops {
		m.far = append(m.far, math.Inf(1), math.Inf(1))
	}
	for t := 1; t <= m.T; t++ {
		m.begin()
		prev, cur, mass, above := m.hist[t-1], m.hist[t], m.mass[t], m.above[t]
		for i, op := range ops {
			farU, farV := m.far[2*i], m.far[2*i+1]
			m.far[2*i], m.far[2*i+1] = cur[op.U], cur[op.V] // before round t overwrites them
			w := m.opW[i]
			if op.Del {
				w = -w
			}
			kept(mass, above, op.U, cur[op.U], farV, w)
			if op.U != op.V {
				kept(mass, above, op.V, cur[op.V], farU, w)
			}
			if op.Del {
				if cur[op.U] <= farV {
					m.push(op.U)
				}
				if cur[op.V] <= farU {
					m.push(op.V)
				}
				continue
			}
			if cur[op.U] < prev[op.V] {
				m.push(op.U)
			}
			if cur[op.V] < prev[op.U] {
				m.push(op.V)
			}
		}
		m.round(t)
	}
	slices.SortFunc(m.moved, func(a, b Move) int { return a.Node - b.Node })
}

// begin opens a round's frontier: no candidates, and a fresh generation of
// marks.
func (m *Maintainer) begin() {
	if m.gen++; m.gen == 0 { // wrapped: stale marks could alias
		clear(m.mark)
		m.gen = 1
	}
	m.cand = m.cand[:0]
}

// round finishes round t of a repair whose seeds are in cand: it carries the
// previous round's moves across the kept masses, admits the nodes they cross,
// settles every candidate and leaves the round's own moves in moved.
func (m *Maintainer) round(t int) {
	prev, cur, mass, above := m.hist[t-1], m.hist[t], m.mass[t], m.above[t]
	for _, mv := range m.moved {
		old, now := mv.Old, prev[mv.Node]
		if now < old {
			for _, a := range m.adj.adj[mv.Node] {
				r := cur[a.to]
				if now < r && r <= old {
					m.push(a.to)
					mass[a.to] -= a.w
				}
				if now <= r && r < old {
					above[a.to] -= a.w
				}
			}
			continue
		}
		for _, a := range m.adj.adj[mv.Node] {
			r := cur[a.to]
			if old <= r && r < now {
				m.push(a.to)
				above[a.to] += a.w
			}
			if old < r && r <= now {
				mass[a.to] += a.w
			}
		}
	}
	m.moved = m.moved[:0]
	for _, x := range m.cand {
		p := cur[x]
		nb, s, g, verified := m.settle(t, x, p, mass[x], above[x])
		mass[x], above[x] = s, g
		switch {
		case nb < p:
			m.fell++
		case nb > p:
			m.rose++
		default:
			m.stood++
		}
		if verified {
			m.Stats.Verified++
		}
		if nb != p {
			m.moved = append(m.moved, Move{Node: x, Old: p})
			cur[x] = nb
		}
	}
	m.Stats.Reevaluated += int64(len(m.cand))
	m.Stats.Changed += int64(len(m.moved))
}

// kept moves an op's arc of weight w (negative for a delete) into node x's
// kept masses, whose stored value is r, as if it had always read far.
func kept(mass, above []float64, x graph.NodeID, r, far, w float64) {
	if far >= r {
		mass[x] += w
		if far > r {
			above[x] += w
		}
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
