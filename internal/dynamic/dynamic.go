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
	// mass[t][v] = S_t(v) for t ≥ 1: the weight of v's arcs whose far end
	// reads at least β_t(v) in round t-1, kept exact through every repair
	// (see repair and settle). nil once the Maintainer has held a weight
	// outside the exact-sum contract (Summable): from then on every candidate
	// is evaluated by a pass.
	mass [][]float64
	// eval scratch, grown to the largest degree evaluated so far plus one
	bs, ws  []float64
	scratch []int
	// Frontier of the repair in flight, reused across batches: cand the nodes
	// to evaluate this round, moved those whose value moved last round (after
	// a repair: in round T); mark[x] == gen means x is already in cand.
	// up[x] == gen means an upward crossing or an insert admitted x. far[2i],
	// far[2i+1] are the values op i's U and V held in the previous round
	// before the repair touched it — what a deleted arc's far end read, and
	// where an inserted one enters the kept mass; opW[i] is the weight op i
	// added or removed.
	cand  []graph.NodeID
	moved []Move
	far   []float64
	opW   []float64
	mark  []uint32
	up    []uint32
	gen   uint32
	// stood and fell count the candidates the kept mass settled without the
	// pass eval makes: by one comparison, or by gathering the arcs below a
	// value that fell.
	stood, fell int64
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
	// feasible, so the answer did not fall: the kept mass or the pivot pass
	// settled them with no gather when the value stood, or a gather of the
	// arcs above it did when it rose (see settle and eval).
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
	m := &Maintainer{T: T, adj: NewAdjacency(g), mark: make([]uint32, n), up: make([]uint32, n)}
	m.hist = make([][]float64, T+1)
	m.hist[0] = make([]float64, n)
	for v := range m.hist[0] {
		m.hist[0][v] = math.Inf(1)
	}
	exact := true
	for _, arcs := range m.adj.adj {
		for _, a := range arcs {
			exact = exact && Summable(a.w)
		}
	}
	if exact {
		m.mass = make([][]float64, T+1)
	}
	for t := 1; t <= T; t++ {
		m.hist[t] = make([]float64, n)
		var mass []float64
		if exact {
			mass = make([]float64, n)
			m.mass[t] = mass
		}
		for v := 0; v < n; v++ {
			b, s, _ := m.eval(t, v, m.hist[t-1][v]) // β_t ≤ β_{t-1}
			m.hist[t][v] = b
			if mass != nil {
				mass[v] = s
			}
		}
	}
	return m
}

// Summable is the exact-sum contract (DESIGN.md §10.2) as one predicate on an
// edge weight: a multiple of 2⁻¹⁰ no larger than 2²⁰. Any sum of up to 2²³
// such weights is exact in a float64 whatever the order, so the Maintainer,
// the elimination protocol and a fresh run — which add a node's arcs in
// different orders — agree bit for bit, and a kept sum never drifts from a
// recount. Sessions hold every weight to it; the Maintainer keeps its mass
// only while every weight it has held passes.
func Summable(w float64) bool {
	return w >= 0 && w <= 1<<20 && w*(1<<10) == math.Trunc(w*(1<<10))
}

// eval computes β_t(v) from the round t-1 values around a pivot p (the stored
// β_t(v); in New, β_{t-1}(v)), and S(b) = Σ_{b_u ≥ b} w_u at its answer b —
// the kept mass when the pivot is the stored value. One pass gathers nothing
// and sums two weights of S: mass, the arcs reading above p, and at, those
// reading exactly p. That decides which side of p the answer lies on:
//
//   - stands, mass ≤ p ≤ mass + at: S(p) ≥ p makes p feasible, and above p
//     S ≤ mass ≤ p keeps everything infeasible, so β_t(v) = p and S = mass +
//     at — no gather, no kernel;
//   - rises, mass > p: the answer is above p, where only the arcs above p
//     count; UpdateValue gets them plus one element (p, at) standing for the
//     ties (in max_k min(b_(k), S_k) a run of equal values peaks at its last
//     member, which is that element), and S is the gathered arcs at or above
//     the answer;
//   - falls, mass + at < p: see fall, with S(p) = mass + at.
//
// The sums are the same sums in another order, exact under this package's
// contract, and the case split holds for any p, so verified (not fallen) is
// not a claim about the pivot's origin.
func (m *Maintainer) eval(t int, v graph.NodeID, p float64) (b, s float64, verified bool) {
	arcs := m.adj.adj[v]
	prev := m.hist[t-1]
	mass, at := 0.0, 0.0
	for _, a := range arcs {
		if b := prev[a.to]; b > p {
			mass += a.w
		} else if b == p {
			at += a.w
		}
	}
	if mass+at < p {
		b, s = m.fall(t, v, p, mass+at)
		return b, s, false
	}
	if mass <= p {
		return p, mass + at, true
	}
	m.grow(len(arcs))
	bs, ws := m.bs[:0], m.ws[:0]
	for _, a := range arcs {
		if b := prev[a.to]; b > p {
			bs = append(bs, b)
			ws = append(ws, a.w)
		}
	}
	// The element at p carries the ties.
	b = core.UpdateValue(append(bs, p), append(ws, at), m.scratch)
	return b, atOrAbove(bs, ws, b, 0), true
}

// fall computes β_t(v) when the value p has fallen, given S(p) = sp < p, and
// S at the answer. Everything at or above p is infeasible, and below p those
// arcs count only as their total, so UpdateValue gets the arcs below p plus
// one element (p, sp) — its term is the one the full descending order reaches
// at its last arc ≥ p. S at the answer is sp plus the gathered arcs at or
// above it.
func (m *Maintainer) fall(t int, v graph.NodeID, p, sp float64) (b, s float64) {
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
	return b, atOrAbove(bs, ws, b, sp)
}

// atOrAbove returns s plus the gathered weights whose value is at least b.
func atOrAbove(bs, ws []float64, b, s float64) float64 {
	for i, x := range bs {
		if x >= b {
			s += ws[i]
		}
	}
	return s
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
// delete of a missing edge fails the batch at its op index with the
// Maintainer reflecting exactly the prefix that applied, repaired (a failed
// delta must abort a run, not fork state silently — callers treat the error
// the way the wire protocol treats a digest mismatch).
func (m *Maintainer) ApplyDelta(d dist.GraphDelta) error {
	m.opW = slices.Grow(m.opW[:0], len(d.Ops))[:len(d.Ops)]
	applied, err := m.adj.apply(d, m.opW)
	m.Stats.Updates += applied
	for _, op := range d.Ops[:applied] {
		if !op.Del && !Summable(op.W) {
			m.mass = nil // a kept sum could drift from a recount from here on
		}
	}
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
// The same loops keep the round's mass S_t = S(r) exact before any candidate
// is settled: an op's arc leaves it, or enters it as if it had always read
// its far end's pre-repair value, when that value is ≥ r (a self-loop once);
// a move old → now then carries every current arc across r — out when now <
// r ≤ old, in when old < r ≤ now.
func (m *Maintainer) repair(ops []dist.EdgeOp) {
	m.moved = m.moved[:0]
	m.far = m.far[:0]
	for range ops {
		m.far = append(m.far, math.Inf(1), math.Inf(1))
	}
	for t := 1; t <= m.T; t++ {
		if m.gen++; m.gen == 0 { // wrapped: stale marks could alias
			clear(m.mark)
			clear(m.up)
			m.gen = 1
		}
		m.cand = m.cand[:0]
		prev, cur := m.hist[t-1], m.hist[t]
		var mass []float64
		if m.mass != nil {
			mass = m.mass[t]
		}
		for i, op := range ops {
			farU, farV := m.far[2*i], m.far[2*i+1]
			m.far[2*i], m.far[2*i+1] = cur[op.U], cur[op.V] // before round t overwrites them
			if mass != nil {
				w := m.opW[i]
				if op.Del {
					w = -w
				}
				if farV >= cur[op.U] {
					mass[op.U] += w
				}
				if op.U != op.V && farU >= cur[op.V] {
					mass[op.V] += w
				}
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
				m.pushUp(op.U)
			}
			if cur[op.V] < prev[op.U] {
				m.pushUp(op.V)
			}
		}
		for _, mv := range m.moved {
			old, now := mv.Old, prev[mv.Node]
			if now < old {
				for _, a := range m.adj.adj[mv.Node] {
					if r := cur[a.to]; now < r && r <= old {
						m.push(a.to)
						if mass != nil {
							mass[a.to] -= a.w
						}
					}
				}
				continue
			}
			for _, a := range m.adj.adj[mv.Node] {
				r := cur[a.to]
				if old <= r && r < now {
					m.pushUp(a.to)
				}
				if mass != nil && old < r && r <= now {
					mass[a.to] += a.w
				}
			}
		}
		m.moved = m.moved[:0]
		for _, x := range m.cand {
			nb, s, verified := m.settle(t, x, cur[x], mass)
			if verified {
				m.Stats.Verified++
			}
			if mass != nil {
				mass[x] = s
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

// settle decides candidate x of round t, whose stored value is p, and returns
// its answer, S at the answer and whether p was still feasible. With the kept
// mass s = S(p) it reads no arc when it can: G(p), the weight strictly above
// p, was ≤ p before the batch (p was the answer), and
//
//   - s = p: x stands, whatever admitted it — G(p) ≤ S(p) = p ≤ S(p);
//   - every admitting move was downward (a down-crossing or a delete): G(p)
//     could only fall, so x stands if s > p and falls if s < p, where fall
//     needs only the arcs below p;
//
// and otherwise (an up-crossing or an insert admitted it, and s ≠ p) eval
// makes its pass. Without the kept mass every candidate takes eval's pass.
func (m *Maintainer) settle(t int, x graph.NodeID, p float64, mass []float64) (b, s float64, verified bool) {
	if mass == nil || m.up[x] == m.gen && mass[x] != p {
		return m.eval(t, x, p)
	}
	if s = mass[x]; s >= p {
		m.stood++
		return p, s, true
	}
	m.fell++
	b, s = m.fall(t, x, p, s)
	return b, s, false
}

// push adds x to the current round's candidates once.
func (m *Maintainer) push(x graph.NodeID) {
	if m.mark[x] != m.gen {
		m.mark[x] = m.gen
		m.cand = append(m.cand, x)
	}
}

// pushUp is push for an upward crossing or an insert, which can raise the
// weight above x's value and so keeps x from being settled by its mass alone.
func (m *Maintainer) pushUp(x graph.NodeID) {
	m.push(x)
	m.up[x] = m.gen
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
