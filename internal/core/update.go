// Package core implements the paper's primary contribution: the compact
// elimination procedure (Algorithm 2) with the Update subroutine
// (Algorithm 3), which after T rounds leaves every node v with a surviving
// number β_T(v) satisfying
//
//	r(v) ≤ c(v) ≤ β_T(v) ≤ 2·n^{1/T}·r(v)
//
// (Theorem I.1), where c is the weighted coreness and r the maximal density
// of the diminishingly-dense decomposition. Run for T = ⌈log_{1+ε} n⌉
// rounds this is a 2(1+ε)-approximation of both quantities, with round
// complexity independent of the graph diameter.
//
// With the exact threshold set Λ = ℝ the procedure additionally maintains,
// per node, an auxiliary subset N_v of incident edges such that {N_v} is a
// feasible γ-approximate solution of the min-max edge orientation problem
// (Theorem I.2, Lemma III.11).
package core

import (
	"math"
	"sort"

	"distkcore/internal/graph"
)

// Updater holds the per-node state required by Algorithm 3: the incident
// arcs and the maintained tie-breaking order. The paper resolves sorting
// ties by the lexicographic order of all past surviving numbers (recent
// first, then node identity); as it notes, this is equivalent to keeping the
// neighbor ordering from the previous round and stable-sorting by the
// current values, which is what Updater does.
type Updater struct {
	arcs  []graph.Arc
	order []int     // arc indices, maintained across rounds
	vals  []float64 // per arc: the far end's surviving number as of the last step
}

// byVal is the sort.Interface view of an Updater: its arc-index permutation
// ordered by the current values. A pointer conversion, not a wrapper value,
// so handing it to sort.Stable allocates nothing — Step runs once per node
// per round on every engine's hot path.
type byVal Updater

func (s *byVal) Len() int           { return len(s.order) }
func (s *byVal) Less(a, b int) bool { return s.vals[s.order[a]] < s.vals[s.order[b]] }
func (s *byVal) Swap(a, b int)      { s.order[a], s.order[b] = s.order[b], s.order[a] }

// insertionSortMax is the degree up to which sortOrder always insertion-sorts,
// and insertionSortShare the share of a larger node's arcs — one in so many —
// that may have changed value for it still to. The order carried over from the
// previous step is sorted but for the changed arcs, which is insertion sort's
// best case: one pass plus at most d moves per changed arc. Typical degrees
// are below the cut-off and a hub hears from few of its neighbors in most
// rounds; beyond both, sort.Stable keeps the worst case at O(d log d).
const (
	insertionSortMax   = 48
	insertionSortShare = 8
)

// sortOrder stable-sorts order by vals ascending; changed — how many values
// were overwritten since order was last sorted — only picks the cheaper
// branch. The output of a stable sort is unique — equal keys keep their input
// order, unequal ones are ordered by key — so both branches produce the same
// permutation bit for bit, and stability is what implements the paper's
// historical-lexicographic tie-breaking.
func (u *Updater) sortOrder(changed int) {
	order, vals := u.order, u.vals
	if len(order) > insertionSortMax && changed*insertionSortShare > len(order) {
		sort.Stable((*byVal)(u))
		return
	}
	if len(order) == 0 {
		return
	}
	prev := vals[order[0]] // the value at position i-1
	for i := 1; i < len(order); i++ {
		x := order[i]
		vx := vals[x]
		if !(prev > vx) { // in place already: the common case costs one load
			prev = vx
			continue
		}
		j := i
		for ; j > 0 && vals[order[j-1]] > vx; j-- {
			order[j] = order[j-1]
		}
		order[j] = x // and position i holds what i-1 held
	}
}

// NewUpdater creates the Update state for a node with the given incident
// arcs. The initial order is by (neighbor ID, arc index), realizing the
// paper's "any remaining tie is resolved consistently using the node
// identity".
func NewUpdater(arcs []graph.Arc) *Updater {
	u := new(Updater)
	u.init(arcs, make([]int, len(arcs)), make([]float64, len(arcs)))
	return u
}

// init is NewUpdater in place, on arrays of len(arcs) the caller provides.
func (u *Updater) init(arcs []graph.Arc, order []int, vals []float64) {
	u.arcs, u.order, u.vals = arcs, order, vals
	// (neighbor ID, arc index) is the stable sort of the identity permutation
	// by neighbor ID; node IDs are exact in a float64.
	for i, a := range arcs {
		u.order[i] = i
		u.vals[i] = float64(a.To)
	}
	u.sortOrder(len(arcs))
}

// Degree returns the node's weighted degree Σ w(e).
func (u *Updater) Degree() float64 {
	d := 0.0
	for _, a := range u.arcs {
		d += a.W
	}
	return d
}

// Step performs one invocation of Algorithm 3. bOf(i) must return the
// current surviving number of the neighbor at arc index i (for a self-loop,
// the node's own value). It returns the new surviving number
//
//	b = max { x ∈ ℝ : Σ_{i : b_i ≥ x} w_i ≥ x }
//
// and the auxiliary subset N as arc indices (the incident edges whose other
// endpoint has a strictly "higher" surviving number under the maintained
// order, plus the pivot when the vertex-induced case applies). The
// maintained order is updated as a side effect.
//
// aux is a subslice of the maintained order, valid only until the next Step
// call; callers that retain it across rounds must copy. Step performs no
// heap allocations.
func (u *Updater) Step(bOf func(arcIdx int) float64) (b float64, aux []int) {
	for _, i := range u.order {
		u.vals[i] = bOf(i)
	}
	return u.step(len(u.order))
}

// step is Step on the values already in vals — the previous step's, changed
// of them overwritten since (ElimState keeps them current as they are heard).
func (u *Updater) step(changed int) (b float64, aux []int) {
	d := len(u.order)
	if d == 0 {
		return 0, nil
	}
	u.sortOrder(changed)
	s := 0.0
	for i := d - 1; i >= 0; i-- {
		s += u.arcs[u.order[i]].W
		prev := math.Inf(-1)
		if i > 0 {
			prev = u.vals[u.order[i-1]]
		}
		if s > prev {
			bi := u.vals[u.order[i]]
			if s <= bi {
				// Vertex-induced case: the node's own mass is the binding
				// constraint; the pivot edge joins N as well.
				return s, u.order[i:]
			}
			return bi, u.order[i+1:]
		}
	}
	// Unreachable: at i == 0 the guard s > -∞ always fires.
	return 0, nil
}

// UpdateValue runs Algorithm 3 without maintaining any order or auxiliary
// set: it returns only the new surviving number for a node whose incident
// edges have weights w and whose neighbors currently hold values bs.
// This is the allocation-free path used by the centralized simulator when
// auxiliary sets are not requested, by the asynchronous elimination's
// recompute, and by dynamic.Maintainer's frontier repair — all of which
// call it once per node evaluation on their hot paths (pinned by
// TestAsyncRecomputeAllocationFree).
//
// The answer max_k min(b_(k), S_k) — b_(k) the k-th largest value, S_k the
// weight of the k largest — is decided at the first k whose running weight
// passes the next value down, so only the top of the descending order is
// ever read: heapify in O(d), then pop the maximum and accumulate until the
// crossing, O(d + k·log d) with k ≈ β instead of a full O(d·log d) sort.
// Unlike Updater.Step it needs no stable tie order: the returned value is a
// function of the (b, w) multiset alone.
func UpdateValue(bs, w []float64, scratch []int) float64 {
	d := len(bs)
	if d == 0 {
		return 0
	}
	idx := scratch[:0]
	for i := 0; i < d; i++ {
		idx = append(idx, i)
	}
	for i := d/2 - 1; i >= 0; i-- {
		siftDownByVal(idx, bs, i, d)
	}
	s := 0.0
	for n := d; ; n-- {
		top := idx[0]
		s += w[top]
		// The next value down is the larger child of the root; no sift needed
		// to read it.
		next := math.Inf(-1)
		if n > 1 {
			next = bs[idx[1]]
			if n > 2 && bs[idx[2]] > next {
				next = bs[idx[2]]
			}
		}
		if s > next {
			if bi := bs[top]; s > bi {
				return bi
			}
			return s
		}
		idx[0] = idx[n-1]
		siftDownByVal(idx, bs, 0, n-1)
	}
}

// siftDownByVal restores the max-heap property of idx[:n] under bs at root i.
func siftDownByVal(idx []int, bs []float64, i, n int) {
	for {
		l, r, max := 2*i+1, 2*i+2, i
		if l < n && bs[idx[l]] > bs[idx[max]] {
			max = l
		}
		if r < n && bs[idx[r]] > bs[idx[max]] {
			max = r
		}
		if max == i {
			return
		}
		idx[i], idx[max] = idx[max], idx[i]
		i = max
	}
}

// TForGamma returns the round count T = ⌈log n / log(γ/2)⌉ sufficient for a
// γ-approximation (γ > 2) per Lemma III.3, clamped to at least 1.
func TForGamma(n int, gamma float64) int {
	if gamma <= 2 {
		panic("core: TForGamma requires gamma > 2")
	}
	if n < 2 {
		return 1
	}
	t := int(math.Ceil(math.Log(float64(n)) / math.Log(gamma/2)))
	if t < 1 {
		t = 1
	}
	return t
}

// TForEpsilon returns T = ⌈log_{1+ε} n⌉, the round count for a
// 2(1+ε)-approximation (Theorem I.1).
func TForEpsilon(n int, eps float64) int {
	if eps <= 0 {
		panic("core: TForEpsilon requires eps > 0")
	}
	return TForGamma(n, 2*(1+eps))
}

// GuaranteeAtT returns the proven approximation factor 2·n^{1/T} after T
// rounds (Theorem I.1/I.2).
func GuaranteeAtT(n, t int) float64 {
	if t < 1 || n < 1 {
		return math.Inf(1)
	}
	return 2 * math.Pow(float64(n), 1/float64(t))
}
