// Package graph provides the weighted undirected graph substrate used by the
// distributed k-core / densest-subset / min-max orientation algorithms.
//
// Graphs follow the conventions of Chan, Sozio and Sun (IPDPS 2019):
//
//   - Edges are 2-subsets {u,v} of V with a non-negative weight w(e).
//   - Self-loops (singleton edges {v}) are permitted; they arise from quotient
//     graphs (Definition II.2) and contribute their weight once to both the
//     weighted degree of v and to w(E(S)) whenever v ∈ S.
//   - The weighted degree of v is deg(v) = Σ_{e : v ∈ e} w(e).
//   - The density of a non-empty S ⊆ V is ρ(S) = w(E(S)) / |S|, where
//     E(S) = {e ∈ E : e ⊆ S}.
//
// The package also contains deterministic generators for synthetic workloads
// and the lower-bound gadget constructions from the paper (Figure I.1 and
// Lemma III.13).
package graph

import (
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a node; nodes of a Graph with n nodes are 0..n-1.
type NodeID = int

// Edge is an undirected weighted edge. U == V denotes a self-loop.
type Edge struct {
	U, V NodeID
	W    float64
}

// IsLoop reports whether the edge is a self-loop.
func (e Edge) IsLoop() bool { return e.U == e.V }

// Other returns the endpoint of e different from x. For a self-loop it
// returns x itself.
func (e Edge) Other(x NodeID) NodeID {
	if e.U == x {
		return e.V
	}
	return e.U
}

// Arc is one directed half of an undirected edge as seen from a node's
// adjacency list. For a self-loop at v, a single Arc with To == v is stored.
type Arc struct {
	To     NodeID
	W      float64
	EdgeID int // index into Graph.Edges()
}

// Graph is an immutable weighted undirected graph with optional self-loops.
// Build one with a Builder; the zero value is an empty graph with no nodes.
//
// Adjacency is stored in compressed-sparse-row (CSR) form: one flat arc
// array plus per-node offsets, so Adj(v) is a subslice of shared backing and
// a full adjacency sweep is a single linear scan. The distinct-neighbor
// lists consumed by the message-passing runtime (Peers) are precomputed the
// same way at Build time. See DESIGN.md §7 for the layout.
type Graph struct {
	n     int
	edges []Edge
	arcs  []Arc    // CSR arc storage; node v owns arcs[off[v]:off[v+1]]
	off   []int32  // len n+1, ascending
	peers []NodeID // distinct neighbors, self excluded, ascending per node
	poff  []int32  // len n+1, ascending
	wdeg  []float64
	totW  float64
	loops int
}

// Builder accumulates edges and produces an immutable Graph. The zero value
// is unusable; obtain one with NewBuilder.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n nodes (0..n-1).
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u,v} with weight w. Adding the same
// pair twice yields parallel edges (both are kept; degrees and densities sum
// their weights). u == v records a self-loop. Weights must be non-negative
// and finite.
func (b *Builder) AddEdge(u, v NodeID, w float64) *Builder {
	checkEdge(b.n, u, v, w)
	b.edges = append(b.edges, Edge{U: u, V: v, W: w})
	return b
}

func checkEdge(n int, u, v NodeID, w float64) {
	if u < 0 || u >= n || v < 0 || v >= n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, n))
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("graph: invalid edge weight %v", w))
	}
}

// AddUnitEdge records {u,v} with weight 1.
func (b *Builder) AddUnitEdge(u, v NodeID) *Builder { return b.AddEdge(u, v, 1) }

// NumEdges returns the number of edges recorded so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build finalizes the Builder into an immutable Graph. The Builder may be
// reused afterwards (Build copies the edge list).
//
// The arc order within each node's adjacency list is the edge insertion
// order (for an edge {u,v}, u's copy and v's copy are both placed by the
// edge's position in the list) — the same order the historical per-node
// append construction produced, which is what keeps executions of the
// message-passing runtime reproducible across Builder implementations
// (asserted by TestCSRMatchesEdgeListReference).
func (b *Builder) Build() *Graph {
	return build(b.n, append([]Edge(nil), b.edges...))
}

// FromEdges is NewBuilder(n) + AddEdge per edge + Build for a caller that
// already holds the final edge list: the graph takes ownership of edges (the
// caller must not touch the slice afterwards), so nothing is grown by
// doubling and nothing is copied a second time. Edges are validated exactly
// as AddEdge validates them.
func FromEdges(n int, edges []Edge) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	for _, e := range edges {
		checkEdge(n, e.U, e.V, e.W)
	}
	return build(n, edges)
}

// build lays out the CSR form over an edge list it owns.
func build(n int, edges []Edge) *Graph {
	narcs := 0
	for _, e := range edges {
		narcs += 2
		if e.IsLoop() {
			narcs--
		}
	}
	if narcs > math.MaxInt32 {
		panic("graph: arc count overflows CSR offsets")
	}
	g := &Graph{
		n:     n,
		edges: edges,
		arcs:  make([]Arc, narcs),
		off:   make([]int32, n+1),
		wdeg:  make([]float64, n),
	}
	// Counting pass: arc degree per node, then prefix sums into offsets.
	deg := make([]int32, n)
	for _, e := range g.edges {
		deg[e.U]++
		if !e.IsLoop() {
			deg[e.V]++
		}
	}
	for v := 0; v < n; v++ {
		g.off[v+1] = g.off[v] + deg[v]
	}
	// Fill pass in edge order, reusing deg as per-node write cursors.
	cur := deg
	copy(cur, g.off[:n])
	for id, e := range g.edges {
		g.arcs[cur[e.U]] = Arc{To: e.V, W: e.W, EdgeID: id}
		cur[e.U]++
		if e.IsLoop() {
			g.loops++
		} else {
			g.arcs[cur[e.V]] = Arc{To: e.U, W: e.W, EdgeID: id}
			cur[e.V]++
		}
		g.wdeg[e.U] += e.W
		if !e.IsLoop() {
			g.wdeg[e.V] += e.W
		}
		g.totW += e.W
	}
	g.buildPeers()
	return g
}

// buildPeers fills the flat distinct-neighbor lists (peers/poff) in O(n+m)
// without any per-node sort: scanning source nodes u in ascending order and
// appending u to the list of every neighbor emits each node's peers already
// ascending, and parallel {u,w} edges append to w's list consecutively, so a
// last-written check deduplicates them.
func (g *Graph) buildPeers() {
	g.poff = make([]int32, g.n+1)
	last := make([]int32, g.n) // last[w]-1 = most recent u recorded as a peer of w
	cnt := make([]int32, g.n)
	for u := 0; u < g.n; u++ {
		for _, a := range g.Adj(u) {
			if a.To != u && last[a.To] != int32(u)+1 {
				last[a.To] = int32(u) + 1
				cnt[a.To]++
			}
		}
	}
	total := int32(0)
	for v := 0; v < g.n; v++ {
		g.poff[v] = total
		total += cnt[v]
	}
	g.poff[g.n] = total
	g.peers = make([]NodeID, total)
	cur := cnt
	copy(cur, g.poff[:g.n])
	for i := range last {
		last[i] = 0
	}
	for u := 0; u < g.n; u++ {
		for _, a := range g.Adj(u) {
			if a.To != u && last[a.To] != int32(u)+1 {
				last[a.To] = int32(u) + 1
				g.peers[cur[a.To]] = u
				cur[a.To]++
			}
		}
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges (self-loops and parallel edges included).
func (g *Graph) M() int { return len(g.edges) }

// NumLoops returns the number of self-loop edges.
func (g *Graph) NumLoops() int { return g.loops }

// Edges returns the edge list. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Adj returns the adjacency list of v (one Arc per incident edge; a self-loop
// appears once). It is a subslice of the graph's shared CSR arc array; the
// caller must not modify it.
func (g *Graph) Adj(v NodeID) []Arc { return g.arcs[g.off[v]:g.off[v+1]] }

// Degree returns the number of incident edges of v (self-loop counts once).
func (g *Graph) Degree(v NodeID) int { return int(g.off[v+1] - g.off[v]) }

// ArcOffset returns the number of arcs owned by the nodes before v,
// Σ_{u<v} Degree(u) — v's position in the CSR arc array, for 0 ≤ v ≤ N(). It
// is ascending in v, so a caller can cut the node order into contiguous ranges
// of equal arc share by binary search.
func (g *Graph) ArcOffset(v NodeID) int { return int(g.off[v]) }

// Neighbor returns the far endpoint of v's i-th arc, Adj(v)[i].To. With N
// and Degree it is the read-only topology view placement code walks
// (shard.Topology), which a mutable adjacency satisfies as well.
func (g *Graph) Neighbor(v NodeID, i int) NodeID { return g.arcs[int(g.off[v])+i].To }

// Peers returns the distinct neighbors of v, self excluded, ascending — the
// exact set Broadcast of the message-passing runtime delivers to. It is a
// subslice of shared backing precomputed at Build time; the caller must not
// modify it.
func (g *Graph) Peers(v NodeID) []NodeID { return g.peers[g.poff[v]:g.poff[v+1]] }

// PeerCSR returns the storage behind Peers: node v's list is
// peers[off[v]:off[v+1]]. The message-passing runtime walks it directly (a
// delivery reads the offsets of n senders without building n slice headers).
// Both slices are shared topology state; the caller must not modify them.
func (g *Graph) PeerCSR() (off []int32, peers []NodeID) { return g.poff, g.peers }

// WeightedDegree returns deg(v) = Σ_{e : v ∈ e} w(e).
func (g *Graph) WeightedDegree(v NodeID) float64 { return g.wdeg[v] }

// MaxWeightedDegree returns max_v deg(v), or 0 for an empty graph.
func (g *Graph) MaxWeightedDegree() float64 {
	m := 0.0
	for _, d := range g.wdeg {
		if d > m {
			m = d
		}
	}
	return m
}

// TotalWeight returns w(E) = Σ_e w(e).
func (g *Graph) TotalWeight() float64 { return g.totW }

// Density returns ρ(V) = w(E)/|V|, or 0 for an empty graph.
func (g *Graph) Density() float64 {
	if g.n == 0 {
		return 0
	}
	return g.totW / float64(g.n)
}

// SubsetDensity returns ρ(S) = w(E(S))/|S| for the subset indicated by
// member (member[v] == true ⇔ v ∈ S). It returns 0 for the empty subset.
func (g *Graph) SubsetDensity(member []bool) float64 {
	w, k := g.SubsetEdgeWeight(member)
	if k == 0 {
		return 0
	}
	return w / float64(k)
}

// SubsetEdgeWeight returns (w(E(S)), |S|) for the indicated subset.
func (g *Graph) SubsetEdgeWeight(member []bool) (float64, int) {
	if len(member) != g.n {
		panic("graph: member mask has wrong length")
	}
	w := 0.0
	for _, e := range g.edges {
		if member[e.U] && member[e.V] {
			w += e.W
		}
	}
	k := 0
	for _, in := range member {
		if in {
			k++
		}
	}
	return w, k
}

// InducedDegrees returns, for every v ∈ S, the weighted degree of v in the
// induced subgraph G[S] (indexed by original node ID; nodes outside S get 0).
func (g *Graph) InducedDegrees(member []bool) []float64 {
	if len(member) != g.n {
		panic("graph: member mask has wrong length")
	}
	d := make([]float64, g.n)
	for _, e := range g.edges {
		if member[e.U] && member[e.V] {
			d[e.U] += e.W
			if !e.IsLoop() {
				d[e.V] += e.W
			}
		}
	}
	return d
}

// Induced returns the subgraph induced by S together with the mapping from
// new node IDs to original ones. Edges with any endpoint outside S are
// dropped (self-loops at members are kept).
func (g *Graph) Induced(member []bool) (*Graph, []NodeID) {
	if len(member) != g.n {
		panic("graph: member mask has wrong length")
	}
	newID := make([]int, g.n)
	var orig []NodeID
	for v := 0; v < g.n; v++ {
		if member[v] {
			newID[v] = len(orig)
			orig = append(orig, v)
		} else {
			newID[v] = -1
		}
	}
	b := NewBuilder(len(orig))
	for _, e := range g.edges {
		if member[e.U] && member[e.V] {
			b.AddEdge(newID[e.U], newID[e.V], e.W)
		}
	}
	return b.Build(), orig
}

// Quotient returns the quotient graph G \ B of Definition II.2: the node set
// is V \ B, every edge e with e ∩ (V\B) ≠ ∅ contributes its weight to the
// edge e ∩ (V\B) — in particular an edge {u,v} with u ∈ B, v ∉ B becomes a
// self-loop at v. Parallel contributions to the same reduced edge are merged
// (weights summed), matching ŵ(e') = Σ_{e : e' = e ∩ V̂} w(e).
// The second return value maps new node IDs to original ones.
func (g *Graph) Quotient(inB []bool) (*Graph, []NodeID) {
	if len(inB) != g.n {
		panic("graph: inB mask has wrong length")
	}
	newID := make([]int, g.n)
	var orig []NodeID
	for v := 0; v < g.n; v++ {
		if !inB[v] {
			newID[v] = len(orig)
			orig = append(orig, v)
		} else {
			newID[v] = -1
		}
	}
	// Merge parallel reduced edges: key on (min,max) pair of new IDs.
	type key struct{ a, b int }
	acc := make(map[key]float64)
	for _, e := range g.edges {
		u, v := newID[e.U], newID[e.V]
		switch {
		case u < 0 && v < 0:
			// fully inside B: dropped
		case u < 0:
			acc[key{v, v}] += e.W
		case v < 0:
			acc[key{u, u}] += e.W
		default:
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			acc[key{a, b}] += e.W
		}
	}
	keys := make([]key, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	b := NewBuilder(len(orig))
	for _, k := range keys {
		b.AddEdge(k.a, k.b, acc[k])
	}
	return b.Build(), orig
}

// Fingerprint returns a deterministic 64-bit digest of the graph: the node
// count and every edge's endpoints and weight bit pattern, folded in
// insertion order with a word-granular FNV-1a variant. Two graphs built from
// the same edge sequence always agree, across processes and builds — the
// cluster transport (internal/net) uses it during its handshake to verify
// that the coordinator and every worker hold the same graph before a run
// (DESIGN.md §8).
func (g *Graph) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(1469598103934665603)
	h = (h ^ uint64(g.n)) * prime
	for _, e := range g.edges {
		h = (h ^ uint64(e.U)) * prime
		h = (h ^ uint64(e.V)) * prime
		h = (h ^ math.Float64bits(e.W)) * prime
	}
	return h
}

// EdgeSetHash returns the order-free digest of g's edge multiset: a term
// seeded by the node count plus one EdgeTerm per edge, summed mod 2⁶⁴. Unlike
// Fingerprint it does not depend on edge order, so a party that mutates its
// adjacency in place keeps it current with one += per insert and one −= per
// delete — it is the graph field of a session stamp (DESIGN.md §10.2), and
// this from-scratch form is what the rolling one is checked against.
func (g *Graph) EdgeSetHash() uint64 {
	h := Mix64(uint64(g.n))
	for _, e := range g.edges {
		h += EdgeTerm(e.U, e.V, e.W)
	}
	return h
}

// EdgeTerm is one undirected edge's contribution to EdgeSetHash: a mix of
// the ordered endpoint pair and the weight's bit pattern.
func EdgeTerm(u, v NodeID, w float64) uint64 {
	if u > v {
		u, v = v, u
	}
	return Mix64(Mix64(Mix64(uint64(u))^uint64(v)) ^ math.Float64bits(w))
}

// Mix64 is the SplitMix64 finalizer: a cheap, well-mixed integer hash (the
// one behind EdgeSetHash and shard.Hash's placement).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return build(g.n, append([]Edge(nil), g.edges...))
}

// WithWeights returns a copy of g whose edge weights are w[i] for edge i.
func (g *Graph) WithWeights(w []float64) *Graph {
	if len(w) != len(g.edges) {
		panic("graph: weight slice has wrong length")
	}
	b := NewBuilder(g.n)
	for i, e := range g.edges {
		b.AddEdge(e.U, e.V, w[i])
	}
	return b.Build()
}

// IsUnitWeight reports whether every edge has weight exactly 1.
func (g *Graph) IsUnitWeight() bool {
	for _, e := range g.edges {
		if e.W != 1 {
			return false
		}
	}
	return true
}

// Diameter returns the hop-diameter of g (max over all pairs of the BFS
// distance), ignoring edge weights. Disconnected graphs return the maximum
// eccentricity within components and ok=false. O(n·(n+m)); intended for
// test/experiment-sized graphs.
func (g *Graph) Diameter() (d int, connected bool) {
	connected = true
	dist := make([]int, g.n)
	queue := make([]NodeID, 0, g.n)
	for s := 0; s < g.n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		seen := 1
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if dist[v] > d {
				d = dist[v]
			}
			for _, a := range g.Adj(v) {
				if dist[a.To] < 0 {
					dist[a.To] = dist[v] + 1
					queue = append(queue, a.To)
					seen++
				}
			}
		}
		if seen != g.n {
			connected = false
		}
	}
	return d, connected
}

// BFSDistances returns hop distances from src (-1 for unreachable nodes).
func (g *Graph) BFSDistances(src NodeID) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, a := range g.Adj(v) {
			if dist[a.To] < 0 {
				dist[a.To] = dist[v] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return dist
}

// ConnectedComponents returns a component label per node and the component
// count.
func (g *Graph) ConnectedComponents() (label []int, count int) {
	label = make([]int, g.n)
	for i := range label {
		label[i] = -1
	}
	var queue []NodeID
	for s := 0; s < g.n; s++ {
		if label[s] >= 0 {
			continue
		}
		label[s] = count
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, a := range g.Adj(v) {
				if label[a.To] < 0 {
					label[a.To] = count
					queue = append(queue, a.To)
				}
			}
		}
		count++
	}
	return label, count
}
