package dist

import (
	"fmt"
	"math"
	"math/rand"

	"distkcore/internal/graph"
)

// EdgeOp is one edge mutation of a GraphDelta: an insertion of the
// undirected edge {U,V} with weight W, or — when Del is set — a deletion of
// one existing copy of {U,V} (W is ignored and must be left zero; the wire
// codec does not ship it for deletes). U == V denotes a self-loop, exactly
// as in graph.Builder.AddEdge. Deltas never change the node set: a real
// deployment provisions node slots up front and churns edges, which is also
// what keeps every engine's shard assignment meaningful across a batch.
type EdgeOp struct {
	Del  bool
	U, V graph.NodeID
	W    float64
}

// GraphDelta is a batched sequence of edge mutations — the unit of churn
// the cluster protocol moves (DESIGN.md §9). Application order is part of
// the value: Apply executes the ops in slice order, so two parties holding
// equal deltas (pinned by Digest) reconstruct bit-identical mutated graphs
// from the same base graph. The zero value is the empty delta.
type GraphDelta struct {
	Ops []EdgeOp
}

// Len returns the number of edge mutations in the batch.
func (d GraphDelta) Len() int { return len(d.Ops) }

// Digest folds the delta into a deterministic 64-bit digest (word-granular
// FNV-1a over the op count and every op's kind, endpoints and — for inserts
// — weight bits). A session coordinator holds the batch it validated to the
// encoding it broadcasts by it, so coordinator and workers cannot silently
// apply different churn. The empty delta digests to 0.
func (d GraphDelta) Digest() uint64 {
	if len(d.Ops) == 0 {
		return 0
	}
	const prime = 1099511628211
	h := uint64(1469598103934665603)
	h = (h ^ uint64(len(d.Ops))) * prime
	for _, op := range d.Ops {
		k := uint64(0)
		if op.Del {
			k = 1
		}
		h = (h ^ k) * prime
		h = (h ^ uint64(op.U)) * prime
		h = (h ^ uint64(op.V)) * prime
		if !op.Del {
			h = (h ^ math.Float64bits(op.W)) * prime
		}
	}
	return h
}

// Apply executes the batch against g and returns the mutated graph. It is
// the canonical application order every engine agrees on (DESIGN.md §9):
//
//   - ops run in slice order;
//   - an insert appends the edge to the end of the edge list (so arc and
//     peer layouts of the rebuilt CSR graph are deterministic — edge order
//     is what graph.Builder.Build and graph.Fingerprint are defined over);
//   - a delete removes the lowest-index edge whose endpoint set equals
//     {U,V}, preserving the relative order of every other edge.
//
// g itself is never modified (graphs are immutable); the result is a fresh
// Build. Apply fails on out-of-range endpoints, invalid insert weights, and
// deletes of edges that do not exist at that point of the batch — a failed
// delta must abort a run rather than fork the cluster's inputs.
func (d GraphDelta) Apply(g *graph.Graph) (*graph.Graph, error) {
	n, old := g.N(), g.Edges()
	// Mark-and-sweep over edge indices: original edge i is index i, the
	// batch's j-th insert is index len(old)+j. Adjacency lists are in edge
	// order, so the first live arc to the other endpoint is the lowest-index
	// copy — the canonical one; only when no original copy is live can the
	// victim be one of the batch's own inserts, and those are ≤ len(d.Ops).
	// A delete costs the smaller endpoint degree, the batch O(m + ops).
	dead := make([]bool, len(old)+len(d.Ops))
	ins := make([]graph.Edge, 0, len(d.Ops))
	ndead := 0
	for i, op := range d.Ops {
		if op.U < 0 || op.U >= n || op.V < 0 || op.V >= n {
			return nil, fmt.Errorf("dist: delta op %d: edge (%d,%d) out of range [0,%d)", i, op.U, op.V, n)
		}
		if !op.Del {
			if op.W < 0 || math.IsNaN(op.W) || math.IsInf(op.W, 0) {
				return nil, fmt.Errorf("dist: delta op %d: invalid insert weight %v", i, op.W)
			}
			ins = append(ins, graph.Edge{U: op.U, V: op.V, W: op.W})
			continue
		}
		from, to := op.U, op.V
		if g.Degree(to) < g.Degree(from) {
			from, to = to, from
		}
		victim := -1
		for _, a := range g.Adj(from) {
			if a.To == to && !dead[a.EdgeID] {
				victim = a.EdgeID
				break
			}
		}
		for j := 0; victim < 0 && j < len(ins); j++ {
			if e := ins[j]; !dead[len(old)+j] && (e.U == op.U && e.V == op.V || e.U == op.V && e.V == op.U) {
				victim = len(old) + j
			}
		}
		if victim < 0 {
			return nil, fmt.Errorf("dist: delta op %d: delete of missing edge {%d,%d}", i, op.U, op.V)
		}
		dead[victim] = true
		ndead++
	}
	edges := make([]graph.Edge, 0, len(old)+len(ins)-ndead)
	for i, e := range old {
		if !dead[i] {
			edges = append(edges, e)
		}
	}
	for j, e := range ins {
		if !dead[len(old)+j] {
			edges = append(edges, e)
		}
	}
	return graph.FromEdges(n, edges), nil
}

// RandomChurn builds a deterministic churn batch of `ops` mutations for g:
// a seeded coin picks, per op, either an insertion of a uniform random
// unit-weight edge or a deletion of a uniformly chosen edge that is alive
// at that point of the batch (initial edges and earlier inserts included),
// so the batch always applies cleanly. It is the workload generator behind
// `cluster push`, experiment E19 and the session benchmarks; like the graph
// generators, it is a pure function of (g, ops, seed), which is what lets a
// push client recompute the graph its receipts describe.
func RandomChurn(g *graph.Graph, ops int, seed int64) GraphDelta {
	if ops <= 0 {
		return GraphDelta{} // don't build the live pool for a no-churn run
	}
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ u, v graph.NodeID }
	live := make([]pair, 0, g.M()+ops)
	for _, e := range g.Edges() {
		live = append(live, pair{e.U, e.V})
	}
	d := GraphDelta{Ops: make([]EdgeOp, 0, ops)}
	for i := 0; i < ops; i++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			d.Ops = append(d.Ops, EdgeOp{U: u, V: v, W: 1})
			live = append(live, pair{u, v})
		} else {
			j := rng.Intn(len(live))
			p := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			d.Ops = append(d.Ops, EdgeOp{Del: true, U: p.u, V: p.v})
		}
	}
	return d
}
