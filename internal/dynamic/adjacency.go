package dynamic

import (
	"fmt"
	"math"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
)

// arc is one mutable adjacency entry.
type arc struct {
	to graph.NodeID
	w  float64
}

// Adjacency is a graph mutated in place by dist.GraphDelta batches: per-node
// arc lists in the canonical order of DESIGN.md §9 (edge-insertion order;
// an insert appends, a delete shifts out the first copy) and the rolling
// graph.EdgeSetHash of the edge multiset they hold. It is what a session
// party keeps instead of rebuilding a CSR every epoch — a worker inside its
// Maintainer, the coordinator bare — and, through N/Degree/Neighbor, the
// topology shard.Partitioner.Rebalance reads.
type Adjacency struct {
	adj  [][]arc
	hash uint64
}

// NewAdjacency copies g's adjacency lists (already in edge order) and hashes
// its edge set once.
func NewAdjacency(g *graph.Graph) *Adjacency {
	a := &Adjacency{adj: make([][]arc, g.N()), hash: g.EdgeSetHash()}
	for v := range a.adj {
		arcs := g.Adj(v)
		a.adj[v] = make([]arc, 0, len(arcs))
		for _, x := range arcs {
			a.adj[v] = append(a.adj[v], arc{to: x.To, w: x.W})
		}
	}
	return a
}

// N returns the number of nodes.
func (a *Adjacency) N() int { return len(a.adj) }

// Degree returns the number of incident edges of v (a self-loop counts once).
func (a *Adjacency) Degree(v graph.NodeID) int { return len(a.adj[v]) }

// Neighbor returns the far endpoint of v's i-th arc.
func (a *Adjacency) Neighbor(v graph.NodeID, i int) graph.NodeID { return a.adj[v][i].to }

// Hash returns the graph.EdgeSetHash of the current edge multiset, kept
// rolling: every applied op moved it by that edge's graph.EdgeTerm.
func (a *Adjacency) Hash() uint64 { return a.hash }

// Validate reports what applying d would fail with — the errors of
// dist.GraphDelta.Apply, at the same op index, and the refusal of an insert
// outside the exact-sum contract (Summable) — and mutates nothing. A
// delete is live iff the copies in the list plus the batch's earlier inserts
// of the pair minus its earlier deletes leave one to remove.
func (a *Adjacency) Validate(d dist.GraphDelta) error {
	net := make(map[[2]graph.NodeID]int) // inserts − deletes of a pair so far in d
	for i, op := range d.Ops {
		if err := a.check(i, op); err != nil {
			return err
		}
		key := [2]graph.NodeID{min(op.U, op.V), max(op.U, op.V)}
		if !op.Del {
			net[key]++
			continue
		}
		if net[key]+a.copies(op.U, op.V) <= 0 {
			return errMissing(i, op)
		}
		net[key]--
	}
	return nil
}

// Apply executes d's ops in order and returns how many applied: len(d.Ops)
// and nil, or the index of the first op that cannot apply and its error,
// with exactly the ops before it in place (Validate first for all-or-nothing).
func (a *Adjacency) Apply(d dist.GraphDelta) (int, error) {
	return a.apply(d, nil)
}

// apply is Apply that also sets w[i], when w is not nil, to the weight op i
// added or removed: an insert's own, a delete's that of the copy it took.
func (a *Adjacency) apply(d dist.GraphDelta, w []float64) (int, error) {
	for i, op := range d.Ops {
		x, err := a.mutate(i, op)
		if err != nil {
			return i, err
		}
		if w != nil {
			w[i] = x
		}
	}
	return len(d.Ops), nil
}

// check is the half of an op's validity that does not depend on the edges
// present: endpoints in range, insert weight finite and non-negative (in
// dist.GraphDelta.Apply's words) and exactly summable.
func (a *Adjacency) check(i int, op dist.EdgeOp) error {
	switch n := len(a.adj); {
	case op.U < 0 || op.U >= n || op.V < 0 || op.V >= n:
		return fmt.Errorf("dynamic: delta op %d: edge (%d,%d) out of range [0,%d)", i, op.U, op.V, n)
	case op.Del:
		return nil
	case op.W < 0 || math.IsNaN(op.W) || math.IsInf(op.W, 0):
		return fmt.Errorf("dynamic: delta op %d: invalid insert weight %v", i, op.W)
	case !Summable(op.W):
		return fmt.Errorf("dynamic: delta op %d: insert weight %v is not exactly summable", i, op.W)
	}
	return nil
}

func errMissing(i int, op dist.EdgeOp) error {
	return fmt.Errorf("dynamic: delta op %d: delete of missing edge {%d,%d}", i, op.U, op.V)
}

// copies counts the {u,v} edges present, scanning the shorter list.
func (a *Adjacency) copies(u, v graph.NodeID) int {
	if len(a.adj[v]) < len(a.adj[u]) {
		u, v = v, u
	}
	c := 0
	for _, x := range a.adj[u] {
		if x.to == v {
			c++
		}
	}
	return c
}

// mutate applies one op to the lists and the hash and returns the weight of
// the edge it added or removed.
func (a *Adjacency) mutate(i int, op dist.EdgeOp) (float64, error) {
	if err := a.check(i, op); err != nil {
		return 0, err
	}
	if op.Del {
		w, ok := a.removeArc(op.U, op.V)
		if !ok {
			return 0, errMissing(i, op)
		}
		if op.U != op.V {
			if _, ok := a.removeArc(op.V, op.U); !ok {
				panic("dynamic: adjacency lists out of sync")
			}
		}
		a.hash -= graph.EdgeTerm(op.U, op.V, w)
		return w, nil
	}
	a.adj[op.U] = append(a.adj[op.U], arc{to: op.V, w: op.W})
	if op.U != op.V {
		a.adj[op.V] = append(a.adj[op.V], arc{to: op.U, w: op.W})
	}
	a.hash += graph.EdgeTerm(op.U, op.V, op.W)
	return op.W, nil
}

// removeArc removes the FIRST arc from→to in adjacency order,
// order-preserving, and returns its weight. Both halves matter for the
// oracle contract: adjacency lists start in edge-insertion order (graph.Build
// lays CSR arcs out that way) and inserts append, so the first match is the
// lowest-index copy of the edge — exactly the one dist.GraphDelta.Apply
// deletes — and the shift (not a swap) keeps the order intact so *later*
// deletes keep picking canonical copies too. With a swap-remove, parallel
// edges of different weights could make the maintainer delete a different
// copy than the engines, silently forking the edge multiset.
func (a *Adjacency) removeArc(from, to graph.NodeID) (float64, bool) {
	l := a.adj[from]
	for i := range l {
		if l[i].to == to {
			w := l[i].w
			a.adj[from] = append(l[:i], l[i+1:]...)
			return w, true
		}
	}
	return 0, false
}

// Graph materializes the current adjacency as an immutable graph.Graph with
// the same edge multiset (used by tests to cross-check against a from-scratch
// run; its edge order is by node, not the canonical one).
func (a *Adjacency) Graph() *graph.Graph {
	b := graph.NewBuilder(len(a.adj))
	for v, l := range a.adj {
		for _, x := range l {
			if x.to >= v {
				b.AddEdge(v, x.to, x.w)
			}
		}
	}
	return b.Build()
}
