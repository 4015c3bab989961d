package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// referenceAdj builds adjacency the way the pre-CSR Graph did — one heap
// slice per node, appended edge by edge — and is the oracle the flat CSR
// layout must reproduce arc for arc, in order.
func referenceAdj(n int, edges []Edge) [][]Arc {
	adj := make([][]Arc, n)
	for id, e := range edges {
		adj[e.U] = append(adj[e.U], Arc{To: e.V, W: e.W, EdgeID: id})
		if !e.IsLoop() {
			adj[e.V] = append(adj[e.V], Arc{To: e.U, W: e.W, EdgeID: id})
		}
	}
	return adj
}

// referencePeers is the distinct-ascending-neighbor oracle (the sort+dedup
// peersOf the dist runtime used to compute per engine construction).
func referencePeers(adj []Arc, self NodeID) []NodeID {
	var ps []NodeID
	for _, a := range adj {
		if a.To != self {
			ps = append(ps, a.To)
		}
	}
	sort.Ints(ps)
	j := 0
	for i, p := range ps {
		if i == 0 || p != ps[j-1] {
			ps[j] = p
			j++
		}
	}
	return ps[:j]
}

func checkLayout(t *testing.T, name string, g *Graph) {
	t.Helper()
	adj := referenceAdj(g.N(), g.Edges())
	wdeg := make([]float64, g.N())
	for _, e := range g.Edges() {
		wdeg[e.U] += e.W
		if !e.IsLoop() {
			wdeg[e.V] += e.W
		}
	}
	arcs := 0
	for v := 0; v < g.N(); v++ {
		if g.ArcOffset(v) != arcs {
			t.Fatalf("%s: node %d: ArcOffset %d, the reference has %d arcs before it", name, v, g.ArcOffset(v), arcs)
		}
		arcs += len(adj[v])
		got := g.Adj(v)
		if len(got) != len(adj[v]) {
			t.Fatalf("%s: node %d: Adj has %d arcs, reference %d", name, v, len(got), len(adj[v]))
		}
		for i := range got {
			if got[i] != adj[v][i] {
				t.Fatalf("%s: node %d arc %d: CSR %+v != reference %+v (order must be preserved)",
					name, v, i, got[i], adj[v][i])
			}
			if g.Neighbor(v, i) != got[i].To {
				t.Fatalf("%s: node %d: Neighbor(%d) = %d, Adj says %d", name, v, i, g.Neighbor(v, i), got[i].To)
			}
		}
		if g.Degree(v) != len(adj[v]) {
			t.Fatalf("%s: node %d: Degree %d, want %d", name, v, g.Degree(v), len(adj[v]))
		}
		if g.WeightedDegree(v) != wdeg[v] {
			t.Fatalf("%s: node %d: WeightedDegree %g, want %g", name, v, g.WeightedDegree(v), wdeg[v])
		}
		wantPeers := referencePeers(adj[v], v)
		gotPeers := g.Peers(v)
		if len(gotPeers) != len(wantPeers) {
			t.Fatalf("%s: node %d: Peers %v, want %v", name, v, gotPeers, wantPeers)
		}
		for i := range gotPeers {
			if gotPeers[i] != wantPeers[i] {
				t.Fatalf("%s: node %d: Peers %v, want %v", name, v, gotPeers, wantPeers)
			}
		}
	}
	if g.ArcOffset(g.N()) != arcs {
		t.Fatalf("%s: ArcOffset(N) %d, the reference has %d arcs", name, g.ArcOffset(g.N()), arcs)
	}
}

// randomMultigraph draws a graph with parallel edges and self-loops — the
// cases the quotient construction generates and the CSR fill must keep in
// insertion order.
func randomMultigraph(rng *rand.Rand) *Graph {
	n := 1 + rng.Intn(40)
	m := rng.Intn(4 * n)
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if rng.Intn(8) == 0 {
			v = u // self-loop
		}
		b.AddEdge(u, v, float64(1+rng.Intn(9)))
	}
	return b.Build()
}

// TestCSRMatchesEdgeListReference asserts that the CSR layout reproduces
// the historical per-node append adjacency exactly — same arcs, same order,
// same degrees — over random multigraphs and the named generators, and that
// the property is closed under quotients and induced subgraphs.
func TestCSRMatchesEdgeListReference(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomMultigraph(rng)
		checkLayout(t, "random", g)

		// Quotient by a random mask: merged parallel contributions and the
		// loops it mints must land in the same CSR shape.
		inB := make([]bool, g.N())
		for v := range inB {
			inB[v] = rng.Intn(3) == 0
		}
		q, _ := g.Quotient(inB)
		checkLayout(t, "quotient", q)

		member := make([]bool, g.N())
		for v := range member {
			member[v] = rng.Intn(2) == 0
		}
		ind, _ := g.Induced(member)
		checkLayout(t, "induced", ind)
	}

	for _, seed := range []int64{1, 7, 42} {
		checkLayout(t, "ba", BarabasiAlbert(300, 3, seed))
		checkLayout(t, "ws", WattsStrogatz(200, 6, 0.2, seed))
		checkLayout(t, "er", ErdosRenyi(150, 0.05, seed))
		checkLayout(t, "rmat", RMAT(8, 4, 0.57, 0.19, 0.19, seed))
	}
	checkLayout(t, "caveman", Caveman(6, 8))
	checkLayout(t, "star", Star(30))
	checkLayout(t, "empty", NewBuilder(0).Build())
	checkLayout(t, "isolated", NewBuilder(5).Build())
}

// BenchmarkBuild measures Builder.Build on a power-law edge list. The CSR
// core does a constant number of allocations regardless of n, versus one
// slice per node before.
func BenchmarkBuild(b *testing.B) {
	g := BarabasiAlbert(10_000, 4, 7)
	edges := g.Edges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(10_000)
		for _, e := range edges {
			bld.AddEdge(e.U, e.V, e.W)
		}
		bld.Build()
	}
}
