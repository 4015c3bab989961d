package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	g := NewBuilder(4).
		AddEdge(0, 1, 2).
		AddEdge(1, 2, 3).
		AddEdge(2, 2, 5). // self-loop
		Build()
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("n=%d m=%d, want 4,3", g.N(), g.M())
	}
	if g.NumLoops() != 1 {
		t.Fatalf("loops=%d, want 1", g.NumLoops())
	}
	if got := g.WeightedDegree(1); got != 5 {
		t.Fatalf("deg(1)=%v, want 5", got)
	}
	// Self-loop counts once in the degree (edge e = {v} with v ∈ e).
	if got := g.WeightedDegree(2); got != 8 {
		t.Fatalf("deg(2)=%v, want 8 (3 + loop 5)", got)
	}
	if got := g.WeightedDegree(3); got != 0 {
		t.Fatalf("deg(3)=%v, want 0", got)
	}
	if got := g.TotalWeight(); got != 10 {
		t.Fatalf("total=%v, want 10", got)
	}
	if got := g.Density(); got != 2.5 {
		t.Fatalf("density=%v, want 2.5", got)
	}
	if d := g.Degree(2); d != 2 {
		t.Fatalf("Degree(2)=%d, want 2 (one arc per incident edge)", d)
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []func(){
		func() { NewBuilder(-1) },
		func() { NewBuilder(2).AddEdge(0, 2, 1) },
		func() { NewBuilder(2).AddEdge(0, 1, -1) },
		func() { NewBuilder(2).AddEdge(0, 1, math.NaN()) },
		func() { NewBuilder(2).AddEdge(0, 1, math.Inf(1)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSubsetDensityAndInducedDegrees(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3.
	g := NewBuilder(4).
		AddUnitEdge(0, 1).AddUnitEdge(1, 2).AddUnitEdge(0, 2).AddUnitEdge(2, 3).
		Build()
	member := []bool{true, true, true, false}
	if rho := g.SubsetDensity(member); rho != 1 {
		t.Fatalf("triangle density = %v, want 1", rho)
	}
	d := g.InducedDegrees(member)
	for v := 0; v < 3; v++ {
		if d[v] != 2 {
			t.Fatalf("induced deg(%d)=%v, want 2", v, d[v])
		}
	}
	if d[3] != 0 {
		t.Fatalf("induced deg(3)=%v, want 0", d[3])
	}
	all := []bool{true, true, true, true}
	if rho := g.SubsetDensity(all); rho != 1 {
		t.Fatalf("whole-graph density = %v, want 1", rho)
	}
}

func TestInduced(t *testing.T) {
	g := Clique(5)
	member := []bool{true, false, true, true, false}
	sub, orig := g.Induced(member)
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced K3: n=%d m=%d", sub.N(), sub.M())
	}
	want := []NodeID{0, 2, 3}
	for i, o := range orig {
		if o != want[i] {
			t.Fatalf("orig=%v, want %v", orig, want)
		}
	}
}

func TestQuotientCreatesSelfLoops(t *testing.T) {
	// Path 0-1-2; remove node 1 → both edges become self-loops? No:
	// e = {0,1} ∩ {0,2} = {0}; e = {1,2} ∩ {0,2} = {2}.
	g := Path(3)
	q, orig := g.Quotient([]bool{false, true, false})
	if q.N() != 2 {
		t.Fatalf("quotient n=%d, want 2", q.N())
	}
	if q.NumLoops() != 2 {
		t.Fatalf("quotient loops=%d, want 2", q.NumLoops())
	}
	if orig[0] != 0 || orig[1] != 2 {
		t.Fatalf("orig=%v", orig)
	}
	// Each node keeps degree 1 (its former edge to node 1 as a loop).
	if q.WeightedDegree(0) != 1 || q.WeightedDegree(1) != 1 {
		t.Fatalf("quotient degrees %v %v, want 1 1", q.WeightedDegree(0), q.WeightedDegree(1))
	}
}

func TestQuotientMergesParallelContributions(t *testing.T) {
	// Two nodes u,v each connected to two removed nodes a,b, and to each
	// other twice (parallel edges merge in the quotient).
	g := NewBuilder(4).
		AddUnitEdge(0, 1).AddUnitEdge(0, 1). // parallel u-v
		AddUnitEdge(0, 2).AddUnitEdge(0, 3). // u-a, u-b
		AddUnitEdge(1, 2).                   // v-a
		Build()
	q, _ := g.Quotient([]bool{false, false, true, true})
	if q.N() != 2 {
		t.Fatalf("n=%d", q.N())
	}
	// expected edges: merged {0,1} of weight 2, loop at 0 weight 2, loop at 1 weight 1
	if q.M() != 3 {
		t.Fatalf("m=%d, want 3 (merged)", q.M())
	}
	if q.TotalWeight() != 5 {
		t.Fatalf("total=%v, want 5", q.TotalWeight())
	}
	if q.WeightedDegree(0) != 4 { // 2 (merged edge) + 2 (loop)
		t.Fatalf("deg(0)=%v, want 4", q.WeightedDegree(0))
	}
}

func TestQuotientPreservesDensityStructure(t *testing.T) {
	// Density of any subset of the quotient G\B equals the density in G of
	// (subset ∪ edges into B counted as loops) — check total weights match:
	// w(Ê) = w(E) − w(E(B)).
	g := ErdosRenyi(40, 0.2, 99)
	inB := make([]bool, 40)
	for v := 0; v < 10; v++ {
		inB[v] = true
	}
	wB, _ := g.SubsetEdgeWeight(inB)
	q, _ := g.Quotient(inB)
	if got, want := q.TotalWeight(), g.TotalWeight()-wB; math.Abs(got-want) > 1e-9 {
		t.Fatalf("quotient total weight %v, want %v", got, want)
	}
}

func TestDiameterAndBFS(t *testing.T) {
	p := Path(10)
	if d, conn := p.Diameter(); d != 9 || !conn {
		t.Fatalf("path diameter=%d conn=%v", d, conn)
	}
	c := Cycle(10)
	if d, _ := c.Diameter(); d != 5 {
		t.Fatalf("cycle diameter=%d, want 5", d)
	}
	k := Clique(7)
	if d, _ := k.Diameter(); d != 1 {
		t.Fatalf("clique diameter=%d, want 1", d)
	}
	dist := p.BFSDistances(0)
	for v := 0; v < 10; v++ {
		if dist[v] != v {
			t.Fatalf("BFS dist[%d]=%d", v, dist[v])
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddUnitEdge(0, 1).AddUnitEdge(2, 3).AddUnitEdge(3, 4)
	g := b.Build()
	label, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("components=%d, want 3", count)
	}
	if label[0] != label[1] || label[2] != label[3] || label[3] != label[4] {
		t.Fatalf("labels=%v", label)
	}
	if label[5] == label[0] || label[5] == label[2] {
		t.Fatalf("isolated node shares a label: %v", label)
	}
}

func TestCloneAndWithWeights(t *testing.T) {
	g := Cycle(5)
	c := g.Clone()
	if c.N() != g.N() || c.M() != g.M() || c.TotalWeight() != g.TotalWeight() {
		t.Fatal("clone differs")
	}
	w := make([]float64, g.M())
	for i := range w {
		w[i] = float64(i + 1)
	}
	h := g.WithWeights(w)
	if h.TotalWeight() != 15 {
		t.Fatalf("reweighted total=%v, want 15", h.TotalWeight())
	}
	if g.TotalWeight() != 5 {
		t.Fatalf("original mutated: %v", g.TotalWeight())
	}
	if g.IsUnitWeight() != true || h.IsUnitWeight() != false {
		t.Fatal("IsUnitWeight wrong")
	}
}

func TestQuickDegreeSum(t *testing.T) {
	// Handshake lemma with self-loops counted once:
	// Σ deg(v) = 2·w(E) − w(loops).
	check := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%20) + 2
		g := ErdosRenyi(n, 0.3, seed)
		sum := 0.0
		for v := 0; v < g.N(); v++ {
			sum += g.WeightedDegree(v)
		}
		return math.Abs(sum-2*g.TotalWeight()) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// EdgeSetHash digests the edge multiset and the node count — not the edge
// order and not which way round an edge was written — and is a plain sum of
// per-edge terms, so a party mutating in place can keep it rolling.
func TestEdgeSetHashIsOrderFreeAndRolls(t *testing.T) {
	edges := []Edge{{0, 1, 5}, {0, 2, 7}, {1, 0, 5}, {3, 3, 1.5}, {2, 3, 0.25}, {0, 1, 1}}
	g := FromEdges(5, edges)
	shuffled := []Edge{{3, 2, 0.25}, {1, 0, 1}, {0, 1, 5}, {3, 3, 1.5}, {2, 0, 7}, {0, 1, 5}}
	if h := FromEdges(5, shuffled); h.EdgeSetHash() != g.EdgeSetHash() || h.Fingerprint() == g.Fingerprint() {
		t.Fatalf("reordered edges: EdgeSetHash %#x vs %#x must agree, Fingerprint must not", h.EdgeSetHash(), g.EdgeSetHash())
	}
	for name, other := range map[string]*Graph{
		"one more node":    FromEdges(6, edges),
		"a copy fewer":     FromEdges(5, edges[1:]),
		"another weight":   FromEdges(5, append([]Edge{{0, 1, 5.5}}, edges[1:]...)),
		"another endpoint": FromEdges(5, append([]Edge{{0, 4, 5}}, edges[1:]...)),
		"weights swapped":  FromEdges(5, append([]Edge{{0, 1, 7}, {0, 2, 5}}, edges[2:]...)),
		"loop moved":       FromEdges(5, append(append([]Edge(nil), edges[:3]...), Edge{4, 4, 1.5}, edges[4], edges[5])),
	} {
		if other.EdgeSetHash() == g.EdgeSetHash() {
			t.Errorf("%s: EdgeSetHash unchanged (%#x)", name, g.EdgeSetHash())
		}
	}
	// Rolling: remove an edge's term, add another's.
	want := FromEdges(5, append([]Edge{{4, 2, 3}}, edges[1:]...)).EdgeSetHash()
	if got := g.EdgeSetHash() - EdgeTerm(1, 0, 5) + EdgeTerm(2, 4, 3); got != want {
		t.Fatalf("rolled hash %#x, from scratch %#x", got, want)
	}
}
