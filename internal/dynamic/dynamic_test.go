package dynamic

import (
	"math"
	"math/rand"
	"testing"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/exact"
	"distkcore/internal/graph"
)

// assertMatchesScratch holds every History row to a fresh core.Run on the
// materialized graph bit for bit, and the kept masses to a recount.
func assertMatchesScratch(t *testing.T, m *Maintainer, label string) {
	t.Helper()
	g := m.Graph()
	want := core.Run(g, core.Options{Rounds: m.T, RecordHistory: true})
	for tt := 1; tt <= m.T; tt++ {
		got := m.History(tt)
		for v := 0; v < g.N(); v++ {
			if math.Float64bits(got[v]) != math.Float64bits(want.History[tt-1][v]) {
				t.Fatalf("%s: round %d node %d: incremental %v, scratch %v",
					label, tt, v, got[v], want.History[tt-1][v])
			}
		}
	}
	assertMassMatchesRecount(t, m, label)
}

func TestNewMatchesScratch(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.ErdosRenyi(50, 0.12, 3),
		graph.BarabasiAlbert(50, 3, 4),
		graph.Cycle(20),
		graph.Grid(5, 5),
	} {
		m := New(g, 6)
		assertMatchesScratch(t, m, "fresh")
	}
}

func TestInsertMatchesScratch(t *testing.T) {
	g := graph.ErdosRenyi(40, 0.1, 7)
	m := New(g, 5)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 25; i++ {
		u, v := rng.Intn(40), rng.Intn(40)
		m.InsertEdge(u, v, float64(1+rng.Intn(3)))
		assertMatchesScratch(t, m, "after insert")
	}
	if m.Stats.Updates != 25 {
		t.Fatalf("updates=%d", m.Stats.Updates)
	}
}

func TestDeleteMatchesScratch(t *testing.T) {
	g := graph.BarabasiAlbert(40, 3, 8)
	m := New(g, 5)
	rng := rand.New(rand.NewSource(10))
	edges := g.Edges()
	deleted := 0
	for _, i := range rng.Perm(len(edges))[:20] {
		e := edges[i]
		if m.DeleteEdge(e.U, e.V) {
			deleted++
			assertMatchesScratch(t, m, "after delete")
		}
	}
	if deleted == 0 {
		t.Fatal("no deletions exercised")
	}
}

func TestDeleteMissingEdge(t *testing.T) {
	m := New(graph.Path(4), 3)
	if m.DeleteEdge(0, 3) {
		t.Fatal("deleting a non-edge must report false")
	}
	if !m.DeleteEdge(0, 1) {
		t.Fatal("existing edge not deleted")
	}
	if m.DeleteEdge(0, 1) {
		t.Fatal("double delete must fail")
	}
}

func TestMixedChurnMatchesScratch(t *testing.T) {
	g := graph.PlantedPartition(3, 10, 0.4, 0.02, 11)
	m := New(g, core.TForEpsilon(g.N(), 0.5))
	rng := rand.New(rand.NewSource(12))
	type pair struct{ u, v int }
	var live []pair
	for _, e := range g.Edges() {
		live = append(live, pair{e.U, e.V})
	}
	for i := 0; i < 40; i++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			m.InsertEdge(u, v, 1)
			live = append(live, pair{u, v})
		} else {
			j := rng.Intn(len(live))
			p := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if !m.DeleteEdge(p.u, p.v) {
				t.Fatalf("tracked edge (%d,%d) missing", p.u, p.v)
			}
		}
	}
	assertMatchesScratch(t, m, "after churn")
}

func TestSelfLoopInsert(t *testing.T) {
	m := New(graph.Path(5), 4)
	m.InsertEdge(2, 2, 3)
	assertMatchesScratch(t, m, "self-loop")
	if !m.DeleteEdge(2, 2) {
		t.Fatal("self-loop not deletable")
	}
	assertMatchesScratch(t, m, "self-loop removed")
}

func TestLocalityOfRepair(t *testing.T) {
	// On a long path, inserting an edge at one end must not re-evaluate
	// every node in every round: the work should be far below n·T.
	n, T := 400, 8
	m := New(graph.Path(n), T)
	m.Stats = Stats{}
	m.InsertEdge(0, 1, 1) // parallel edge at the far end
	full := int64(n * T)
	if m.Stats.Reevaluated >= full/4 {
		t.Fatalf("repair re-evaluated %d node-rounds; scratch would be %d — no locality",
			m.Stats.Reevaluated, full)
	}
}

func TestInsertPanicsOnBadInput(t *testing.T) {
	m := New(graph.Path(3), 2)
	for _, f := range []func(){
		func() { m.InsertEdge(-1, 0, 1) },
		func() { m.InsertEdge(0, 3, 1) },
		func() { m.InsertEdge(0, 1, -2) },
		func() { m.InsertEdge(0, 1, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDensestValueTracksRhoStarUnderChurn(t *testing.T) {
	// The maintained max β must stay within [ρ*, 2n^{1/T}·ρ*] after every
	// update — the evolving-densest-subgraph guarantee.
	g := graph.ErdosRenyi(50, 0.12, 19)
	T := core.TForEpsilon(g.N(), 0.5)
	m := New(g, T)
	rng := rand.New(rand.NewSource(20))
	bound := 2 * math.Pow(float64(g.N()), 1/float64(T))
	for i := 0; i < 30; i++ {
		u, v := rng.Intn(50), rng.Intn(50)
		if i%3 == 2 {
			m.DeleteEdge(u, v) // may be a no-op; fine
		} else {
			m.InsertEdge(u, v, float64(1+rng.Intn(3)))
		}
		rho := exact.MaxDensity(m.Graph())
		got := m.DensestValue()
		if got < rho-1e-9 {
			t.Fatalf("step %d: maintained value %v below ρ*=%v", i, got, rho)
		}
		if rho > 0 && got > bound*rho+1e-9 {
			t.Fatalf("step %d: maintained value %v above %v·ρ*=%v", i, got, bound, bound*rho)
		}
	}
}

func TestBAliasesCurrentState(t *testing.T) {
	m := New(graph.Cycle(6), 3)
	b0 := append([]float64(nil), m.B()...)
	m.InsertEdge(0, 3, 5)
	b1 := m.B()
	diff := false
	for i := range b0 {
		if b0[i] != b1[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("B() did not reflect the update")
	}
}

func TestApplyDeltaMatchesScratchAndCanonicalApply(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, 21)
	m := New(g, 5)
	delta := dist.RandomChurn(g, 80, 22)
	if err := m.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	assertMatchesScratch(t, m, "after delta")
	// The maintainer must also agree with the engines' canonical
	// Apply — same β on the same mutated edge multiset (the E19 oracle
	// contract).
	g2, err := delta.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Run(g2, core.Options{Rounds: 5})
	for v := 0; v < g.N(); v++ {
		if math.Float64bits(m.B()[v]) != math.Float64bits(want.B[v]) {
			t.Fatalf("node %d: maintainer %v, canonical-apply scratch %v", v, m.B()[v], want.B[v])
		}
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	g := graph.BarabasiAlbert(20, 2, 1)
	for name, d := range map[string]dist.GraphDelta{
		"missing delete": {Ops: []dist.EdgeOp{{Del: true, U: 0, V: 0}}},
		"out of range":   {Ops: []dist.EdgeOp{{U: 0, V: 99, W: 1}}},
		"bad weight":     {Ops: []dist.EdgeOp{{U: 0, V: 1, W: math.Inf(1)}}},
	} {
		m := New(g, 4)
		if err := m.ApplyDelta(d); err == nil {
			t.Errorf("%s: ApplyDelta accepted an invalid delta", name)
		}
	}
}

func TestDeleteMatchesCanonicalApplyOnWeightedParallelEdges(t *testing.T) {
	// Parallel {0,1} copies with different weights, plus a {0,2} whose
	// deletion would scramble adj[0] under a swap-remove: the maintainer
	// must keep deleting the SAME copy the canonical GraphDelta.Apply
	// deletes (the lowest-index one), or its edge multiset forks from the
	// engines'.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2, 7).AddEdge(0, 1, 5).AddEdge(0, 1, 1).AddEdge(1, 3, 2)
	g := b.Build()
	delta := dist.GraphDelta{Ops: []dist.EdgeOp{
		{Del: true, U: 0, V: 2}, // reorders adj[0] under swap-removal
		{Del: true, U: 1, V: 0}, // must remove the w=5 copy, not w=1
	}}
	m := New(g, 4)
	if err := m.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	g2, err := delta.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Run(g2, core.Options{Rounds: 4})
	for v := 0; v < g.N(); v++ {
		if math.Abs(m.B()[v]-want.B[v]) > 1e-12 {
			t.Fatalf("node %d: maintainer %v, canonical %v — wrong parallel copy deleted", v, m.B()[v], want.B[v])
		}
	}
	// The surviving {0,1} copy must be the w=1 one: total weight tells.
	if got, wantW := m.Graph().TotalWeight(), g2.TotalWeight(); got != wantW {
		t.Fatalf("maintainer total weight %v, canonical %v", got, wantW)
	}
}
