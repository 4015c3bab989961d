package densest

import (
	"math"
	"testing"

	"distkcore/internal/dist"
	"distkcore/internal/exact"
	"distkcore/internal/graph"
)

func subsetByLeader(r *Result) map[graph.NodeID]Subset {
	m := make(map[graph.NodeID]Subset, len(r.Subsets))
	for _, s := range r.Subsets {
		m[s.Leader] = s
	}
	return m
}

func assertSameResult(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if len(want.Subsets) != len(got.Subsets) {
		t.Fatalf("%s: %d subsets centralized vs %d distributed",
			name, len(want.Subsets), len(got.Subsets))
	}
	// Same collection, listed the same way: Best() must name the same subset.
	for i := range want.Subsets {
		if w, g := want.Subsets[i].Leader, got.Subsets[i].Leader; w != g {
			t.Fatalf("%s: Subsets[%d] is leader %d's centralized, leader %d's distributed", name, i, w, g)
		}
	}
	wm, gm := subsetByLeader(want), subsetByLeader(got)
	for leader, ws := range wm {
		gs, ok := gm[leader]
		if !ok {
			t.Fatalf("%s: leader %d missing in distributed run", name, leader)
		}
		if len(ws.Members) != len(gs.Members) {
			t.Fatalf("%s leader %d: members %v vs %v", name, leader, ws.Members, gs.Members)
		}
		for i := range ws.Members {
			if ws.Members[i] != gs.Members[i] {
				t.Fatalf("%s leader %d: members differ at %d: %v vs %v",
					name, leader, i, ws.Members, gs.Members)
			}
		}
		if math.Abs(ws.Density-gs.Density) > 1e-9 {
			t.Fatalf("%s leader %d: density %v vs %v", name, leader, ws.Density, gs.Density)
		}
		if ws.TStar != gs.TStar {
			t.Fatalf("%s leader %d: t* %d vs %d", name, leader, ws.TStar, gs.TStar)
		}
	}
	for v := range want.B {
		if math.Abs(want.B[v]-got.B[v]) > 1e-9 {
			t.Fatalf("%s: β(%d) %v vs %v", name, v, want.B[v], got.B[v])
		}
		if want.LeaderOf[v] != got.LeaderOf[v] {
			t.Fatalf("%s: leader(%d) %d vs %d", name, v, want.LeaderOf[v], got.LeaderOf[v])
		}
		if want.InSubset[v] != got.InSubset[v] {
			t.Fatalf("%s: inSubset(%d) %v vs %v", name, v, want.InSubset[v], got.InSubset[v])
		}
	}
}

func TestDistributedMatchesCentralized(t *testing.T) {
	for name, g := range workloads() {
		cfg := Config{Gamma: 3}
		want := Weak(g, cfg)
		got, met := RunWeakDistributed(g, cfg, dist.SeqEngine{})
		assertSameResult(t, name, want, got)
		if met.Messages == 0 {
			t.Fatalf("%s: no messages exchanged", name)
		}
	}
}

// tiedCliques is 60 disjoint unit-weight cliques — clique i on the 3 + (7i mod
// 3) nodes starting at node 5i, the rest isolated — so the collection is 120
// subsets (the isolated nodes' singletons included) over four distinct
// densities: ordering it is all ties.
func tiedCliques() *graph.Graph {
	b := graph.NewBuilder(300)
	for i := 0; i < 60; i++ {
		for u, size := 5*i, 3+(7*i)%3; u < 5*i+size; u++ {
			for v := u + 1; v < 5*i+size; v++ {
				b.AddUnitEdge(u, v)
			}
		}
	}
	return b.Build()
}

// TestTiedSubsetsKeepOneOrder: the reference and the protocol list the same
// collection in the same order, ties included — density descending, then
// leader ascending — so Best() names one subset whichever produced the Result.
// (Weak used to sort on density alone, unstably: 119 of these 120 positions
// held a different leader, and Best() was leader 194's against leader 14's.)
func TestTiedSubsetsKeepOneOrder(t *testing.T) {
	g := tiedCliques()
	cfg := Config{Gamma: 3}
	want := Weak(g, cfg)
	got, _ := RunWeakDistributed(g, cfg, dist.SeqEngine{})
	if len(want.Subsets) != 120 {
		t.Fatalf("%d subsets, the reproducer has 120", len(want.Subsets))
	}
	assertSameResult(t, "tied cliques", want, got)
	if w, g := want.Best().Leader, got.Best().Leader; w != 14 || g != 14 {
		t.Fatalf("Best() is leader %d's centralized and leader %d's distributed, want 14 twice", w, g)
	}
	for i := 1; i < len(want.Subsets); i++ {
		a, b := want.Subsets[i-1], want.Subsets[i]
		if a.Density < b.Density || a.Density == b.Density && a.Leader >= b.Leader {
			t.Fatalf("Subsets[%d], Subsets[%d] = (%v, leader %d), (%v, leader %d): not density descending, leader ascending",
				i-1, i, a.Density, a.Leader, b.Density, b.Leader)
		}
	}
}

func TestDistributedParEngineMatches(t *testing.T) {
	g := graph.PlantedPartition(3, 12, 0.5, 0.02, 5)
	cfg := Config{Gamma: 3}
	want := Weak(g, cfg)
	got, _ := RunWeakDistributed(g, cfg, dist.ParEngine{})
	assertSameResult(t, "planted-par", want, got)
}

func TestDistributedGuarantee(t *testing.T) {
	for name, g := range workloads() {
		rho := exact.MaxDensity(g)
		res, _ := RunWeakDistributed(g, Config{Gamma: 3}, dist.SeqEngine{})
		if !GuaranteeHolds(res, 3, rho) {
			t.Fatalf("%s: distributed run misses the Theorem I.3 guarantee", name)
		}
	}
}

func TestDistributedIsolatedNodes(t *testing.T) {
	// Two isolated nodes plus an edge: every node must terminate and report.
	b := graph.NewBuilder(4)
	b.AddUnitEdge(0, 1)
	g := b.Build()
	res, met := RunWeakDistributed(g, Config{Gamma: 3}, dist.SeqEngine{})
	if !met.Halted {
		t.Fatal("protocol did not terminate before the round budget")
	}
	for v := 0; v < 4; v++ {
		if res.LeaderOf[v] < 0 {
			t.Fatalf("node %d has no leader", v)
		}
	}
	// the edge {0,1} forms a density-1/2 subset under its leader
	best := res.Best()
	if best == nil || best.Density < 0.5-1e-9 {
		t.Fatalf("best subset %+v, want density 0.5", best)
	}
}

func TestDistributedHonorsRoundsOverride(t *testing.T) {
	g := graph.Cycle(20)
	res, met := RunWeakDistributed(g, Config{Gamma: 3, Rounds: 3}, dist.SeqEngine{})
	if res.T != 3 {
		t.Fatalf("T=%d", res.T)
	}
	if met.Rounds > 6*3+10 {
		t.Fatalf("used %d rounds", met.Rounds)
	}
}

func TestDistributedLiteralAcceptance(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, 4)
	cfg := Config{Gamma: 3, LiteralAcceptance: true}
	want := Weak(g, cfg)
	got, _ := RunWeakDistributed(g, cfg, dist.SeqEngine{})
	assertSameResult(t, "literal", want, got)
}

// TestDistributedSurvivesInboxPoisoning runs the four-phase protocol — its
// phase 3/4 hook holds a pointer into the inbox while it works — with the
// runtime overwriting every inbox the moment Round returns: nothing may be
// kept past the call (dist.Program), on either delivery path.
func TestDistributedSurvivesInboxPoisoning(t *testing.T) {
	dist.CheckInboxRetention = true
	defer func() { dist.CheckInboxRetention = false }()
	for name, g := range workloads() {
		cfg := Config{Gamma: 3}
		want := Weak(g, cfg)
		for _, eng := range []dist.Engine{dist.SeqEngine{}, dist.ParEngine{W: 3}} {
			got, _ := RunWeakDistributed(g, cfg, eng)
			assertSameResult(t, name, want, got)
		}
	}
}
