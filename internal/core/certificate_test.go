package core

import (
	"testing"
	"testing/quick"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// TestCorenessCertificate checks the defining property of coreness against
// the elimination: with threshold b = c(v) node v survives forever (its
// core is a fixed point of the elimination), while with any threshold
// strictly above the degeneracy the whole graph dies within n rounds.
func TestCorenessCertificate(t *testing.T) {
	for name, g := range testGraphs(41) {
		c := exactCorenessRef(g)
		for v := 0; v < g.N(); v++ {
			if c[v] == 0 {
				continue
			}
			alive := SingleThreshold(g, c[v], g.N()+1)
			if !alive[v] {
				t.Fatalf("%s: node %d died at threshold c(v)=%v", name, v, c[v])
			}
		}
		maxC := 0.0
		for _, x := range c {
			if x > maxC {
				maxC = x
			}
		}
		alive := SingleThreshold(g, maxC+0.5, g.N()+1)
		for v, a := range alive {
			if a {
				t.Fatalf("%s: node %d survived threshold above the degeneracy", name, v)
			}
		}
	}
}

// TestCorenessMaximality: with threshold c(v) + ε node v must eventually
// die (c is the LARGEST b for which v has a surviving subgraph).
func TestCorenessMaximality(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, 23)
	c := exactCorenessRef(g)
	for v := 0; v < g.N(); v++ {
		alive := SingleThreshold(g, c[v]+1e-6, g.N()+1)
		if alive[v] {
			t.Fatalf("node %d survived threshold c(v)+ε", v)
		}
	}
}

// TestQuantizedDistributedMatchesCentralized covers the E6 code path: the
// message-passing run with a PowerGrid must agree with the centralized
// simulation value for value.
func TestQuantizedDistributedMatchesCentralized(t *testing.T) {
	g := graph.ErdosRenyi(80, 0.1, 29)
	for _, lambda := range []float64{0.01, 0.1, 0.5} {
		lam := quantize.NewPowerGrid(lambda)
		for _, T := range []int{1, 3, 7} {
			want := Run(g, Options{Rounds: T, Lambda: lam})
			got, _ := RunDistributed(g, Options{Rounds: T, Lambda: lam}, dist.SeqEngine{})
			for v := 0; v < g.N(); v++ {
				if !almostEq(want.B[v], got.B[v]) {
					t.Fatalf("λ=%v T=%d node %d: centralized %v, distributed %v",
						lambda, T, v, want.B[v], got.B[v])
				}
			}
		}
	}
}

// TestHistoryIsFullLength: even when the values freeze early, History must
// be indexable for every t ≤ Rounds (the contract the experiments rely
// on).
func TestHistoryIsFullLength(t *testing.T) {
	g := graph.Clique(8) // converges after ~1 round
	res := Run(g, Options{Rounds: 25, RecordHistory: true})
	if res.Rounds != 25 || len(res.History) != 25 {
		t.Fatalf("rounds=%d len(history)=%d", res.Rounds, len(res.History))
	}
	for ti := 1; ti < 25; ti++ {
		for v := 0; v < 8; v++ {
			if res.History[ti][v] != res.History[0][v] {
				t.Fatalf("clique values should freeze immediately")
			}
		}
	}
}

// TestSurvivingNumberDominatesSubsets is the structural heart of
// Lemma III.2 stated directly: for any subset S containing v, β_t(v) is at
// least the minimum induced degree of S.
func TestSurvivingNumberDominatesSubsets(t *testing.T) {
	check := func(seed int64, mask uint32, tRaw uint8) bool {
		T := int(tRaw%5) + 1
		g := graph.ErdosRenyi(16, 0.3, seed)
		member := make([]bool, 16)
		any := false
		for v := 0; v < 16; v++ {
			if mask&(1<<uint(v)) != 0 {
				member[v] = true
				any = true
			}
		}
		if !any {
			return true
		}
		deg := g.InducedDegrees(member)
		minDeg := -1.0
		for v, in := range member {
			if in && (minDeg < 0 || deg[v] < minDeg) {
				minDeg = deg[v]
			}
		}
		res := Run(g, Options{Rounds: T})
		for v, in := range member {
			if in && res.B[v] < minDeg-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
