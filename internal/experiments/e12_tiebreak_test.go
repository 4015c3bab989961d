package experiments

import (
	"testing"
	"testing/quick"

	"distkcore/internal/core"
	"distkcore/internal/graph"
)

// TestAblatedBetaMatchesStable: the unstable tie-break changes only the
// auxiliary sets, never the surviving numbers (quick-checked).
func TestAblatedBetaMatchesStable(t *testing.T) {
	check := func(seed int64, tRaw uint8) bool {
		T := int(tRaw%6) + 1
		g := graph.ErdosRenyi(25, 0.25, seed)
		stable := core.Run(g, core.Options{Rounds: T})
		ablated, _ := unstableRun(g, T)
		for v := 0; v < g.N(); v++ {
			if stable.B[v] != ablated[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkUnstableTieBreak5k is core's BenchmarkStableTieBreak5k with the
// order rebuilt every round.
func BenchmarkUnstableTieBreak5k(b *testing.B) {
	g := graph.BarabasiAlbert(5_000, 4, 7)
	T := core.TForEpsilon(5_000, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unstableRun(g, T)
	}
}
