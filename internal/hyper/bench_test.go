package hyper

import (
	"math/rand"
	"testing"

	"distkcore/internal/core"
)

// The trusted benchmark (benchmark/README.md) has no row for the hypergraph
// extension (E16); this is its micro-benchmark.
func BenchmarkHypergraphElimination(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n, m := 2_000, 8_000
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		k := 2 + rng.Intn(3)
		edges = append(edges, Edge{Nodes: rng.Perm(n)[:k], W: 1})
	}
	h, err := NewHypergraph(n, edges)
	if err != nil {
		b.Fatal(err)
	}
	T := core.TForEpsilon(n, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SurvivingNumbers(T)
	}
}
