package orient

import (
	"testing"

	"distkcore/internal/core"
	"distkcore/internal/graph"
)

// The trusted benchmark (benchmark/README.md) has no row for the orientation
// pipeline (E3); this is its micro-benchmark.
func BenchmarkPipelineOrientation20k(b *testing.B) {
	g := graph.BarabasiAlbert(20_000, 4, 7)
	T := core.TForEpsilon(20_000, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Approximate(g, T)
	}
}
