package core

import (
	"testing"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
)

// Micro-benchmarks of the parts of this package the trusted benchmark
// (benchmark/README.md) has no row for: the stable tie-break (E12; the
// ablated one is benchmarked next to E12), the run-to-a-fixed-point mode (E7)
// and the asynchronous elimination (E15). The
// fixed-T elimination itself is core.central_run_ms / core.step_ns_per_node
// there.

func benchGraph(n int) *graph.Graph { return graph.BarabasiAlbert(n, 4, 7) }

func BenchmarkStableTieBreak5k(b *testing.B) {
	g := benchGraph(5_000)
	T := TForEpsilon(5_000, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, Options{Rounds: T, TrackAux: true})
	}
}

func BenchmarkExactConvergence10k(b *testing.B) {
	g := benchGraph(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, Options{Rounds: 0}) // Montresor exact
	}
}

func BenchmarkAsyncElimination5k(b *testing.B) {
	g := benchGraph(5_000)
	d := DelayModel{Base: 1, Jitter: 1}
	budget := asyncBudget(g, d)
	b.ReportAllocs()
	b.ResetTimer()
	var msgs int64
	for i := 0; i < b.N; i++ {
		d.Seed = int64(i)
		_, met := RunAsyncElimination(g, d, budget, dist.SeqEngine{})
		msgs = met.Messages
	}
	b.ReportMetric(float64(msgs), "msgs/run")
}
