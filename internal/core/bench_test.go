package core

import (
	"testing"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
)

// Micro-benchmarks of the parts of this package the trusted benchmark
// (benchmark/README.md) has no row for: the tie-break ablation (E12), the
// run-to-a-fixed-point mode (E7) and the asynchronous simulator (E15). The
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

func BenchmarkUnstableTieBreak5k(b *testing.B) {
	g := benchGraph(5_000)
	T := TForEpsilon(5_000, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunAblatedTieBreak(g, T)
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
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		_, met := RunAsyncElimination(g, dist.DelayModel{Base: 1, Jitter: 1, Seed: int64(i)}, 1e9)
		events = met.Events
	}
	b.ReportMetric(float64(events), "events/run")
}
