package exact

import (
	"math"
	"testing"

	"distkcore/internal/graph"
)

// Micro-benchmarks of the exact baselines the experiments compare against
// (E7–E9). The trusted benchmark (benchmark/README.md) has no row for this
// layer; run with `go test -run '^$' -bench . ./internal/exact/`.

func benchGraph(n int) *graph.Graph { return graph.BarabasiAlbert(n, 4, 7) }

func BenchmarkBZCores100k(b *testing.B) {
	g := benchGraph(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CoresUnweighted(g)
	}
}

func BenchmarkWeightedPeel50k(b *testing.B) {
	g := graph.Apply(benchGraph(50_000), graph.UniformWeights{Lo: 1, Hi: 9}, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CoresWeighted(g)
	}
}

func BenchmarkExactDensestFlow2k(b *testing.B) {
	g := benchGraph(2_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Densest(g)
	}
}

func BenchmarkCharikarPeel50k(b *testing.B) {
	g := benchGraph(50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CharikarPeel(g)
	}
}

func BenchmarkLocallyDense1k(b *testing.B) {
	g := benchGraph(1_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocallyDense(g)
	}
}

func BenchmarkExactOrientationUnit2k(b *testing.B) {
	g := benchGraph(2_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExactOrientationUnit(g)
	}
}

// --- flow engines head to head (densest-subset network shape) ---

func BenchmarkFlowDinicDensestNet(b *testing.B)       { benchFlow(b, true) }
func BenchmarkFlowPushRelabelDensestNet(b *testing.B) { benchFlow(b, false) }

func benchFlow(b *testing.B, dinic bool) {
	g := benchGraph(2_000)
	rho := g.Density() * 1.5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dinic {
			d := NewDinic(2 + g.M() + g.N())
			buildFlowNet(g, rho, d.AddArc)
			d.MaxFlow(0, 1)
		} else {
			p := NewPushRelabel(2 + g.M() + g.N())
			buildFlowNet(g, rho, p.AddArc)
			p.MaxFlow(0, 1)
		}
	}
}

func buildFlowNet(g *graph.Graph, rho float64, addArc func(int, int, float64) int) {
	inf := math.Inf(1)
	m := g.M()
	for i, e := range g.Edges() {
		addArc(0, 2+i, e.W)
		addArc(2+i, 2+m+e.U, inf)
		if !e.IsLoop() {
			addArc(2+i, 2+m+e.V, inf)
		}
	}
	for v := 0; v < g.N(); v++ {
		addArc(2+m+v, 1, rho)
	}
}
