// Engines: the same elimination protocol executed on the sequential
// reference engine and the worker-pool parallel engine, and its asynchronous
// variant (every value delayed by its own number of rounds) — with the
// communication metrics each one reports, and a traced sharded run showing
// the per-phase breakdown the observability layer collects.
//
//	go run ./examples/engines
package main

import (
	"fmt"
	"math"

	"distkcore"
	"distkcore/internal/graph"
)

func main() {
	g := graph.BarabasiAlbert(500, 3, 42)
	T := distkcore.RoundsFor(g.N(), 0.5)

	seq, ms := distkcore.RunDistributedOn(g, T, distkcore.SequentialEngine())
	par, mp := distkcore.RunDistributedOn(g, T, distkcore.ParallelEngine())
	same := true
	for v := range seq.B {
		if seq.B[v] != par.B[v] {
			same = false
		}
	}
	fmt.Printf("sequential: rounds=%d messages=%d words=%d wireBytes=%d\n",
		ms.Rounds, ms.Messages, ms.Words, ms.WireBytes)
	fmt.Printf("parallel:   rounds=%d messages=%d words=%d wireBytes=%d\n",
		mp.Rounds, mp.Messages, mp.Words, mp.WireBytes)
	fmt.Printf("engines agree on every β: %v\n\n", same)

	// Congest mode: quantize transmitted values to powers of (1+λ) — the
	// wire shrinks from 8-byte words to 1–2-byte grid indices.
	_, mq := distkcore.RunDistributedQuantized(g, T, distkcore.PowerGrid(0.1),
		distkcore.SequentialEngine())
	fmt.Printf("quantized λ=0.1: wireBytes=%d (%.1f%% of Λ=ℝ)\n\n",
		mq.WireBytes, 100*float64(mq.WireBytes)/float64(ms.WireBytes))

	// The weak densest subset pipeline as a real four-phase protocol.
	wd, mw := distkcore.WeakDensestDistributed(g, 0.5, distkcore.ParallelEngine())
	fmt.Printf("weak densest: %d subsets, best density %.3f, %d rounds, %d messages\n\n",
		len(wd.Subsets), wd.Best().Density, mw.Rounds, mw.Messages)

	// Asynchronous: every value takes 1–6 rounds to arrive; converges to the
	// EXACT coreness at quiescence under any delay model, reproducibly per
	// seed. 1000 rounds is a generous budget; Quiesced says it sufficed.
	as, ma := distkcore.AsyncCoreness(g, distkcore.DelayModel{Base: 1, Jitter: 5, Seed: 7}, 1000)
	exact := distkcore.ExactCoreness(g)
	worst := 0.0
	for v := range as.B {
		worst = max(worst, math.Abs(as.B[v]-exact[v]))
	}
	fmt.Printf("async: messages=%d makespan=%d rounds quiesced=%v  max|b-c|=%g\n\n",
		ma.Messages, as.Makespan, as.Quiesced, worst)

	// Observability (DESIGN.md §11): trace a sharded run — same values,
	// same metrics, plus a per-phase account of where the time and the
	// cross-shard bytes went. Write tr.Trace() to a file with
	// WriteChromeTrace for a chrome://tracing / Perfetto timeline.
	tr := distkcore.NewTracer()
	eng := distkcore.TracedEngine(distkcore.ShardedEngine(4, distkcore.GreedyPartitioner()), tr)
	distkcore.RunDistributedOn(g, T, eng)
	for _, pt := range tr.Trace().PhaseTotals() {
		fmt.Printf("traced shard run: phase=%-12s spans=%3d  bytes=%d\n", pt.Phase, pt.Spans, pt.Bytes)
	}
}
