// Cluster: the elimination protocol deployed on the sharded cluster
// engine — P worker shards, cross-shard traffic batched into per-round
// frames — making the paper's deployment question measurable: once the
// protocol itself is O(log n) rounds of Congest-sized messages, the cost
// that remains is *placement*, i.e. how many of those messages cross
// machine boundaries.
//
//	go run ./examples/cluster
package main

import (
	"fmt"

	"distkcore"
	"distkcore/internal/graph"
)

func main() {
	// A power-law graph: the workload where placement matters most.
	g := graph.BarabasiAlbert(2000, 4, 7)
	T := distkcore.RoundsFor(g.N(), 0.5)

	// Reference run: every engine must reproduce this byte for byte.
	ref, met := distkcore.RunDistributedOn(g, T, distkcore.SequentialEngine())
	fmt.Printf("n=%d m=%d T=%d: %d messages, %d wire bytes end to end\n\n",
		g.N(), g.M(), T, met.Messages, met.WireBytes)

	// The same protocol on 8 shards under each partitioner. The protocol
	// metrics do not move — only the cluster-level frame traffic does. (A
	// broadcast crosses the wire once per destination shard that holds a
	// neighbour, not once per neighbour: "cross msgs" counts those frame
	// entries.)
	fmt.Println("partitioner  edge cut   cross msgs  frame bytes  max shard bytes")
	for _, part := range []distkcore.Partitioner{
		distkcore.HashPartitioner(),
		distkcore.RangePartitioner(),
		distkcore.GreedyPartitioner(),
	} {
		eng := distkcore.ShardedEngine(8, part)
		res, m := distkcore.RunDistributedOn(g, T, eng)
		same := m == met
		for v := range ref.B {
			same = same && res.B[v] == ref.B[v]
		}
		sm := eng.ShardMetrics()
		fmt.Printf("%-11s  %6.1f%%   %10d  %11d  %15d   identical=%v\n",
			part.Name(), 100*sm.EdgeCutFraction, sm.CrossMessages,
			sm.CrossFrameBytes, sm.MaxShardBytes, same)
	}

	// Congest mode composes: quantizing values to powers of (1+λ) shrinks
	// the frames too, because the frame codec ships grid indices.
	eng := distkcore.ShardedEngine(8, distkcore.GreedyPartitioner())
	distkcore.RunDistributedOn(g, T, eng)
	full := eng.ShardMetrics().CrossFrameBytes
	distkcore.RunDistributedQuantized(g, T, distkcore.PowerGrid(0.1), eng)
	quant := eng.ShardMetrics().CrossFrameBytes
	fmt.Printf("\ngreedy/8 frame bytes: Λ=ℝ %d → λ=0.1 grid %d (%.1f%%)\n",
		full, quant, 100*float64(quant)/float64(full))
}
