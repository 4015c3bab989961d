// Streaming/dynamic maintenance: a social graph under churn. New
// friendships arrive and old ones dissolve; we keep every user's
// approximate coreness (their "influence tier") fresh with the incremental
// maintainer instead of recomputing from scratch after every change —
// the dynamic-graph extension in the spirit of Aridhi et al., built on the
// locality of the paper's Theorem I.1 (β_t depends only on the t-hop ball).
//
// The finale takes the same churn to the cluster: a 4-worker session absorbs
// one dist.GraphDelta batch as an epoch, the greedy partitioner moves only
// change-frontier nodes off the stale placement, and the sealed values come
// out bit-identical to rebuilding and rerunning from scratch (DESIGN.md
// §9–10).
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"math/rand"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/dynamic"
	"distkcore/internal/graph"
	"distkcore/internal/session"
	"distkcore/internal/shard"
)

func main() {
	const n = 3000
	g := graph.BarabasiAlbert(n, 4, 7)
	eps := 0.5
	T := core.TForEpsilon(n, eps)

	m := dynamic.New(g, T)
	fmt.Printf("social graph: %d users, %d edges; maintaining β with T=%d\n", n, g.M(), T)

	rng := rand.New(rand.NewSource(42))
	type pair struct{ u, v int }
	var live []pair
	for _, e := range g.Edges() {
		live = append(live, pair{e.U, e.V})
	}

	const ops = 2000
	m.Stats = dynamic.Stats{}
	for i := 0; i < ops; i++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			u, v := rng.Intn(n), rng.Intn(n)
			m.InsertEdge(u, v, 1)
			live = append(live, pair{u, v})
		} else {
			j := rng.Intn(len(live))
			p := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			m.DeleteEdge(p.u, p.v)
		}
	}

	perOp := float64(m.Stats.Reevaluated) / float64(ops)
	scratch := float64(n * T)
	fmt.Printf("\nprocessed %d churn events\n", ops)
	fmt.Printf("incremental work: %.0f node-round re-evaluations per event (%.0f of them settled by one pass against the stored value)\n",
		perOp, float64(m.Stats.Verified)/float64(ops))
	fmt.Printf("from-scratch would cost %.0f per event → %.0fx saved\n", scratch, scratch/perOp)

	// Verify against a from-scratch run on the final graph.
	final := m.Graph()
	ref := core.Run(final, core.Options{Rounds: T})
	worst := 0.0
	for v := 0; v < n; v++ {
		if d := abs(ref.B[v] - m.B()[v]); d > worst {
			worst = d
		}
	}
	fmt.Printf("max |incremental − from-scratch| over all users: %g (must be 0)\n", worst)

	// Who moved tiers? Compare against the pre-churn ranking.
	pre := core.Run(g, core.Options{Rounds: T})
	moved := 0
	for v := 0; v < n; v++ {
		if pre.B[v] != m.B()[v] {
			moved++
		}
	}
	fmt.Printf("%d of %d users changed influence tier during the churn window\n", moved, n)

	// ------------------------------------------------------------------
	// The same story on a cluster. A deployment does not hold one big
	// adjacency in one process: the graph is sharded, and a churn batch
	// must reach every shard, update the placement, and leave the result
	// bit-for-bit reproducible. That is a session epoch: the workers of the
	// opening run stay hot, the delta is pushed to all of them, each repairs
	// only the change frontier, and the coordinator seals what they agree on.
	fmt.Println("\n--- one churn epoch on a 4-worker session ---")
	delta := dist.RandomChurn(g, 500, 99)
	mutated, err := delta.Apply(g)
	if err != nil {
		panic(err)
	}

	s, err := session.Open(g, session.Options{P: 4, Rounds: T, Part: shard.Greedy{}})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	ep, err := s.Push(delta, 0)
	if err != nil {
		panic(err)
	}

	cm := ep.Churn
	fmt.Printf("delta: %d ops in %d wire bytes; frontier %d nodes\n",
		delta.Len(), cm.DeltaBytes, cm.FrontierSize)
	fmt.Printf("rebalance: moved %d nodes (%.1f KB of state), edge cut %.3f → %.3f\n",
		cm.MovedNodes, float64(cm.MovedBytes)/1e3, cm.EdgeCutBefore, cm.EdgeCutAfter)

	fresh, _ := core.RunDistributed(mutated, core.Options{Rounds: T}, dist.SeqEngine{})
	same := true
	for v, b := range s.Values() {
		same = same && b == fresh.B[v]
	}
	fmt.Printf("epoch %d values == fresh sequential run on the mutated graph: %v\n", ep.Epoch, same)
	fmt.Printf("  (%d of %d values moved)\n", len(ep.Changed), n)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
