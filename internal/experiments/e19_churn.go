package experiments

import (
	"fmt"
	"math"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/dynamic"
	"distkcore/internal/graph"
	"distkcore/internal/session"
	"distkcore/internal/shard"
	"distkcore/internal/stats"
)

func init() {
	register(Spec{ID: "E19", Title: "churn-aware cluster: incremental maintenance and repartitioning under edge churn", Run: runE19})
}

// runE19 closes the loop E14 (incremental β maintenance) and E18 (sharded
// placement) opened separately: a cluster that must absorb edge churn
// without rebuilding from scratch. One dist.GraphDelta batch drives three
// consumers that must agree:
//
//   - the fresh reference — a from-scratch run on the mutated graph;
//   - the dynamic.Maintainer oracle, which repairs only the change
//     frontier (its bill, re-evals/op, is the incremental-maintenance
//     claim: frontier repair beats the n·T full recompute);
//   - the cluster — a session (DESIGN.md §10) opened on the pre-churn graph
//     and pushed the same delta as one epoch, every party running the
//     incremental Rebalance that moves only frontier nodes; the sealed
//     values must be bit-identical to the fresh reference's.
//
// The sweep is churn rate × partitioner × P. Hash never moves a node
// (placement is ID-pure, the cut drifts wherever churn pushes it); greedy
// moves a budget of frontier nodes and must never worsen the cut (each
// move strictly co-locates more of the node's neighbors).
func runE19(cfg Config) *Report {
	rep := &Report{
		ID:    "E19",
		Title: "churn-aware cluster: incremental maintenance and repartitioning under edge churn",
		Claim: "the locality of Theorem I.1 makes churn cheap twice: β repair touches only the change frontier (Aridhi et al. line), and repartitioning moves only frontier nodes — while a session epoch's values stay bit-identical to a fresh run on the mutated graph",
	}
	sz := func(big, small int) int {
		if cfg.Short {
			return small
		}
		return big
	}
	ws := []workload{
		{"powerlaw", graph.BarabasiAlbert(sz(2000, 250), 4, cfg.Seed)},
		{"smallworld", graph.WattsStrogatz(sz(2000, 250), 6, 0.1, cfg.Seed+1)},
	}
	parts := []shard.Partitioner{shard.Hash{}, shard.Greedy{}}
	ps := []int{2, 4, 8}
	allMatch, cutOK := true, true
	for _, w := range ws {
		n := w.G.N()
		T := core.TForEpsilon(n, 0.5)
		tbl := stats.NewTable("churn ops", "P", "partitioner", "frontier", "moved",
			"moved KB", "delta B", "cut before", "cut after", "matches fresh")
		var oracle []string
		for ci, ops := range []int{sz(128, 24), sz(512, 96)} {
			delta := dist.RandomChurn(w.G, ops, cfg.Seed+int64(10*ci))
			g2, err := delta.Apply(w.G)
			if err != nil {
				panic("E19: " + err.Error())
			}
			ref, _ := core.RunDistributed(g2, core.Options{Rounds: T}, cfg.engine())

			// The maintainer oracle: repair the history incrementally and
			// compare both the values and the bill against from-scratch.
			m := dynamic.New(w.G, T)
			m.Stats = dynamic.Stats{}
			if err := m.ApplyDelta(delta); err != nil {
				panic("E19: " + err.Error())
			}
			scratch := core.Run(g2, core.Options{Rounds: T})
			worst := 0.0
			for v := 0; v < n; v++ {
				if d := math.Abs(m.B()[v] - scratch.B[v]); d > worst {
					worst = d
				}
			}
			perOp := float64(m.Stats.Reevaluated) / float64(m.Stats.Updates)
			full := float64(n * T)
			beats := perOp < full
			allMatch = allMatch && worst <= 1e-9 && beats
			oracle = append(oracle, fmt.Sprintf(
				"%s ops=%d: maintainer vs scratch max|Δβ| = %g (≤ 1e-9: %v); re-evals/op %.0f (%.0f verified without a full gather) vs full recompute %.0f → %.0fx, frontier beats full: %v%s",
				w.Name, ops, worst, worst <= 1e-9, perOp, float64(m.Stats.Verified)/float64(m.Stats.Updates), full, full/perOp,
				beats, mismatchTag(worst <= 1e-9 && beats)))

			for _, p := range ps {
				for _, part := range parts {
					s, err := session.Open(w.G, session.Options{P: p, Rounds: T, Part: part})
					if err != nil {
						panic("E19: " + err.Error())
					}
					ep, err := s.Push(delta, 0)
					if err != nil {
						panic("E19: " + err.Error())
					}
					cm := ep.Churn
					match := equalVectors(s.Values(), ref.B)
					s.Close()
					allMatch = allMatch && match
					if part.Name() == "greedy" && cm.EdgeCutAfter > cm.EdgeCutBefore {
						cutOK = false
					}
					tbl.AddRow(ops, p, part.Name(), cm.FrontierSize, cm.MovedNodes,
						float64(cm.MovedBytes)/1e3, cm.DeltaBytes,
						cm.EdgeCutBefore, cm.EdgeCutAfter, match)
				}
			}
		}
		rep.Tables = append(rep.Tables, Table{
			Name: fmt.Sprintf("%s (n=%d, m=%d, T=%d)", w.Name, n, w.G.M(), T),
			Body: tbl.String(),
		})
		rep.Notes = append(rep.Notes, oracle...)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("every session epoch's values bit-identical to a fresh %s run on the mutated graph: %v%s",
			engineName(cfg.engine()), allMatch, mismatchTag(allMatch)),
		fmt.Sprintf("greedy rebalance never worsens the cut (every move strictly co-locates neighbors): %v%s",
			cutOK, mismatchTag(cutOK)),
		"hash/range never move a node: their placement is a pure function of the ID, so churn costs 0 moves and the cut drifts",
		"moved KB prices migration at 8 B node state + 8 B per incident arc of the mutated graph")
	return rep
}
