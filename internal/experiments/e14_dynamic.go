package experiments

import (
	"fmt"
	"math/rand"

	"distkcore/internal/core"
	"distkcore/internal/dynamic"
	"distkcore/internal/stats"
)

func init() {
	register(Spec{ID: "E14", Title: "extension: dynamic maintenance of surviving numbers", Run: runE14})
}

// runE14 evaluates the dynamic-graph extension (following the Aridhi et
// al. line of work the paper cites): maintaining β_T under edge churn by
// repairing only the change frontier, versus recomputing from scratch.
// The locality that breaks the diameter barrier (β_t depends on the t-hop
// ball) is exactly what makes the incremental repair cheap.
func runE14(cfg Config) *Report {
	rep := &Report{
		ID:    "E14",
		Title: "dynamic maintenance of surviving numbers",
		Claim: "extension of Montresor et al. maintenance (Aridhi et al.) to the approximate procedure: repairs touch only the change frontier",
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ops := 200
	if cfg.Short {
		ops = 40
	}
	tbl := stats.NewTable("graph", "n", "T", "ops", "re-evals/op", "verified/op", "scratch node-rounds/op", "speedup")
	for _, w := range standardWorkloads(cfg) {
		T := core.TForEpsilon(w.G.N(), 0.5)
		m := dynamic.New(w.G, T)
		m.Stats = dynamic.Stats{}
		type pair struct{ u, v int }
		var live []pair
		for _, e := range w.G.Edges() {
			live = append(live, pair{e.U, e.V})
		}
		for i := 0; i < ops; i++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				u, v := rng.Intn(w.G.N()), rng.Intn(w.G.N())
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
		perOp := float64(m.Stats.Reevaluated) / float64(m.Stats.Updates)
		scratch := float64(w.G.N() * T)
		verified := float64(m.Stats.Verified) / float64(m.Stats.Updates)
		tbl.AddRow(w.Name, w.G.N(), T, m.Stats.Updates, perOp, verified, scratch,
			fmt.Sprintf("%.0fx", scratch/perOp))
	}
	rep.Tables = append(rep.Tables, Table{Name: "incremental repair cost", Body: tbl.String()})
	rep.Notes = append(rep.Notes,
		"re-evals/op ≪ n·T: the change frontier usually dies within a few hops",
		"verified/op: the re-evals whose stored value was still feasible, settled by one pass over the arcs without a full gather and heap",
		"correctness vs from-scratch recomputation is asserted by internal/dynamic's tests")
	return rep
}
