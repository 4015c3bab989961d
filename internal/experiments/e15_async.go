package experiments

import (
	"fmt"
	"math"

	"distkcore/internal/core"
	"distkcore/internal/stats"
)

func init() {
	register(Spec{ID: "E15", Title: "extension: fully asynchronous elimination (Gillet–Hanusse regime)", Run: runE15})
}

// runE15 runs the compact elimination as a chaotic iteration in the
// asynchronous model the paper's related work discusses (Gillet & Hanusse
// 2017 study min-max orientation there, at a 2(2+ε) guarantee with
// diameter-dependent time): every value is delayed by its own number of
// rounds. The monotone update converges to the exact coreness under every
// delay schedule; the experiment reports the cost of asynchrony — messages
// and makespan versus delay variance — and renders a nonzero error, or a run
// the budget cut off, as a mismatch.
func runE15(cfg Config) *Report {
	rep := &Report{
		ID:    "E15",
		Title: "fully asynchronous elimination",
		Claim: "related work (Gillet–Hanusse): asynchronous networks; our monotone update converges order-independently to the exact fixpoint",
	}
	delays := []core.DelayModel{
		{Base: 1, Jitter: 0},
		{Base: 1, Jitter: 1},
		{Base: 1, Jitter: 10},
	}
	for _, w := range standardWorkloads(cfg) {
		exactB, syncRounds := core.ExactCoreness(w.G)
		tbl := stats.NewTable("delay jitter", "messages", "makespan (rounds)", "sync rounds", "quiesced", "max |Δ| vs coreness")
		for _, d := range delays {
			d.Seed = cfg.Seed
			// (R+1)·D rounds always quiesce (core.RunAsyncElimination).
			budget := (syncRounds + 2) * int(math.Round(d.Base+d.Jitter))
			res, met := core.RunAsyncElimination(w.G, d, budget, cfg.engine())
			worst := 0.0
			for v := range exactB {
				worst = max(worst, math.Abs(res.B[v]-exactB[v]))
			}
			tbl.AddRow(d.Jitter, met.Messages, res.Makespan, syncRounds,
				fmt.Sprint(res.Quiesced, mismatchTag(res.Quiesced)), fmt.Sprint(worst, mismatchTag(worst == 0)))
		}
		rep.Tables = append(rep.Tables, Table{
			Name: w.Name, Body: tbl.String(),
		})
	}
	rep.Notes = append(rep.Notes,
		"max |Δ| is 0 in every row: the fixpoint is schedule-independent",
		"jitter 0 is the synchronous schedule: its makespan is the sync rounds",
		"makespan grows with jitter while messages stay within a small factor of the jitter-0 row — asynchrony costs time, not much bandwidth")
	return rep
}
