package net

import (
	"math"
	"reflect"
	"runtime/debug"
	"testing"

	"distkcore/internal/core"
	"distkcore/internal/densest"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/shard"
)

// A run's per-node arrays pass from a run that finished to the next one built
// (dist.Driver.Release, DESIGN.md §7), over graphs of any size, between
// whole-graph and subset sims and across every engine that releases them.
// Runs that alternate a larger and a smaller graph across SeqEngine,
// ParEngine, the relayed and streamed net planes and shard.Engine, in one
// process, must each be SeqEngine's run — Metrics, and the values bit for
// bit — so state a reused array kept from the run before would show. The
// coreness values are held to core.Run, which builds no sim, so the reference
// does not rest on the free list it checks.
func TestReusedDriversRunLikeSeq(t *testing.T) {
	graphs := []*graph.Graph{graph.BarabasiAlbert(300, 3, 4), graph.ErdosRenyi(110, 0.06, 5)}
	relayed, streamed := NewEngine(3, shard.Greedy{}), NewEngine(4, shard.Hash{})
	streamed.Stream, streamed.ChunkBytes = true, 512
	engines := []struct {
		name string
		eng  dist.Engine
	}{{"seq", dist.SeqEngine{}}, {"shard:3", shard.NewEngine(3, shard.Range{})}, {"par:3", dist.ParEngine{W: 3}},
		{"net:3 relayed", relayed}, {"net:4 streamed", streamed}}
	cfg := densest.Config{Gamma: 3}
	type reference struct {
		b         []float64
		met, wmet dist.Metrics
		wres      *densest.Result
	}
	refs := make([]reference, len(graphs))
	for gi, g := range graphs {
		opt := core.Options{Rounds: core.TForEpsilon(g.N(), 0.5)}
		_, met := core.RunDistributed(g, opt, dist.SeqEngine{})
		wres, wmet := densest.RunWeakDistributed(g, cfg, dist.SeqEngine{})
		refs[gi] = reference{core.Run(g, opt).B, met, wmet, wres}
	}
	for pass := 0; pass < 3; pass++ {
		for gi, g := range graphs {
			opt, ref := core.Options{Rounds: core.TForEpsilon(g.N(), 0.5)}, refs[gi]
			for _, e := range engines {
				res, met := core.RunDistributed(g, opt, e.eng)
				if met != ref.met {
					t.Fatalf("pass %d graph %d %s coreness: metrics %+v, want %+v", pass, gi, e.name, met, ref.met)
				}
				for v := range ref.b {
					if math.Float64bits(res.B[v]) != math.Float64bits(ref.b[v]) {
						t.Fatalf("pass %d graph %d %s coreness: node %d holds %v, core.Run %v", pass, gi, e.name, v, res.B[v], ref.b[v])
					}
				}
				wres, wmet := densest.RunWeakDistributed(g, cfg, e.eng)
				if wmet != ref.wmet || !reflect.DeepEqual(wres, ref.wres) {
					t.Fatalf("pass %d graph %d %s weak densest: metrics %+v, want %+v, or the result diverges from seq", pass, gi, e.name, wmet, ref.wmet)
				}
			}
		}
	}
}

// A second streamed run on one engine takes the first one's Driver arrays —
// each worker its own, the hubs' shard included — instead of allocating its
// own: it allocates under half the bytes. No collection runs between the two:
// under the race detector sync.Pool drops a random quarter of what it is
// handed, and a collection would then free that memory.
func TestSecondStreamedRunReusesDrivers(t *testing.T) {
	g := graph.BarabasiAlbert(2000, 4, 1)
	opt := core.Options{Rounds: core.TForEpsilon(g.N(), 0.5)}
	eng := NewEngine(4, shard.Greedy{})
	eng.Stream = true
	run := func() uint64 {
		return allocated(func() { core.RunDistributed(g, opt, eng) })
	}
	emptyFreeList()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	first := run()
	second := run()
	t.Logf("first run %d bytes, second %d", first, second)
	if 2*second >= first {
		t.Errorf("the second streamed run allocated %d bytes, the first %d: not under half", second, first)
	}
}
