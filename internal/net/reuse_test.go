package net

import (
	"fmt"
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

// A run's memory passes from a run that finished to the next one built: the
// Drivers' per-node arrays (dist.Driver.Release) and the protocols' slabs
// (core.Slab.Release, DESIGN.md §7), over graphs of any size, between
// whole-graph and subset sims, between protocols and across every engine. Runs
// that interleave coreness, coreness with its auxiliary sets, weak densest and
// the asynchronous elimination, and alternate a larger and a smaller graph
// across SeqEngine, ParEngine, shard.Engine and both net planes, in one
// process, must each be the reference's run — Metrics, and the results bit for
// bit — so state a reused array or chunk kept from the run before would show.
// The references are computed first, each on an emptied free list; the
// coreness values and auxiliary sets are held to core.Run, which builds no sim
// and carves no slab.
func TestReusedDriversRunLikeSeq(t *testing.T) {
	graphs := []*graph.Graph{graph.BarabasiAlbert(300, 3, 4), graph.ErdosRenyi(110, 0.06, 5)}
	relayed, streamed := NewEngine(3, shard.Greedy{}), NewEngine(3, shard.Hash{})
	streamed.Stream, streamed.ChunkBytes = true, 512
	engines := []struct {
		name string
		eng  dist.Engine
	}{{"seq", dist.SeqEngine{}}, {"shard:3", shard.NewEngine(3, shard.Range{})}, {"par:3", dist.ParEngine{W: 3}},
		{"net:3 relayed", relayed}, {"net:3 streamed", streamed}}
	cfg := densest.Config{Gamma: 3}
	delays := core.DelayModel{Base: 1, Jitter: 3, Seed: 7}
	type reference struct {
		plain, aux      *core.Result
		met, wmet, amet dist.Metrics
		wres            *densest.Result
		ares            *core.AsyncResult
		opt, auxOpt     core.Options
		asyncRounds     int
	}
	refs := make([]reference, len(graphs))
	for gi, g := range graphs {
		r := &refs[gi]
		r.opt = core.Options{Rounds: core.TForEpsilon(g.N(), 0.5)}
		r.auxOpt = core.Options{Rounds: r.opt.Rounds, TrackAux: true}
		r.plain, r.aux = core.Run(g, r.opt), core.Run(g, r.auxOpt)
		emptyFreeList()
		_, r.met = core.RunDistributed(g, r.opt, dist.SeqEngine{})
		emptyFreeList()
		r.wres, r.wmet = densest.RunWeakDistributed(g, cfg, dist.SeqEngine{})
		emptyFreeList()
		_, syncRounds := core.ExactCoreness(g)
		r.asyncRounds = 4 * (syncRounds + 1) // (R+1)·D quiesces, D = Base+Jitter
		r.ares, r.amet = core.RunAsyncElimination(g, delays, r.asyncRounds, dist.SeqEngine{})
		if !r.ares.Quiesced {
			t.Fatalf("graph %d: the asynchronous reference did not quiesce in %d rounds", gi, r.asyncRounds)
		}
	}
	for pass := 0; pass < 3; pass++ {
		for gi, g := range graphs {
			ref := &refs[gi]
			for _, e := range engines {
				at := func(what string) string { return fmt.Sprintf("pass %d graph %d %s %s", pass, gi, e.name, what) }
				res, met := core.RunDistributed(g, ref.opt, e.eng)
				if met != ref.met || !sameBits(res.B, ref.plain.B) {
					t.Fatalf("%s: metrics %+v, want %+v, or the values are not core.Run's", at("coreness"), met, ref.met)
				}
				res, met = core.RunDistributed(g, ref.auxOpt, e.eng)
				if met != ref.met || !sameBits(res.B, ref.aux.B) || !reflect.DeepEqual(res.AuxEdges, ref.aux.AuxEdges) {
					t.Fatalf("%s: metrics %+v, want %+v, or the values or auxiliary sets are not core.Run's", at("coreness with TrackAux"), met, ref.met)
				}
				wres, wmet := densest.RunWeakDistributed(g, cfg, e.eng)
				if wmet != ref.wmet || !sameBits(wres.B, ref.wres.B) || !reflect.DeepEqual(wres, ref.wres) {
					t.Fatalf("%s: metrics %+v, want %+v, or the result diverges from the reference", at("weak densest"), wmet, ref.wmet)
				}
				ares, amet := core.RunAsyncElimination(g, delays, ref.asyncRounds, e.eng)
				if amet != ref.amet || !sameBits(ares.B, ref.ares.B) || ares.Makespan != ref.ares.Makespan || ares.Quiesced != ref.ares.Quiesced {
					t.Fatalf("%s: metrics %+v, want %+v, or the result %+v diverges from %+v", at("async elimination"), amet, ref.amet, *ares, *ref.ares)
				}
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
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
