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
// The streamed engine runs at two chunk sizes, so a mesh's log blocks, ahead
// buffers and links' read buffers pass between runs of unlike shape too (the
// second at ChunkBytes 64: many-block logs and many records ahead of their
// round). The references are computed first, each on an emptied free list; the
// coreness values and auxiliary sets are held to core.Run, which builds no sim
// and carves no slab.
func TestReusedDriversRunLikeSeq(t *testing.T) {
	graphs := []*graph.Graph{graph.BarabasiAlbert(300, 3, 4), graph.ErdosRenyi(110, 0.06, 5)}
	relayed, streamed, streamed64 := NewEngine(3, shard.Greedy{}), NewEngine(3, shard.Hash{}), NewEngine(3, shard.Hash{})
	streamed.Stream, streamed.ChunkBytes = true, 512
	streamed64.Stream, streamed64.ChunkBytes = true, 64
	engines := []struct {
		name string
		eng  dist.Engine
	}{{"seq", dist.SeqEngine{}}, {"shard:3", shard.NewEngine(3, shard.Range{})}, {"par:3", dist.ParEngine{W: 3}},
		{"net:3 relayed", relayed}, {"net:3 streamed", streamed}, {"net:3 streamed 64", streamed64}}
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

// transportBound is what a streamed run on BarabasiAlbert(2 000, 4, 1) at
// P = 4 may allocate once an earlier run's memory of its shape is there to
// take: the result vector, the partition, the coordinator's ledgers, the
// pipes, dial, hub and hellos. Such a run read 93–169 KB (136–234 KB under the
// race detector); a second run read 463–479 KB while the mesh's logs, the
// links' read buffers and shard.Local's memory were allocated afresh every run.
const transportBound = 320 << 10

// growBound is transportBound plus what a default run grows after a run at
// ChunkBytes 64 whose shape never needed it — the links' read buffers and the
// encode buffers sized for 5 KB chunks, the copies of chunks that size ahead of
// their round: such a run read 216–271 KB (253–327 KB under the race
// detector).
const growBound = 448 << 10

// A second streamed run takes the first one's transport memory — each mesh's
// log blocks, ahead buffers and links' read buffers (mesh.Release), each
// worker's shard.Local (Local.Release) — with its Drivers' arrays and its
// protocol's slab: it allocates under transportBound. Runs of unlike chunk
// sizes take each other's memory the same way: after a run at ChunkBytes 64
// (many-block logs, many chunks copied ahead of their round) a default run
// grows only what the smaller shape never needed, and a ChunkBytes 64 run
// after both allocates under transportBound again. Every run is byte-identical
// to seq. No collection runs but the two that empty the free lists: under the
// race detector sync.Pool drops a random quarter of what it is handed, and a
// collection would then free that memory.
func TestSecondStreamedRunReusesItsTransport(t *testing.T) {
	g := graph.BarabasiAlbert(2000, 4, 1)
	opt := core.Options{Rounds: core.TForEpsilon(g.N(), 0.5)}
	ref, refMet := core.RunDistributed(g, opt, dist.SeqEngine{})
	eng := NewEngine(4, shard.Greedy{})
	eng.Stream = true
	run := func(chunk int) uint64 {
		t.Helper()
		eng.ChunkBytes = chunk
		var res *core.Result
		var met dist.Metrics
		n := allocated(func() { res, met = core.RunDistributed(g, opt, eng) })
		if met != refMet || !sameBits(res.B, ref.B) {
			t.Fatalf("ChunkBytes %d: metrics %+v, want %+v, or the values are not seq's", chunk, met, refMet)
		}
		t.Logf("ChunkBytes %d: %d bytes", chunk, n)
		return n
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type step struct{ chunk, bound int }
	for _, runs := range [][]step{{{0, 0}, {0, transportBound}}, {{64, 0}, {0, growBound}, {64, transportBound}}} {
		emptyFreeList()
		for i, r := range runs {
			if n := run(r.chunk); i > 0 && n >= uint64(r.bound) {
				t.Errorf("run %d of %v allocated %d bytes, want < %d", i+1, runs, n, r.bound)
			}
		}
	}
}
