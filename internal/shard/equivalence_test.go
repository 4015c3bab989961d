package shard

import (
	"fmt"
	"reflect"
	"testing"

	"distkcore/internal/core"
	"distkcore/internal/densest"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// Cross-engine equivalence property: the coreness and weak-densest
// protocols must produce identical transcripts — final B vectors and the
// full dist.Metrics, Words included — on SeqEngine, ParEngine and every
// ShardedEngine configuration, over a grid of generators × seeds × P ×
// partitioner. This is the byte-identity contract of the package doc.

func equivalenceGraphs(seed int64) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"ba":     graph.BarabasiAlbert(120, 3, seed),
		"er":     graph.ErdosRenyi(100, 0.05, seed+1),
		"ws":     graph.WattsStrogatz(90, 4, 0.2, seed+2),
		"grid":   graph.Grid(8, 9),
		"sparse": graph.ErdosRenyi(60, 0.02, seed+3), // isolated nodes
		"figI1b": graph.FigureI1B(48).G,
	}
}

func shardEngines(t *testing.T) map[string]*Engine {
	t.Helper()
	out := map[string]*Engine{}
	for _, p := range []int{1, 2, 3, 4, 8} {
		for _, part := range []Partitioner{Hash{}, Range{}, Greedy{}} {
			out[fmt.Sprintf("shard:%d/%s", p, part.Name())] = NewEngine(p, part)
		}
	}
	return out
}

func TestCorenessEquivalentAcrossEngines(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		for name, g := range equivalenceGraphs(seed) {
			T := core.TForEpsilon(g.N(), 0.5)
			for _, lam := range []quantize.Lambda{nil, quantize.NewPowerGrid(0.1)} {
				opt := core.Options{Rounds: T, Lambda: lam}
				ref, refMet := core.RunDistributed(g, opt, dist.SeqEngine{})

				parRes, parMet := core.RunDistributed(g, opt, dist.ParEngine{})
				if parMet != refMet || !reflect.DeepEqual(parRes.B, ref.B) {
					t.Fatalf("seed %d %s λ=%v: par diverges from seq", seed, name, lam)
				}
				for ename, eng := range shardEngines(t) {
					res, met := core.RunDistributed(g, opt, eng)
					if met != refMet {
						t.Fatalf("seed %d %s λ=%v %s: metrics %+v, want %+v",
							seed, name, lam, ename, met, refMet)
					}
					if !reflect.DeepEqual(res.B, ref.B) {
						t.Fatalf("seed %d %s λ=%v %s: B vector diverges from seq",
							seed, name, lam, ename)
					}
				}
			}
		}
	}
}

func TestWeakDensestEquivalentAcrossEngines(t *testing.T) {
	cfg := densest.Config{Gamma: 3}
	for _, seed := range []int64{2, 9} {
		for name, g := range equivalenceGraphs(seed) {
			ref, refMet := densest.RunWeakDistributed(g, cfg, dist.SeqEngine{})
			for ename, eng := range shardEngines(t) {
				res, met := densest.RunWeakDistributed(g, cfg, eng)
				if met != refMet {
					t.Fatalf("seed %d %s %s: metrics %+v, want %+v", seed, name, ename, met, refMet)
				}
				if !reflect.DeepEqual(res, ref) {
					t.Fatalf("seed %d %s %s: result diverges from seq", seed, name, ename)
				}
			}
		}
	}
}

// The sharded engine must keep dist.Metrics engine-invariant — cross-shard
// framing is a transport concern and may not leak into Words/WireBytes —
// while still reporting nonzero frame traffic whenever the cut is nonzero.
func TestFramingDoesNotPerturbProtocolMetrics(t *testing.T) {
	g := graph.BarabasiAlbert(200, 4, 11)
	T := core.TForEpsilon(g.N(), 0.5)
	_, seqMet := core.RunDistributed(g, core.Options{Rounds: T}, dist.SeqEngine{})
	eng := NewEngine(4, Hash{})
	_, met := core.RunDistributed(g, core.Options{Rounds: T}, eng)
	if met != seqMet {
		t.Fatalf("metrics differ: %+v vs %+v", met, seqMet)
	}
	sm := eng.ShardMetrics()
	if sm.CrossMessages == 0 || sm.CrossFrameBytes == 0 {
		t.Fatalf("4-way hash sharding of a BA graph reports no cross traffic: %+v", sm)
	}
	if sm.EdgeCutFraction <= 0 || sm.EdgeCutFraction >= 1 {
		t.Fatalf("implausible edge cut %v", sm.EdgeCutFraction)
	}
}

// With the runtime re-hashing every delivered Vec one delivery later
// (dist.CheckVecAliasing), a weak-densest run — whose Vecs cross the shards
// as frame entries and are decoded into the receiving shard's Driver — must
// still be seq's execution: no Vec, sent or decoded, is rewritten while an
// inbox holds it. The decoded Vecs sit in the shards' arenas, which the check
// re-hashes a delivery later, before the slot they sit in is reset (Local).
func TestVecAliasingCheckCleanOverShards(t *testing.T) {
	dist.CheckVecAliasing = true
	defer func() { dist.CheckVecAliasing = false }()
	g := graph.BarabasiAlbert(80, 3, 3)
	ref, refMet := densest.RunWeakDistributed(g, densest.Config{Gamma: 3}, dist.SeqEngine{})
	res, met := densest.RunWeakDistributed(g, densest.Config{Gamma: 3}, NewEngine(3, Hash{}))
	if met != refMet || !reflect.DeepEqual(res, ref) {
		t.Fatalf("aliasing-checked shard run diverges from seq")
	}
}
