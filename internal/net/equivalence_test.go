package net

import (
	"fmt"
	"reflect"
	"testing"

	"distkcore/internal/core"
	"distkcore/internal/densest"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// Cross-engine equivalence property, extended to the socket transport: the
// coreness and weak-densest protocols must produce identical transcripts —
// final B vectors and the full dist.Metrics, Words included — on the
// in-process cluster engine (workers as goroutines over net.Pipe, full wire
// protocol) as on dist.SeqEngine, over generators × seeds × P ×
// partitioner. This is the same byte-identity contract internal/shard's
// equivalence tests pin for the sharded engine.

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

func netEngines(t *testing.T) map[string]*Engine {
	t.Helper()
	out := map[string]*Engine{}
	for _, p := range []int{1, 2, 4} {
		for _, part := range []shard.Partitioner{shard.Hash{}, shard.Range{}, shard.Greedy{}} {
			e := NewEngine(p, part)
			out[fmt.Sprintf("net:%d/%s", p, part.Name())] = e
		}
	}
	// Streamed rows: the direct worker↔worker mesh must carry the identical
	// execution. Tiny chunks force multi-chunk flows through the per-peer
	// credit windows.
	parts := []shard.Partitioner{shard.Hash{}, shard.Range{}, shard.Greedy{}, shard.Hash{}}
	for i, p := range []int{1, 2, 4, 4} {
		e := NewEngine(p, parts[i])
		e.Stream = true
		e.ChunkBytes = 512
		out[fmt.Sprintf("net:%d/%s/stream", p, parts[i].Name())] = e
	}
	return out
}

func TestCorenessEquivalentAcrossNetEngines(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		for name, g := range equivalenceGraphs(seed) {
			T := core.TForEpsilon(g.N(), 0.5)
			for _, lam := range []quantize.Lambda{nil, quantize.NewPowerGrid(0.1)} {
				opt := core.Options{Rounds: T, Lambda: lam}
				ref, refMet := core.RunDistributed(g, opt, dist.SeqEngine{})
				for ename, eng := range netEngines(t) {
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

func TestWeakDensestEquivalentAcrossNetEngines(t *testing.T) {
	cfg := densest.Config{Gamma: 3}
	for _, seed := range []int64{2, 9} {
		for name, g := range equivalenceGraphs(seed) {
			ref, refMet := densest.RunWeakDistributed(g, cfg, dist.SeqEngine{})
			for ename, eng := range netEngines(t) {
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

// The real-socket transports must carry the identical execution: same
// protocol metrics, same values, over unix-domain and TCP loopback
// connections (the frames actually traverse the kernel).
func TestSocketTransportsEquivalent(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 5)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T, Lambda: quantize.NewPowerGrid(0.1)}
	ref, refMet := core.RunDistributed(g, opt, dist.SeqEngine{})
	for _, tr := range []string{TransportUnix, TransportTCP} {
		eng := NewEngine(3, shard.Greedy{})
		eng.Transport = tr
		res, met := core.RunDistributed(g, opt, eng)
		if met != refMet {
			t.Fatalf("%s: metrics %+v, want %+v", tr, met, refMet)
		}
		if !reflect.DeepEqual(res.B, ref.B) {
			t.Fatalf("%s: B vector diverges from seq", tr)
		}
		if sm := eng.ClusterMetrics(); sm.CrossFrameBytes == 0 || sm.CrossMessages == 0 {
			t.Fatalf("%s: no cross traffic recorded: %+v", tr, sm)
		}
	}
}

// Vec payloads (the weak-densest aggregation vectors) must survive the
// socket transport under the aliasing checker on both frame planes: decoded
// Vecs are delivered into inboxes from the workers' arenas and re-hashed a
// round later, so any arena-lifetime bug in the transport's decode path would
// trip the panic.
func TestVecAliasingCheckCleanOverNet(t *testing.T) {
	dist.CheckVecAliasing = true
	defer func() { dist.CheckVecAliasing = false }()
	g := graph.BarabasiAlbert(80, 3, 3)
	ref, refMet := densest.RunWeakDistributed(g, densest.Config{Gamma: 3}, dist.SeqEngine{})
	for _, stream := range []bool{false, true} {
		eng := NewEngine(3, shard.Hash{})
		eng.Stream = stream
		res, met := densest.RunWeakDistributed(g, densest.Config{Gamma: 3}, eng)
		if met != refMet || !reflect.DeepEqual(res, ref) {
			t.Fatalf("stream=%v: aliasing-checked net run diverges from seq", stream)
		}
	}
}

// The inbox a hook receives is valid for the call only (dist.Program). With
// the runtime poisoning every inbox on return, the cluster — injected remote
// sends, relay and streamed rounds, Vec payloads decoded from frames — must
// still carry the identical execution.
func TestInboxRetentionCheckCleanOverNet(t *testing.T) {
	g := graph.BarabasiAlbert(80, 3, 3)
	T := core.TForEpsilon(g.N(), 0.5)
	ref, refMet := core.RunDistributed(g, core.Options{Rounds: T}, dist.SeqEngine{})
	dref, drefMet := densest.RunWeakDistributed(g, densest.Config{Gamma: 3}, dist.SeqEngine{})
	dist.CheckInboxRetention = true
	defer func() { dist.CheckInboxRetention = false }()
	for _, stream := range []bool{false, true} {
		eng := NewEngine(3, shard.Greedy{})
		eng.Stream = stream
		if res, met := core.RunDistributed(g, core.Options{Rounds: T}, eng); met != refMet || !reflect.DeepEqual(res.B, ref.B) {
			t.Fatalf("stream=%v: poisoned coreness run diverges from seq", stream)
		}
		if res, met := densest.RunWeakDistributed(g, densest.Config{Gamma: 3}, eng); met != drefMet || !reflect.DeepEqual(res, dref) {
			t.Fatalf("stream=%v: poisoned weak-densest run diverges from seq", stream)
		}
	}
}

// placed is a Partitioner that hands out one fixed assignment: how a test
// runs an engine on a placement no Partition call produced.
type placed []int

func (a placed) Partition(*graph.Graph, int) []int { return a }
func (a placed) Rebalance(_ shard.Topology, _ int, _ []int, _ []graph.NodeID, _ int, moves []shard.Move) []shard.Move {
	return moves[:0]
}
func (placed) Name() string { return "placed" }

// rebalanced mutates g by a random churn batch and returns the mutated graph
// with part's assignment of g rebalanced onto it — the placement the retired
// one-shot churned run executed on (DESIGN.md §9).
func rebalanced(t *testing.T, g *graph.Graph, part shard.Partitioner, p, ops int, seed int64) (*graph.Graph, placed) {
	t.Helper()
	delta := dist.RandomChurn(g, ops, seed)
	g2, err := delta.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	return g2, shard.RebalanceAssign(part, g2, p, part.Partition(g, p), delta, 0)
}

// What retiring the one-shot churned run gave up is a run whose placement
// was rebalanced off a stale assignment rather than partitioned fresh.
// Nothing else depended on it: on the mutated graph, a cluster run under the
// rebalanced assignment is byte-identical to a fresh SeqEngine run, over
// generators × seeds × P × partitioner.
func TestChurnedNetEquivalence(t *testing.T) {
	for _, seed := range []int64{2, 9} {
		for name, g := range map[string]*graph.Graph{
			"ba": graph.BarabasiAlbert(120, 3, seed),
			"ws": graph.WattsStrogatz(90, 4, 0.2, seed+1),
		} {
			opt := core.Options{Rounds: core.TForEpsilon(g.N(), 0.5), Lambda: quantize.NewPowerGrid(0.1)}
			for _, p := range []int{1, 2, 4} {
				for _, part := range []shard.Partitioner{shard.Hash{}, shard.Greedy{}} {
					g2, next := rebalanced(t, g, part, p, 50, seed+2)
					ref, refMet := core.RunDistributed(g2, opt, dist.SeqEngine{})
					res, met := core.RunDistributed(g2, opt, NewEngine(p, next))
					if met != refMet || !reflect.DeepEqual(res.B, ref.B) {
						t.Fatalf("seed %d %s net:%d/%s: run under the rebalanced placement diverges from a fresh seq run (metrics %+v, want %+v)",
							seed, name, p, part.Name(), met, refMet)
					}
				}
			}
		}
	}
}

// The same bytes must survive a real kernel socket, and the cluster ledger
// must match the in-process sharded engine's under the identical rebalanced
// placement — frame-for-frame, byte-for-byte.
func TestChurnedUnixTransportAndLedger(t *testing.T) {
	g2, next := rebalanced(t, graph.BarabasiAlbert(200, 3, 6), shard.Greedy{}, 3, 80, 7)
	opt := core.Options{Rounds: core.TForEpsilon(g2.N(), 0.5)}
	ref, refMet := core.RunDistributed(g2, opt, dist.SeqEngine{})

	se := shard.NewEngine(3, next)
	core.RunDistributed(g2, opt, se)

	ne := NewEngine(3, next)
	ne.Transport = TransportUnix
	res, met := core.RunDistributed(g2, opt, ne)
	if met != refMet || !reflect.DeepEqual(res.B, ref.B) {
		t.Fatal("unix-socket run under the rebalanced placement diverges from a fresh seq run")
	}
	ssm, nsm := se.ShardMetrics(), ne.ClusterMetrics()
	if ssm.CrossMessages != nsm.CrossMessages || ssm.CrossFrameBytes != nsm.CrossFrameBytes ||
		!reflect.DeepEqual(ssm.PerShardBytes, nsm.PerShardBytes) {
		t.Fatalf("ledgers diverge:\n shard %+v\n net   %+v", ssm, nsm)
	}
}
