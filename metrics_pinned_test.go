// Pinned-execution regression tests for the memory-layout refactor (PR 3,
// DESIGN.md §7): the CSR graph core, the arena mailboxes and the pooled
// shard frames must preserve byte-identical executions, so every Metrics
// value below is asserted verbatim on every engine. The socket-cluster engine
// (PR 4, DESIGN.md §8) is held to the same absolute captures. A diff here
// means the substrate changed *semantics*, not just layout — treat it as a
// bug, not as a number to update.
//
// The captures have been renegotiated once, explicitly (PR 19, ROADMAP item
// 2): the *protocol* changed what it says. Algorithm 2 became change-driven —
// Init is silent and a node re-sends its surviving number only when it moved
// (DESIGN.md §2) — so Messages, Words and WireBytes of every row dropped to
// the smaller truth (ba500 core: 47 808 → 9 746 messages; CHANGES.md has all
// nine rows side by side), while Rounds, Halted and every β below are the
// pre-refactor values, unedited. The old count survives as the closed form
// T·Σ_v |Peers(v)| and the new one is held to an independent oracle, both in
// internal/core/messages_oracle_test.go. And once more (PR 25, ROADMAP item
// 6b), for the nine "weak" rows only: phases 2–4 of the weak densest protocol
// became change-driven too — a leader pair is announced when it moves, a node
// says once that it dropped out, the tree waits asleep (DESIGN.md §2) — so
// their Messages, Words and WireBytes fell (ba500: 77 550 → 26 341 messages)
// while Rounds 57/64/52, Halted and every collection stayed; the new count is
// derived from the centralized run by internal/densest's
// TestWeakMessagesMatchChangeOracle. The paragraph above applies to
// everything that is not a change of protocol.
package distkcore_test

import (
	"math"
	"testing"

	"distkcore/internal/core"
	"distkcore/internal/densest"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	dnet "distkcore/internal/net"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

func pinnedGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"ba500", graph.BarabasiAlbert(500, 3, 2)},
		{"ws400", graph.WattsStrogatz(400, 6, 0.1, 5)},
		{"er300", graph.ErdosRenyi(300, 0.05, 11)},
	}
}

// TestPinnedEngineMetrics replays coreness (exact and quantized Λ) and the
// weak densest protocol on every engine and asserts the full Metrics against
// the captures.
func TestPinnedEngineMetrics(t *testing.T) {
	want := []struct {
		graph, engine, run string
		m                  dist.Metrics
	}{
		{"ba500", "seq", "core", dist.Metrics{Rounds: 16, Messages: 9746, Words: 9746, WireBytes: 90729, Halted: true}},
		{"ba500", "seq", "coreQ", dist.Metrics{Rounds: 16, Messages: 9746, Words: 9746, WireBytes: 22507, Halted: true}},
		{"ba500", "seq", "weak", dist.Metrics{Rounds: 57, Messages: 26341, Words: 42309, WireBytes: 418321, Halted: true}},
		{"ba500", "par", "core", dist.Metrics{Rounds: 16, Messages: 9746, Words: 9746, WireBytes: 90729, Halted: true}},
		{"ba500", "par", "coreQ", dist.Metrics{Rounds: 16, Messages: 9746, Words: 9746, WireBytes: 22507, Halted: true}},
		{"ba500", "par", "weak", dist.Metrics{Rounds: 57, Messages: 26341, Words: 42309, WireBytes: 418321, Halted: true}},
		{"ba500", "shard3greedy", "core", dist.Metrics{Rounds: 16, Messages: 9746, Words: 9746, WireBytes: 90729, Halted: true}},
		{"ba500", "shard3greedy", "coreQ", dist.Metrics{Rounds: 16, Messages: 9746, Words: 9746, WireBytes: 22507, Halted: true}},
		{"ba500", "shard3greedy", "weak", dist.Metrics{Rounds: 57, Messages: 26341, Words: 42309, WireBytes: 418321, Halted: true}},
		{"ws400", "seq", "core", dist.Metrics{Rounds: 15, Messages: 4970, Words: 4970, WireBytes: 48121, Halted: true}},
		{"ws400", "seq", "coreQ", dist.Metrics{Rounds: 15, Messages: 4970, Words: 4970, WireBytes: 13331, Halted: true}},
		{"ws400", "seq", "weak", dist.Metrics{Rounds: 64, Messages: 26071, Words: 38041, WireBytes: 412848, Halted: true}},
		{"ws400", "par", "core", dist.Metrics{Rounds: 15, Messages: 4970, Words: 4970, WireBytes: 48121, Halted: true}},
		{"ws400", "par", "coreQ", dist.Metrics{Rounds: 15, Messages: 4970, Words: 4970, WireBytes: 13331, Halted: true}},
		{"ws400", "par", "weak", dist.Metrics{Rounds: 64, Messages: 26071, Words: 38041, WireBytes: 412848, Halted: true}},
		{"ws400", "shard3greedy", "core", dist.Metrics{Rounds: 15, Messages: 4970, Words: 4970, WireBytes: 48121, Halted: true}},
		{"ws400", "shard3greedy", "coreQ", dist.Metrics{Rounds: 15, Messages: 4970, Words: 4970, WireBytes: 13331, Halted: true}},
		{"ws400", "shard3greedy", "weak", dist.Metrics{Rounds: 64, Messages: 26071, Words: 38041, WireBytes: 412848, Halted: true}},
		{"er300", "seq", "core", dist.Metrics{Rounds: 15, Messages: 18930, Words: 18930, WireBytes: 181237, Halted: true}},
		{"er300", "seq", "coreQ", dist.Metrics{Rounds: 15, Messages: 17187, Words: 17187, WireBytes: 44177, Halted: true}},
		{"er300", "seq", "weak", dist.Metrics{Rounds: 52, Messages: 39015, Words: 47985, WireBytes: 520792, Halted: true}},
		{"er300", "par", "core", dist.Metrics{Rounds: 15, Messages: 18930, Words: 18930, WireBytes: 181237, Halted: true}},
		{"er300", "par", "coreQ", dist.Metrics{Rounds: 15, Messages: 17187, Words: 17187, WireBytes: 44177, Halted: true}},
		{"er300", "par", "weak", dist.Metrics{Rounds: 52, Messages: 39015, Words: 47985, WireBytes: 520792, Halted: true}},
		{"er300", "shard3greedy", "core", dist.Metrics{Rounds: 15, Messages: 18930, Words: 18930, WireBytes: 181237, Halted: true}},
		{"er300", "shard3greedy", "coreQ", dist.Metrics{Rounds: 15, Messages: 17187, Words: 17187, WireBytes: 44177, Halted: true}},
		{"er300", "shard3greedy", "weak", dist.Metrics{Rounds: 52, Messages: 39015, Words: 47985, WireBytes: 520792, Halted: true}},
	}
	engines := map[string]dist.Engine{
		"seq":          dist.SeqEngine{},
		"par":          dist.ParEngine{},
		"shard3greedy": shard.NewEngine(3, shard.Greedy{}),
		// The socket-cluster engine is pinned to the same absolute captures:
		// a real transport may not move the numbers either.
		"net2greedy": dnet.NewEngine(2, shard.Greedy{}),
		// The worker-pool parallel engine (PR 8) is pinned at explicit
		// worker counts too: concurrent range stepping and the parallel
		// arena fill may not move a byte relative to the captures.
		"par4": dist.ParEngine{W: 4},
		"par8": dist.ParEngine{W: 8},
		// The streamed worker↔worker mesh (PR 10) is pinned to the same
		// captures: direct peer frame delivery — full mesh and forced
		// hypercube relay alike — may not move a byte either.
		"net2stream":     streamPinEngine(2, 0),
		"net4streamcube": streamPinEngine(4, 4),
	}
	// The captures are engine-invariant by contract, so the net engine's
	// and the explicit-worker-count pool's expected rows are the seq rows
	// verbatim.
	for _, w := range want[:len(want):len(want)] {
		if w.engine == "seq" {
			for _, eng := range []string{"net2greedy", "par4", "par8", "net2stream", "net4streamcube"} {
				row := w
				row.engine = eng
				want = append(want, row)
			}
		}
	}
	for _, gg := range pinnedGraphs() {
		T := core.TForEpsilon(gg.g.N(), 0.5)
		for _, w := range want {
			if w.graph != gg.name {
				continue
			}
			var got dist.Metrics
			switch w.run {
			case "core":
				_, got = core.RunDistributed(gg.g, core.Options{Rounds: T}, engines[w.engine])
			case "coreQ":
				_, got = core.RunDistributed(gg.g, core.Options{Rounds: T, Lambda: quantize.NewPowerGrid(0.1)}, engines[w.engine])
			case "weak":
				_, got = densest.RunWeakDistributed(gg.g, densest.Config{Gamma: 3}, engines[w.engine])
			}
			if got != w.m {
				t.Errorf("%s/%s/%s: Metrics drifted from pre-refactor capture:\n got  %+v\n want %+v",
					w.graph, w.engine, w.run, got, w.m)
			}
		}
	}
}

// streamPinEngine builds a streamed-mesh cluster engine for the pinned
// matrix. A small chunk size forces multi-chunk flow control even on these
// mid-size graphs; threshold 4 at P=4 forces the hypercube relay topology.
func streamPinEngine(p, threshold int) *dnet.Engine {
	e := dnet.NewEngine(p, shard.Greedy{})
	e.Stream = true
	e.ChunkBytes = 1024
	e.MeshThreshold = threshold
	return e
}

// TestPinnedCorenessValues hashes the surviving numbers themselves, so a
// change in adjacency or delivery order that alters tie-breaking (while
// staying within the approximation guarantee) is still caught.
func TestPinnedCorenessValues(t *testing.T) {
	hashB := func(b []float64) uint64 {
		h := uint64(1469598103934665603)
		for _, x := range b {
			v := math.Float64bits(x)
			for i := 0; i < 8; i++ {
				h ^= v & 0xff
				h *= 1099511628211
				v >>= 8
			}
		}
		return h
	}
	want := map[string]uint64{
		"ba500": 0x3f99d538b0ed0a83,
		"ws400": 0xb5dc2ab3ac391ca7,
		"er300": 0xbf7f04e41b8a9c27,
	}
	for _, gg := range pinnedGraphs() {
		T := core.TForEpsilon(gg.g.N(), 0.5)
		res, _ := core.RunDistributed(gg.g, core.Options{Rounds: T}, dist.SeqEngine{})
		if got := hashB(res.B); got != want[gg.name] {
			t.Errorf("%s: surviving numbers drifted from pre-refactor capture: hash %#x, want %#x",
				gg.name, got, want[gg.name])
		}
	}
}
