package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// The change-driven elimination program sends b_t(v) only in the rounds it
// moved (DESIGN.md §2), so Metrics.Messages is no longer T·Σ|Peers(v)| but a
// property of the value trajectories. This test holds it to a count that
// shares no code with the distributed program: the centralized simulator's
// history (core.Run steps every node every round from a dense prev array and
// knows nothing of inboxes, tables or flags), with β₀ = +∞ — every node whose
// value moved in round t < T tells each distinct neighbor once.

// changeCount returns Σ_{t=1..T−1} Σ_{v : β_t(v) ≠ β_{t−1}(v)} |Peers(v)| from
// the centralized history, the every-round count T·Σ_v |Peers(v)| the program
// sent before it was change-driven (Init plus rounds 1..T−1), and β_T.
func changeCount(g *graph.Graph, T int, lam quantize.Lambda) (changed, everyRound int64, final []float64) {
	hist := core.Run(g, core.Options{Rounds: T, Lambda: lam, RecordHistory: true}).History
	for v := 0; v < g.N(); v++ {
		fan := int64(len(g.Peers(v)))
		everyRound += int64(T) * fan
		prev := math.Inf(1)
		for t := 1; t < T; t++ {
			if cur := hist[t-1][v]; cur != prev {
				changed += fan
				prev = cur
			}
		}
	}
	return changed, everyRound, hist[T-1]
}

func TestMessagesMatchChangeOracle(t *testing.T) {
	stream4 := net.NewEngine(4, shard.Greedy{})
	stream4.Stream, stream4.ChunkBytes = true, 512
	engines := []struct {
		name string
		eng  dist.Engine
	}{
		{"seq", dist.SeqEngine{}},
		{"par", dist.ParEngine{}},
		{"shard3", shard.NewEngine(3, shard.Greedy{})},
		{"net2 relay", net.NewEngine(2, shard.Hash{})},
		{"net4 stream", stream4},
	}
	lams := []quantize.Lambda{quantize.Reals{}, quantize.NewPowerGrid(0.1), quantize.NewPowerGrid(0.5)}
	for _, seed := range []int64{1, 2, 3} {
		graphs := map[string]*graph.Graph{
			"ba":    graph.BarabasiAlbert(150, 3, seed),
			"ws":    graph.WattsStrogatz(120, 6, 0.1, seed),
			"er":    graph.ErdosRenyi(100, 0.06, seed),
			"loopy": core.LoopyMultigraph(90, seed),
		}
		for gname, g := range graphs {
			T := core.TForEpsilon(g.N(), 0.5)
			for _, lam := range lams {
				want, everyRound, final := changeCount(g, T, lam)
				if want == 0 || want >= everyRound {
					t.Fatalf("%s seed %d Λ=%s: change count %d of %d every-round messages does not exercise the rule",
						gname, seed, lam.Name(), want, everyRound)
				}
				for _, e := range engines {
					res, met := core.RunDistributed(g, core.Options{Rounds: T, Lambda: lam}, e.eng)
					id := fmt.Sprintf("%s seed %d Λ=%s on %s", gname, seed, lam.Name(), e.name)
					for v, b := range res.B {
						if math.Float64bits(b) != math.Float64bits(final[v]) {
							t.Fatalf("%s: β(%d) = %v, centralized %v", id, v, b, final[v])
						}
					}
					if met.Messages != want {
						t.Errorf("%s: %d messages, the value trajectories give %d (every round: %d)", id, met.Messages, want, everyRound)
					}
					if met.Words != met.Messages {
						t.Errorf("%s: %d words for %d one-word messages", id, met.Words, met.Messages)
					}
					if met.Rounds != T || !met.Halted {
						t.Errorf("%s: ran %d rounds (halted %v), want %d", id, met.Rounds, met.Halted, T)
					}
				}
			}
		}
	}
}

// The numbers metrics_pinned_test.go carried until the program became
// change-driven survive as a closed form, not as a mode: T broadcasts per node
// — Init's and one per round but the last — to every distinct neighbor.
func TestEveryRoundCountIsTheRetiredGolden(t *testing.T) {
	for _, c := range []struct {
		name    string
		g       *graph.Graph
		retired int64
	}{
		{"ba500", graph.BarabasiAlbert(500, 3, 2), 47808},
		{"ws400", graph.WattsStrogatz(400, 6, 0.1, 5), 36000},
		{"er300", graph.ErdosRenyi(300, 0.05, 11), 67740},
	} {
		T := core.TForEpsilon(c.g.N(), 0.5)
		changed, everyRound, _ := changeCount(c.g, T, quantize.Reals{})
		if everyRound != c.retired {
			t.Errorf("%s: T·Σ|Peers| = %d, the retired golden was %d", c.name, everyRound, c.retired)
		}
		_, met := core.RunDistributed(c.g, core.Options{Rounds: T}, dist.SeqEngine{})
		if met.Messages != changed || met.Messages > everyRound {
			t.Errorf("%s: %d messages, want the change count %d ≤ %d", c.name, met.Messages, changed, everyRound)
		}
	}
}

// A skipped step must leave the maintained order of Algorithm 3 where the
// step would have — the order is what breaks ties and fixes the order sums
// are added in, so it is what "exact to the bit" rests on. The centralized
// simulator with TrackAux steps an Updater per node every round; its
// auxiliary sets, compared as ordered lists, are a window on that order.
// Small multigraphs with weights in {1, 2, 3} and a self-loop on every fourth
// draw make ties and self-reading arcs the common case: a program that
// forgets a step is owed after its own value moved fails here within the
// first ten seeds.
func TestSkippedStepsKeepTheOrder(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		b := graph.NewBuilder(n)
		for i, m := 0, n+rng.Intn(2*n); i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if rng.Intn(4) == 0 {
				v = u
			}
			b.AddEdge(u, v, float64(1+rng.Intn(3)))
		}
		g := b.Build()
		for T := 2; T <= 8; T++ {
			opt := core.Options{Rounds: T, TrackAux: true}
			want := core.Run(g, opt)
			got, _ := core.RunDistributed(g, opt, dist.SeqEngine{})
			for v := range want.B {
				if want.B[v] != got.B[v] || !slices.Equal(want.AuxEdges[v], got.AuxEdges[v]) {
					t.Fatalf("seed %d T=%d node %d: β %v, N_v %v; stepping every round gives %v, %v",
						seed, T, v, got.B[v], got.AuxEdges[v], want.B[v], want.AuxEdges[v])
				}
			}
		}
	}
}

// A node that asked to sleep (Ctx.SleepUntil) costs a round nothing, so what a
// round costs is the hooks it runs. This holds them, round by round, to a
// count read off the centralized history: everyone in Init, in round 1 (the
// first step is owed) and in round T (which publishes), and in between the
// nodes whose value moved the round before — they broadcast, so they stayed
// up — and the nodes that heard one. The engines report it as their step
// spans' counts, which must mean hooks run on every surface; the graph is the
// benchmark's coreness-seq workload, and the total is pinned in CI as well.
func TestHooksRunMatchActiveSetOracle(t *testing.T) {
	g := graph.BarabasiAlbert(1000, 4, 1)
	n, T := g.N(), core.TForEpsilon(g.N(), 0.5)
	hist := core.Run(g, core.Options{Rounds: T, RecordHistory: true}).History
	moved := func(v graph.NodeID, t int) bool {
		prev := math.Inf(1)
		if t > 1 {
			prev = hist[t-2][v]
		}
		return hist[t-1][v] != prev
	}
	want, total := make([]int64, T+1), int64(0)
	for t := 0; t <= T; t++ {
		want[t] = int64(n)
		if t > 1 && t < T {
			want[t] = 0
			for v := 0; v < n; v++ {
				up := moved(v, t-1)
				for _, p := range g.Peers(v) {
					up = up || moved(p, t-1)
				}
				if up {
					want[t]++
				}
			}
		}
		total += want[t]
	}
	if T != 18 || total != 11090 || total >= int64(T+1)*int64(n) {
		t.Fatalf("T = %d and %d hooks of %d: the workload no longer is the one CI pins at 11090", T, total, (T+1)*n)
	}

	tr := obs.NewTracer()
	sh := shard.NewEngine(4, shard.Greedy{})
	sh.SetTracer(tr)
	stream := net.NewEngine(4, shard.Greedy{})
	stream.Stream = true
	stream.SetTracer(tr)
	for _, e := range []struct {
		name string
		eng  dist.Engine
	}{
		{"seq", dist.SeqEngine{Trace: tr}},
		{"par:3", dist.ParEngine{W: 3, Trace: tr}},
		{"shard:4", sh},
		{"net:4:greedy:pipe:stream", stream},
	} {
		tr.Reset()
		_, met := core.RunDistributed(g, core.Options{Rounds: T}, e.eng)
		got := make([]int64, T+1)
		for _, sp := range tr.Trace().Spans {
			if sp.Phase == obs.PhaseStep {
				got[sp.Round] += sp.Count
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: hooks run per round %v, the value trajectories give %v", e.name, got, want)
		}
		if met.Messages != 28560 || met.Rounds != T || !met.Halted {
			t.Errorf("%s: metrics %+v, want the 28560 messages of a run in which every hook runs", e.name, met)
		}
	}
}
