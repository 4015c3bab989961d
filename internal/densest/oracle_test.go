package densest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/shard"
)

// The distributed program says what moved (DESIGN.md §2), so its
// Metrics.Messages is a property of the centralized run's trajectories: the
// tests below hold it to a count read off Weak — which steps every node every
// round from dense arrays and knows nothing of inboxes, statuses or sleep —
// and hold the sleeping itself to the same programs kept awake.

// quarterMultigraph is a BA graph with weights in quarters (every sum is
// exact in any order, so Weak's incremental degrees are the protocol's
// adjacency-order sums to the bit), a parallel copy of every fourth edge and a
// self-loop on every third node.
func quarterMultigraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	w := func() float64 { return float64(1+rng.Intn(12)) / 4 }
	b := graph.NewBuilder(n)
	for i, e := range graph.BarabasiAlbert(n, 3, seed).Edges() {
		b.AddEdge(e.U, e.V, w())
		if i%4 == 0 {
			b.AddEdge(e.V, e.U, w())
		}
	}
	for v := 0; v < n; v += 3 {
		b.AddEdge(v, v, w())
	}
	return b.Build()
}

// weakOracle is what the centralized run says the protocol costs.
type weakOracle struct {
	messages int64
	rounds   int // the round the last node halts in
	// what the graph exercised
	leaderMoves, dropOuts, detached, rejectedTrees int
}

// countWeak derives the oracle from the centralized run of cfg on g:
//
//	phase 1  |Peers(v)| each time β_t(v) moved, t < T (core's change oracle)
//	phase 2  |Peers(v)| per seed and per leader-pair move before the last
//	         election step (whose move nobody would read), one request per
//	         non-root, one ack per confirmed child
//	phase 3  |Peers(v)| per activity announcement and per drop-out before
//	         slot T−1
//	phase 4  one kAgg per confirmed non-root, one kStar per tree edge under an
//	         accepted root
//
// and the last halt: a leaf reports in round 3T+1, a root of height h decides
// in 3T+1+h, its t* reaches depth d in 3T+1+h+d; whoever waits for a t* that
// does not come — below a rejected root or a detached node — stops at 6T+9.
func countWeak(g *graph.Graph, cfg Config) (weakOracle, *Result) {
	res, tr := weak(g, cfg, true)
	n, T := g.N(), res.T
	fan := func(v graph.NodeID) int64 { return int64(len(g.Peers(v))) }
	var o weakOracle

	hist := core.Run(g, core.Options{Rounds: T, RecordHistory: true}).History
	for v := 0; v < n; v++ {
		prev := math.Inf(1)
		for t := 1; t < T; t++ {
			if cur := hist[t-1][v]; cur != prev {
				o.messages += fan(v)
				prev = cur
			}
		}
	}

	for v := 0; v < n; v++ {
		o.messages += 2 * fan(v) // the seed (v, b_v) and the activity announcement
		for t := 1; t < T; t++ {
			if tr.leaders[t][v] != tr.leaders[t-1][v] {
				o.messages += fan(v)
				o.leaderMoves++
			}
		}
		switch tr.parent[v] {
		case v:
		case -1:
			o.messages++ // a request nobody confirmed
			o.detached++
		default:
			o.messages += 3 // request, ack, kAgg
		}
		for k := 0; k+1 < T; k++ {
			if tr.num[v][k] == 1 && tr.num[v][k+1] == 0 { // dropped out in slot k ≤ T−2
				o.messages += fan(v)
				o.dropOuts++
			}
		}
	}

	accepted := make(map[graph.NodeID]bool, len(res.Subsets))
	for _, s := range res.Subsets {
		accepted[s.Leader] = true
	}
	var height func(v graph.NodeID) int
	height = func(v graph.NodeID) int {
		h := 0
		for _, ch := range tr.children[v] {
			h = max(h, 1+height(ch))
		}
		return h
	}
	var flood func(v graph.NodeID, at int)
	flood = func(v graph.NodeID, at int) {
		o.rounds = max(o.rounds, at)
		for _, ch := range tr.children[v] {
			o.messages++ // kStar
			flood(ch, at+1)
		}
	}
	for v := 0; v < n; v++ {
		switch {
		case tr.parent[v] == -1:
			o.rounds = 6*T + 9
		case tr.parent[v] != v:
		case accepted[v]:
			flood(v, 3*T+1+height(v))
		default:
			o.rounds = max(o.rounds, 3*T+1+height(v))
			if len(tr.children[v]) > 0 {
				o.rounds = 6*T + 9
				o.rejectedTrees++
			}
		}
	}
	return o, res
}

// surfaces are the engines the oracle tests run the program on; tr may be nil.
func surfaces(tr *obs.Tracer) []struct {
	name string
	eng  dist.Engine
} {
	sh := shard.NewEngine(4, shard.Greedy{})
	sh.SetTracer(tr)
	stream := net.NewEngine(4, shard.Greedy{})
	stream.Stream = true
	stream.SetTracer(tr)
	return []struct {
		name string
		eng  dist.Engine
	}{
		{"seq", dist.SeqEngine{Trace: tr}},
		{"par:3", dist.ParEngine{W: 3, Trace: tr}},
		{"shard:4", sh},
		{"net:4 stream", stream},
	}
}

func TestWeakMessagesMatchChangeOracle(t *testing.T) {
	type workload struct {
		name string
		g    *graph.Graph
		cfg  Config
	}
	loads := []workload{
		{"caveman", graph.Caveman(5, 6), Config{Gamma: 3}},
		// T far below the diameter: elections end mid-flood, so parents are
		// refused and whole subtrees wait out the termination bound.
		{"cycle T=4", graph.Cycle(40), Config{Gamma: 3, Rounds: 4}},
		{"grid T=3", graph.Grid(9, 9), Config{Gamma: 3, Rounds: 3}},
		{"ba literal", graph.BarabasiAlbert(120, 3, 4), Config{Gamma: 3, LiteralAcceptance: true}},
		{"tied cliques", tiedCliques(), Config{Gamma: 3}},
	}
	for _, seed := range []int64{1, 2, 3} {
		loads = append(loads,
			workload{fmt.Sprint("ba seed ", seed), graph.BarabasiAlbert(150, 3, seed), Config{Gamma: 3}},
			workload{fmt.Sprint("ws seed ", seed), graph.WattsStrogatz(120, 6, 0.1, seed), Config{Gamma: 2.5}},
			workload{fmt.Sprint("er seed ", seed), graph.ErdosRenyi(100, 0.06, seed), Config{Gamma: 4}},
			workload{fmt.Sprint("quarters seed ", seed), quarterMultigraph(90, seed), Config{Gamma: 3}},
		)
	}
	var seen weakOracle
	for _, w := range loads {
		want, ref := countWeak(w.g, w.cfg)
		seen.leaderMoves += want.leaderMoves
		seen.dropOuts += want.dropOuts
		seen.detached += want.detached
		seen.rejectedTrees += want.rejectedTrees
		for _, e := range surfaces(nil) {
			got, met := RunWeakDistributed(w.g, w.cfg, e.eng)
			id := w.name + " on " + e.name
			assertSameResult(t, id, ref, got)
			if met.Messages != want.messages {
				t.Errorf("%s: %d messages, the centralized run's moves give %d", id, met.Messages, want.messages)
			}
			if met.Rounds != want.rounds || !met.Halted {
				t.Errorf("%s: ran %d rounds (halted %v), the trees give %d", id, met.Rounds, met.Halted, want.rounds)
			}
		}
	}
	if seen.leaderMoves == 0 || seen.dropOuts == 0 || seen.detached == 0 || seen.rejectedTrees == 0 {
		t.Fatalf("the workloads exercise %+v: every term of the count must occur", seen)
	}
}

// TestWeakHooksRunOnBenchmarkGraph reads the protocol's cost off the
// benchmark's densest-seq graph, where CI pins it as well: the message count
// is the oracle's, and a step span's count — hooks run — is the same on every
// surface and under half the node-rounds (24 687 of 28 000 ran while phases
// 2–4 stepped every round).
func TestWeakHooksRunOnBenchmarkGraph(t *testing.T) {
	g, cfg := graph.BarabasiAlbert(500, 4, 1), Config{Gamma: 3}
	want, _ := countWeak(g, cfg)
	if want.messages != 35814 || want.rounds != 55 {
		t.Fatalf("oracle gives %d messages in %d rounds: the workload no longer is the one CI pins at 35814 in 55", want.messages, want.rounds)
	}
	tr := obs.NewTracer()
	var seq int64
	for _, e := range surfaces(tr) {
		tr.Reset()
		_, met := RunWeakDistributed(g, cfg, e.eng)
		hooks := int64(0)
		for _, sp := range tr.Trace().Spans {
			if sp.Phase == obs.PhaseStep {
				hooks += sp.Count
			}
		}
		if e.name == "seq" {
			seq = hooks
		}
		if hooks != seq || hooks > 14000 {
			t.Errorf("%s: %d hooks run, seq ran %d; want the same and at most 14000 of %d", e.name, hooks, seq, (want.rounds+1)*g.N())
		}
		if met.Messages != want.messages || met.Rounds != want.rounds || !met.Halted {
			t.Errorf("%s: metrics %+v, want %d messages in %d rounds", e.name, met, want.messages, want.rounds)
		}
	}
}

// hookLog wraps a node's program and records, per Round call, the round and
// the inbox it was handed. With awake set it also withdraws whatever sleep
// request the program made, so the runtime hands it every round — the program
// as it ran before it could sleep.
type hookLog struct {
	dist.Program
	awake bool
	calls *[]hookCall
}

type hookCall struct {
	round int
	inbox []dist.Message
}

func (h hookLog) Round(c *dist.Ctx, inbox []dist.Message) {
	*h.calls = append(*h.calls, hookCall{c.Round(), append([]dist.Message(nil), inbox...)})
	h.Program.Round(c, inbox)
	if h.awake {
		c.SleepUntil(0)
	}
}

// TestWeakSleepingChangesNoExecution is the program's half of the sleep
// contract (DESIGN.md §3), as core's test of that name is for the elimination
// program: a hook the runtime skipped would have done nothing. The same
// programs, kept awake, produce the same Result and Metrics; every hook both
// runs make sees the same inbox; and every hook only the wakeful run makes
// has an empty one — with the runtime poisoning every inbox after its hook,
// too, since the phase 3/4 hook works through a pointer into it.
func TestWeakSleepingChangesNoExecution(t *testing.T) {
	defer func() { dist.CheckInboxRetention = false }()
	loads := workloads()
	loads["quarters"] = quarterMultigraph(60, 5)
	loads["cycle T=4"] = graph.Cycle(40)
	for name, g := range loads {
		cfg := Config{Gamma: 3}
		if name == "cycle T=4" {
			cfg.Rounds = 4 // detached nodes sleep to the termination bound
		}
		for _, eng := range []dist.Engine{dist.SeqEngine{}, dist.ParEngine{W: 3}} {
			for _, poison := range []bool{false, true} {
				dist.CheckInboxRetention = poison
				run := func(awake bool) (*Result, dist.Metrics, [][]hookCall) {
					wr := newWeakRun(g, cfg)
					calls := make([][]hookCall, g.N())
					met := eng.Run(g, func(v graph.NodeID) dist.Program {
						return hookLog{wr.program(v), awake, &calls[v]}
					}, 6*wr.T+10)
					return assembleResult(g, wr), met, calls
				}
				slept, sleptMet, sleptCalls := run(false)
				woke, wokeMet, wokeCalls := run(true)
				if sleptMet != wokeMet || !reflect.DeepEqual(slept, woke) {
					t.Fatalf("%s: sleeping changed the result: metrics %+v, kept awake %+v", name, sleptMet, wokeMet)
				}
				skipped := 0
				for v := range wokeCalls {
					k := 0
					for _, c := range wokeCalls[v] {
						if k < len(sleptCalls[v]) && sleptCalls[v][k].round == c.round {
							if !reflect.DeepEqual(sleptCalls[v][k].inbox, c.inbox) {
								t.Fatalf("%s: node %d round %d: inbox %v, kept awake %v", name, v, c.round, sleptCalls[v][k].inbox, c.inbox)
							}
							k++
						} else if skipped++; len(c.inbox) != 0 {
							t.Fatalf("%s: node %d slept through round %d, which had mail %v", name, v, c.round, c.inbox)
						}
					}
					if k != len(sleptCalls[v]) {
						t.Fatalf("%s: node %d ran hooks the wakeful run did not: %d of %d matched", name, v, k, len(sleptCalls[v]))
					}
				}
				if skipped == 0 {
					t.Fatalf("%s: nobody slept", name)
				}
			}
		}
	}
}
