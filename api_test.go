package distkcore_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"distkcore"
	"distkcore/internal/densest"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
)

// These tests exercise the public API surface end to end, the way the
// examples and a downstream user would.

func buildTriPendant() *distkcore.Graph {
	b := distkcore.NewBuilder(5)
	b.AddEdge(0, 1, 1).AddEdge(1, 2, 1).AddEdge(0, 2, 1) // triangle
	b.AddEdge(2, 3, 1).AddEdge(3, 4, 1)                  // pendant path
	return b.Build()
}

func TestApproxCorenessAPI(t *testing.T) {
	g := buildTriPendant()
	res := distkcore.ApproxCoreness(g, 0.5)
	exact := distkcore.ExactCoreness(g)
	if res.T < 1 || res.Guarantee < 2 {
		t.Fatalf("bad metadata %+v", res)
	}
	for v := 0; v < g.N(); v++ {
		if res.B[v] < exact[v]-1e-9 {
			t.Fatalf("β(%d)=%v < c=%v", v, res.B[v], exact[v])
		}
		if res.B[v] > res.Guarantee*exact[v]+1e-9 {
			t.Fatalf("β(%d)=%v above guarantee", v, res.B[v])
		}
	}
	// triangle nodes have coreness 2, path nodes 1
	if exact[0] != 2 || exact[4] != 1 {
		t.Fatalf("exact coreness wrong: %v", exact)
	}
}

func TestApproxOrientationAPI(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 11)
	res := distkcore.ApproxOrientation(g, 0.5)
	if !res.O.Feasible(g) {
		t.Fatal("infeasible orientation")
	}
	_, opt := distkcore.ExactMinMaxOrientation(g)
	if res.MaxLoad < float64(opt)-1e-9 {
		t.Fatal("distributed beat the optimum — impossible")
	}
	if res.MaxLoad > 3*float64(opt)+1e-9 {
		t.Fatalf("load %v way above 2(1+ε)·OPT=%v", res.MaxLoad, 3*float64(opt))
	}
	// per-node certificate
	loads := res.O.Loads(g)
	for v, l := range loads {
		if l > res.B[v]+1e-9 {
			t.Fatalf("load(%d)=%v > β=%v", v, l, res.B[v])
		}
	}
}

func TestWeakDensestAPI(t *testing.T) {
	g := graph.PlantedPartition(3, 15, 0.5, 0.01, 13)
	res := distkcore.WeakDensest(g, 0.5)
	_, rho := distkcore.DensestSubset(g)
	best := res.Best()
	if best == nil {
		t.Fatal("no subset")
	}
	if best.Density < rho/3-1e-9 {
		t.Fatalf("best %v < ρ*/3 = %v", best.Density, rho/3)
	}
}

func TestDensestSubsetAPI(t *testing.T) {
	g := buildTriPendant()
	member, rho := distkcore.DensestSubset(g)
	if math.Abs(rho-1) > 1e-9 {
		t.Fatalf("ρ*=%v, want 1 (the triangle)", rho)
	}
	for v := 0; v < 3; v++ {
		if !member[v] {
			t.Fatalf("triangle node %d missing from densest subset", v)
		}
	}
}

func TestRunDistributedAPI(t *testing.T) {
	g := graph.ErdosRenyi(200, 0.05, 17)
	seq, m1 := distkcore.RunDistributedOn(g, 6, distkcore.SequentialEngine())
	par, m2 := distkcore.RunDistributedOn(g, 6, distkcore.ParallelEngine())
	for v := 0; v < g.N(); v++ {
		if seq.B[v] != par.B[v] {
			t.Fatalf("engines disagree at %d", v)
		}
	}
	if m1.Messages != m2.Messages {
		t.Fatalf("message counts differ: %d vs %d", m1.Messages, m2.Messages)
	}
	if m1.Rounds != 6 {
		t.Fatalf("rounds=%d", m1.Rounds)
	}
}

// The asynchronous elimination reaches the exact coreness, says when a budget
// was enough, and reports its makespan in rounds.
func TestAsyncCorenessAPI(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 19)
	d := distkcore.DelayModel{Base: 1, Jitter: 3, Seed: 5}
	res, met := distkcore.AsyncCoreness(g, d, 500)
	if !res.Quiesced || res.Makespan < 1 || res.Makespan >= 500 || met.Messages == 0 {
		t.Fatalf("implausible run: quiesced=%v makespan=%d %+v", res.Quiesced, res.Makespan, met)
	}
	for v, c := range distkcore.ExactCoreness(g) {
		if res.B[v] != c {
			t.Fatalf("b(%d) = %v, coreness %v", v, res.B[v], c)
		}
	}
	if cut, _ := distkcore.AsyncCoreness(g, d, 2); cut.Quiesced {
		t.Fatal("a 2-round budget cannot quiesce")
	}
}

func TestShardedEngineAPI(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 23)
	T := distkcore.RoundsFor(g.N(), 0.5)
	ref, refMet := distkcore.RunDistributedOn(g, T, distkcore.SequentialEngine())
	for _, part := range []distkcore.Partitioner{
		distkcore.HashPartitioner(), distkcore.RangePartitioner(), distkcore.GreedyPartitioner(),
	} {
		eng := distkcore.ShardedEngine(4, part)
		res, met := distkcore.RunDistributedOn(g, T, eng)
		if met != refMet {
			t.Fatalf("%s: metrics %+v, want %+v", part.Name(), met, refMet)
		}
		for v := range ref.B {
			if res.B[v] != ref.B[v] {
				t.Fatalf("%s: β(%d) diverges from sequential", part.Name(), v)
			}
		}
		sm := eng.ShardMetrics()
		if sm.P != 4 || sm.CrossMessages == 0 || sm.CrossFrameBytes == 0 {
			t.Fatalf("%s: implausible shard metrics %+v", part.Name(), sm)
		}
	}
	// Quantized Congest mode rides through the frame codec unchanged.
	qEng := distkcore.ShardedEngine(8, distkcore.GreedyPartitioner())
	qRef, qm1 := distkcore.RunDistributedQuantized(g, T, distkcore.PowerGrid(0.1), distkcore.SequentialEngine())
	qRes, qm2 := distkcore.RunDistributedQuantized(g, T, distkcore.PowerGrid(0.1), qEng)
	if qm1 != qm2 {
		t.Fatalf("quantized metrics differ: %+v vs %+v", qm1, qm2)
	}
	for v := range qRef.B {
		if qRes.B[v] != qRef.B[v] {
			t.Fatalf("quantized β(%d) diverges from sequential", v)
		}
	}
}

func TestNetworkEngineAPI(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 23)
	T := distkcore.RoundsFor(g.N(), 0.5)
	ref, refMet := distkcore.RunDistributedOn(g, T, distkcore.SequentialEngine())
	eng := distkcore.NetworkEngine(4, distkcore.GreedyPartitioner())
	res, met := distkcore.RunDistributedOn(g, T, eng)
	if met != refMet {
		t.Fatalf("metrics %+v, want %+v", met, refMet)
	}
	for v := range ref.B {
		if res.B[v] != ref.B[v] {
			t.Fatalf("β(%d) diverges from sequential", v)
		}
	}
	cm := eng.ClusterMetrics()
	if cm.P != 4 || cm.CrossMessages == 0 || cm.CrossFrameBytes == 0 {
		t.Fatalf("implausible cluster metrics %+v", cm)
	}
}

func TestRoundsForAndPowerGrid(t *testing.T) {
	if distkcore.RoundsFor(1024, 1.0) != 10 {
		t.Fatal("RoundsFor wrong")
	}
	lam := distkcore.PowerGrid(0.5)
	if lam.RoundDown(100) > 100 {
		t.Fatal("PowerGrid rounds up")
	}
	if lam.Exact() {
		t.Fatal("PowerGrid must not be exact")
	}
}

// Theorem I.1's sandwich c(v) ≤ β_T(v) ≤ 2(1+ε)·c(v), asserted against the
// exact cores on what each surface itself computed: the four engines' runs
// and a session's values two pushed epochs in (against the exact cores of the
// mutated graph). Byte-identity to seq says every row must pass; this is the
// test that would notice byte-identity pinned to a wrong seq.
func TestSandwichOnEverySurface(t *testing.T) {
	const eps = 0.5
	sandwich := func(t *testing.T, g *distkcore.Graph, b []float64) {
		t.Helper()
		for v, c := range distkcore.ExactCoreness(g) {
			if b[v] < c-1e-9 || b[v] > 2*(1+eps)*c+1e-9 {
				t.Fatalf("β(%d) = %v outside [c, 2(1+ε)c] for c = %v", v, b[v], c)
			}
		}
	}
	stream := distkcore.NetworkEngine(4, distkcore.GreedyPartitioner())
	stream.Stream = true
	engines := map[string]distkcore.Engine{
		"seq":          distkcore.SequentialEngine(),
		"par:3":        dist.ParEngine{W: 3},
		"shard:4":      distkcore.ShardedEngine(4, distkcore.GreedyPartitioner()),
		"net:4 stream": stream,
	}
	for name, g := range map[string]*distkcore.Graph{
		"ba": graph.BarabasiAlbert(200, 3, 41),
		"er": graph.ErdosRenyi(150, 0.06, 42),
		"ws": graph.WattsStrogatz(150, 6, 0.2, 43),
		// The paper's Figure I.1(b) family, where β_T sits strictly above c.
		"figI1b": graph.FigureI1B(48).G,
	} {
		T := distkcore.RoundsFor(g.N(), eps)
		for ename, eng := range engines {
			t.Run(name+"/"+ename, func(t *testing.T) {
				res, _ := distkcore.RunDistributedOn(g, T, eng)
				sandwich(t, g, res.B)
			})
		}
		t.Run(name+"/session", func(t *testing.T) {
			s, err := distkcore.OpenSession(g, distkcore.SessionOptions{P: 4, Rounds: T, Part: distkcore.GreedyPartitioner()})
			if err != nil {
				t.Fatalf("OpenSession: %v", err)
			}
			defer s.Close()
			cur := g
			for e := 1; e <= 2; e++ {
				d := distkcore.RandomChurn(cur, 40, int64(e))
				if _, err := s.Push(d, 0); err != nil {
					t.Fatalf("epoch %d push: %v", e, err)
				}
				if cur, err = d.Apply(cur); err != nil {
					t.Fatal(err)
				}
			}
			sandwich(t, cur, s.Values())
		})
	}
}

// Theorem I.3 on what each surface itself computed: the distributed
// protocol's collection is the centralized reference's, subset for subset in
// the same order, and its best subset is within γ = 2(1+ε) of the exact
// maximum density. As with the sandwich above, byte-identity to seq says every
// row must pass, and this is the test that would notice a wrong seq.
func TestWeakDensestOnEverySurface(t *testing.T) {
	const eps = 0.5
	stream := distkcore.NetworkEngine(4, distkcore.GreedyPartitioner())
	stream.Stream = true
	engines := map[string]distkcore.Engine{
		"seq":                      distkcore.SequentialEngine(),
		"par:3":                    dist.ParEngine{W: 3},
		"shard:4":                  distkcore.ShardedEngine(4, distkcore.GreedyPartitioner()),
		"net:4:greedy:pipe":        distkcore.NetworkEngine(4, distkcore.GreedyPartitioner()),
		"net:4:greedy:pipe:stream": stream,
	}
	graphs := map[string]*distkcore.Graph{"caveman": graph.Caveman(6, 7)}
	for seed := int64(1); seed <= 3; seed++ {
		graphs[fmt.Sprint("ba/", seed)] = graph.BarabasiAlbert(160, 3, seed)
		graphs[fmt.Sprint("er/", seed)] = graph.ErdosRenyi(120, 0.06, seed)
		graphs[fmt.Sprint("ws/", seed)] = graph.WattsStrogatz(140, 6, 0.15, seed)
		graphs[fmt.Sprint("planted/", seed)] = graph.PlantedPartition(4, 20, 0.5, 0.02, seed)
	}
	for name, g := range graphs {
		want := distkcore.WeakDensest(g, eps)
		_, rho := distkcore.DensestSubset(g)
		for ename, eng := range engines {
			t.Run(name+"/"+ename, func(t *testing.T) {
				got, met := distkcore.WeakDensestDistributed(g, eps, eng)
				if !met.Halted {
					t.Fatalf("cut off after %d rounds", met.Rounds)
				}
				if len(got.Subsets) != len(want.Subsets) {
					t.Fatalf("%d subsets, WeakDensest returns %d", len(got.Subsets), len(want.Subsets))
				}
				for i := range want.Subsets {
					if !reflect.DeepEqual(got.Subsets[i], want.Subsets[i]) {
						t.Fatalf("Subsets[%d] = %+v, WeakDensest returns %+v", i, got.Subsets[i], want.Subsets[i])
					}
				}
				if !densest.GuaranteeHolds(got, 2*(1+eps), rho) {
					t.Fatalf("best subset %+v misses ρ*/γ = %v/%v", got.Best(), rho, 2*(1+eps))
				}
			})
		}
	}
}

func TestChurnAPI(t *testing.T) {
	g := graph.BarabasiAlbert(250, 3, 29)
	T := distkcore.RoundsFor(g.N(), 0.5)
	delta := distkcore.RandomChurn(g, 80, 31)
	g2, err := delta.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := distkcore.RunDistributedOn(g2, T, distkcore.SequentialEngine())
	s, err := distkcore.OpenSession(g, distkcore.SessionOptions{P: 4, Rounds: T, Part: distkcore.GreedyPartitioner()})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	defer s.Close()
	rep, err := s.Push(delta, 0)
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	for v, b := range s.Values() {
		if b != ref.B[v] {
			t.Fatalf("pushed β(%d) diverges from a fresh run on the mutated graph", v)
		}
	}
	var cm distkcore.ChurnMetrics = rep.Churn
	if cm.FrontierSize == 0 || cm.DeltaBytes == 0 || cm.EdgeCutAfter > cm.EdgeCutBefore {
		t.Fatalf("implausible churn metrics %+v", cm)
	}
}

func TestSessionAPI(t *testing.T) {
	g := graph.BarabasiAlbert(250, 3, 29)
	T := distkcore.RoundsFor(g.N(), 0.5)
	s, err := distkcore.OpenSession(g, distkcore.SessionOptions{P: 4, Rounds: T})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	defer s.Close()

	sub := s.Subscribe(distkcore.TopKTopic(10), distkcore.ThresholdTopic(3))
	cur := g
	chain := s.ChainDigest()
	for e := 1; e <= 2; e++ {
		d := distkcore.RandomChurn(cur, 50, int64(e))
		rep, err := s.Push(d, 0)
		if err != nil {
			t.Fatalf("epoch %d push: %v", e, err)
		}
		if cur, err = d.Apply(cur); err != nil {
			t.Fatal(err)
		}
		ref, _ := distkcore.RunDistributedOn(cur, T, distkcore.SequentialEngine())
		got := s.Values()
		for v := range ref.B {
			if got[v] != ref.B[v] {
				t.Fatalf("epoch %d: session β(%d) diverges from a fresh run", e, v)
			}
		}
		if rep.Epoch != e || rep.ChainDigest == chain {
			t.Fatalf("epoch %d: report %+v (chain unchanged?)", e, rep)
		}
		chain = rep.ChainDigest
		for _, nf := range rep.Notifications {
			if nf.Sub != sub || nf.Epoch != e {
				t.Fatalf("epoch %d: stray notification %+v", e, nf)
			}
		}
	}
	if led, ok := s.Ledger(sub); !ok || led.Topics != 2 {
		t.Fatalf("ledger %+v", led)
	}
}

// TestTracingAPI exercises the observability facade: a traced run yields
// identical values, a populated phase breakdown, and a break diagnosis
// type that unwraps from session errors.
func TestTracingAPI(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 2)
	T := distkcore.RoundsFor(g.N(), 0.5)

	plain, pm := distkcore.RunDistributedOn(g, T, distkcore.ShardedEngine(3, distkcore.GreedyPartitioner()))
	tr := distkcore.NewTracer()
	eng := distkcore.TracedEngine(distkcore.ShardedEngine(3, distkcore.GreedyPartitioner()), tr)
	traced, tm := distkcore.RunDistributedOn(g, T, eng)
	if pm != tm {
		t.Fatalf("tracing changed metrics: %+v vs %+v", pm, tm)
	}
	for v := range plain.B {
		if math.Float64bits(plain.B[v]) != math.Float64bits(traced.B[v]) {
			t.Fatalf("tracing changed node %d: %v vs %v", v, plain.B[v], traced.B[v])
		}
	}
	rt := tr.Trace()
	if len(rt.Spans) == 0 {
		t.Fatal("traced run collected no spans")
	}
	tot := rt.PhaseTotals()
	seen := map[string]bool{}
	for _, pt := range tot {
		seen[pt.Phase] = true
	}
	if !seen["step"] || !seen["deliver"] {
		t.Fatalf("phase totals missing core phases: %+v", tot)
	}
	if rt.Transcript() == "" {
		t.Fatal("empty transcript")
	}
	// TracedEngine with a nil tracer is the identity.
	if distkcore.TracedEngine(distkcore.SequentialEngine(), nil) == nil {
		t.Fatal("nil tracer dropped the engine")
	}

	// Session tracing rides SessionOptions.Trace; the session's tracer also
	// sees the per-epoch phases.
	str := distkcore.NewTracer()
	s, err := distkcore.OpenSession(g, distkcore.SessionOptions{
		P: 2, Rounds: T, Part: distkcore.GreedyPartitioner(), Trace: str,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Push(distkcore.RandomChurn(g, 10, 1), 0); err != nil {
		t.Fatal(err)
	}
	sseen := map[string]bool{}
	for _, pt := range str.Trace().PhaseTotals() {
		sseen[pt.Phase] = true
	}
	if !sseen["epoch"] || !sseen["repair"] {
		t.Fatalf("session trace missing epoch phases: %v", sseen)
	}
	if s.Cause() != nil {
		t.Fatalf("live session reports a BreakCause: %+v", s.Cause())
	}
	if st := s.Stat(); st.Epoch != 1 || st.Pushes != 1 || st.Broken {
		t.Fatalf("session stat wrong: %+v", st)
	}
}
