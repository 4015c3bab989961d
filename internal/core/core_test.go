package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

func almostEq(a, b float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// --- Update / Algorithm 3 ---

func TestUpdaterSingleNeighbor(t *testing.T) {
	arcs := []graph.Arc{{To: 1, W: 3, EdgeID: 0}}
	u := NewUpdater(arcs)
	// neighbor holds +∞ → b = min(∞, 3) = 3, pivot joins N
	b, aux := u.Step(func(int) float64 { return math.Inf(1) })
	if b != 3 {
		t.Fatalf("b = %v, want 3", b)
	}
	if len(aux) != 1 || aux[0] != 0 {
		t.Fatalf("aux = %v, want [0]", aux)
	}
	// neighbor value 1 < weight sum: b = max x with Σ_{b_i≥x} w_i ≥ x.
	// With one neighbor (b=1,w=3): x ≤ 1 gives mass 3 ≥ x, so b = 1.
	b, aux = u.Step(func(int) float64 { return 1 })
	if b != 1 {
		t.Fatalf("b = %v, want 1", b)
	}
	if len(aux) != 0 {
		t.Fatalf("aux = %v, want empty (s=3 > b_i=1)", aux)
	}
}

func TestUpdaterDegreeOnFirstRound(t *testing.T) {
	// With all neighbors at +∞ the update must return the weighted degree.
	arcs := []graph.Arc{
		{To: 1, W: 2}, {To: 2, W: 0.5}, {To: 3, W: 1.5},
	}
	u := NewUpdater(arcs)
	b, aux := u.Step(func(int) float64 { return math.Inf(1) })
	if !almostEq(b, 4) {
		t.Fatalf("b = %v, want 4 (weighted degree)", b)
	}
	if len(aux) != 3 {
		t.Fatalf("aux = %v, want all three arcs", aux)
	}
}

func TestUpdaterIsolated(t *testing.T) {
	u := NewUpdater(nil)
	b, aux := u.Step(func(int) float64 { panic("no arcs to query") })
	if b != 0 || aux != nil {
		t.Fatalf("isolated node: got (%v,%v), want (0,nil)", b, aux)
	}
}

func TestUpdaterMatchesDefinition(t *testing.T) {
	// b must equal max{x : Σ_{i: b_i ≥ x} w_i ≥ x}; brute-force the
	// candidates (every b_i and every suffix sum).
	cases := [][][2]float64{ // list of (b_i, w_i)
		{{5, 1}, {4, 2}, {3, 3}},
		{{1, 10}},
		{{2, 2}, {2, 2}, {2, 2}},
		{{7, 1}, {7, 1}, {1, 1}, {0.5, 4}},
		{{0, 1}, {0, 2}},
		{{3.5, 0.1}, {10, 0.2}, {2, 5}},
	}
	for ci, c := range cases {
		arcs := make([]graph.Arc, len(c))
		vals := make([]float64, len(c))
		for i, p := range c {
			arcs[i] = graph.Arc{To: i + 1, W: p[1]}
			vals[i] = p[0]
		}
		u := NewUpdater(arcs)
		got, _ := u.Step(func(i int) float64 { return vals[i] })

		massAtLeast := func(x float64) float64 {
			s := 0.0
			for i := range vals {
				if vals[i] >= x {
					s += arcs[i].W
				}
			}
			return s
		}
		// candidates: each b_i and each suffix mass
		var cands []float64
		for i := range vals {
			cands = append(cands, vals[i], massAtLeast(vals[i]))
		}
		cands = append(cands, 0)
		want := 0.0
		for _, x := range cands {
			if x >= 0 && massAtLeast(x) >= x && x > want {
				want = x
			}
		}
		if !almostEq(got, want) {
			t.Errorf("case %d: Update = %v, want %v", ci, got, want)
		}
		// verify feasibility and maximality numerically
		if massAtLeast(got) < got-1e-9 {
			t.Errorf("case %d: returned b=%v infeasible", ci, got)
		}
		if massAtLeast(got+1e-6) >= got+1e-6 {
			t.Errorf("case %d: b=%v not maximal", ci, got)
		}
	}
}

func TestUpdateValueAgreesWithUpdater(t *testing.T) {
	check := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 24 {
			return true
		}
		d := len(raw) / 2
		if d == 0 {
			return true
		}
		arcs := make([]graph.Arc, d)
		vals := make([]float64, d)
		ws := make([]float64, d)
		for i := 0; i < d; i++ {
			vals[i] = float64(raw[i] % 16)
			ws[i] = float64(raw[d+i]%8) + 1
			arcs[i] = graph.Arc{To: i + 1, W: ws[i]}
		}
		u := NewUpdater(arcs)
		b1, _ := u.Step(func(i int) float64 { return vals[i] })
		b2 := UpdateValue(vals, ws, make([]int, 0, d))
		return almostEq(b1, b2)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- surviving numbers (Algorithm 2) vs. definition and coreness ---

func testGraphs(seed int64) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":    graph.Path(30),
		"cycle":   graph.Cycle(24),
		"clique":  graph.Clique(12),
		"star":    graph.Star(20),
		"grid":    graph.Grid(5, 6),
		"er":      graph.ErdosRenyi(60, 0.1, seed),
		"ba":      graph.BarabasiAlbert(60, 3, seed),
		"caveman": graph.Caveman(4, 6),
	}
}

// LoopyMultigraph is a BA graph with weights in quarters (sums are exact in
// any order, so the centralized simulator's heap-ordered sums agree with the
// distributed program's to the bit), a parallel copy of every fourth edge and
// a self-loop on every third node — the arcs whose value is the node's own,
// which is what a skipped step has to account for. Exported for the
// external test package.
func LoopyMultigraph(n int, seed int64) *graph.Graph {
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

func exactCorenessRef(g *graph.Graph) []float64 {
	// Peeling-based reference (independent of the Run convergence path):
	// repeatedly remove the min-degree node.
	n := g.N()
	removed := make([]bool, n)
	deg := make([]float64, n)
	for v := 0; v < n; v++ {
		deg[v] = g.WeightedDegree(v)
	}
	core := make([]float64, n)
	running := 0.0
	for k := 0; k < n; k++ {
		minV, minD := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !removed[v] && deg[v] < minD {
				minV, minD = v, deg[v]
			}
		}
		removed[minV] = true
		if minD > running {
			running = minD
		}
		core[minV] = running
		for _, a := range g.Adj(minV) {
			if a.To != minV && !removed[a.To] {
				deg[a.To] -= a.W
			}
		}
	}
	return core
}

func TestSurvivingNumberLowerBoundedByCoreness(t *testing.T) {
	for name, g := range testGraphs(1) {
		c := exactCorenessRef(g)
		for _, T := range []int{1, 2, 3, 5, 8} {
			res := Run(g, Options{Rounds: T})
			for v := 0; v < g.N(); v++ {
				if res.B[v] < c[v]-1e-9 {
					t.Fatalf("%s T=%d: β(%d)=%v < c=%v (Lemma III.2 violated)",
						name, T, v, res.B[v], c[v])
				}
			}
		}
	}
}

func TestSurvivingNumberUpperBound(t *testing.T) {
	// Theorem III.5: β_T(v) ≤ 2 n^{1/T} c(v) (weaker than the r(v) bound,
	// checked against r in the exact package's tests).
	for name, g := range testGraphs(2) {
		c := exactCorenessRef(g)
		for _, T := range []int{2, 4, 8} {
			res := Run(g, Options{Rounds: T})
			bound := GuaranteeAtT(g.N(), T)
			for v := 0; v < g.N(); v++ {
				if c[v] == 0 {
					if res.B[v] != 0 {
						t.Fatalf("%s: isolated-ish node %d has β=%v, want 0", name, v, res.B[v])
					}
					continue
				}
				if res.B[v] > bound*c[v]+1e-9 {
					t.Fatalf("%s T=%d: β(%d)=%v > %v·c=%v", name, T, v, res.B[v], bound, bound*c[v])
				}
			}
		}
	}
}

func TestSurvivingNumbersMonotoneInRounds(t *testing.T) {
	g := graph.BarabasiAlbert(80, 3, 7)
	res := Run(g, Options{Rounds: 10, RecordHistory: true})
	for ti := 1; ti < len(res.History); ti++ {
		for v := 0; v < g.N(); v++ {
			if res.History[ti][v] > res.History[ti-1][v]+1e-12 {
				t.Fatalf("β_%d(%d)=%v > β_%d(%d)=%v: surviving numbers must be non-increasing",
					ti+1, v, res.History[ti][v], ti, v, res.History[ti-1][v])
			}
		}
	}
}

func TestConvergenceEqualsExactCoreness(t *testing.T) {
	for name, g := range testGraphs(3) {
		want := exactCorenessRef(g)
		got, rounds := ExactCoreness(g)
		for v := 0; v < g.N(); v++ {
			if !almostEq(got[v], want[v]) {
				t.Fatalf("%s: converged β(%d)=%v, want coreness %v", name, v, got[v], want[v])
			}
		}
		if rounds > g.N() {
			t.Fatalf("%s: convergence took %d rounds > n=%d", name, rounds, g.N())
		}
	}
}

func TestAgainstDefinitionOracle(t *testing.T) {
	// β_T(v) from the compact procedure must match Definition III.1
	// evaluated by binary search over single-threshold eliminations.
	g := graph.ErdosRenyi(24, 0.2, 11)
	for _, T := range []int{1, 2, 4} {
		res := Run(g, Options{Rounds: T})
		for v := 0; v < g.N(); v++ {
			oracle := SurvivingNumberAt(g, v, T)
			if math.Abs(res.B[v]-oracle) > 1e-6*(1+oracle) {
				t.Fatalf("T=%d node %d: compact β=%v, definition oracle=%v", T, v, res.B[v], oracle)
			}
		}
	}
}

func TestSingleThresholdBasics(t *testing.T) {
	g := graph.Clique(6) // coreness 5 everywhere
	alive := SingleThreshold(g, 5, 10)
	for v, a := range alive {
		if !a {
			t.Fatalf("node %d of K6 must survive threshold 5", v)
		}
	}
	alive = SingleThreshold(g, 5.5, 10)
	for v, a := range alive {
		if a {
			t.Fatalf("node %d of K6 must die at threshold 5.5", v)
		}
	}
	// A path dies from the endpoints inward at threshold 2: after t rounds
	// exactly the middle n-2t nodes remain.
	p := graph.Path(10)
	alive = SingleThreshold(p, 2, 3)
	for v := 0; v < 10; v++ {
		want := v >= 3 && v <= 6
		if alive[v] != want {
			t.Fatalf("path threshold 2 after 3 rounds: alive[%d]=%v, want %v", v, alive[v], want)
		}
	}
}

// --- quantization ---

func TestQuantizedRunRespectsCorollaryIII10(t *testing.T) {
	g := graph.BarabasiAlbert(100, 4, 5)
	c := exactCorenessRef(g)
	lambda := 0.1
	eps := 0.5
	T := TForEpsilon(g.N(), eps)
	res := Run(g, Options{Rounds: T, Lambda: quantize.NewPowerGrid(lambda)})
	for v := 0; v < g.N(); v++ {
		lo := c[v] / (1 + lambda)
		hi := 2 * (1 + eps) * (1 + lambda) * c[v] // conservative: c ≤ 2r ⇒ r-based bound doubles
		if res.B[v] < lo-1e-9 {
			t.Fatalf("node %d: quantized β=%v < c/(1+λ)=%v", v, res.B[v], lo)
		}
		if c[v] > 0 && res.B[v] > hi+1e-9 {
			t.Fatalf("node %d: quantized β=%v > bound %v (c=%v)", v, res.B[v], hi, c[v])
		}
	}
}

// --- distributed execution matches centralized reference ---

func TestDistributedMatchesCentralizedSeq(t *testing.T) {
	for name, g := range testGraphs(4) {
		for _, T := range []int{1, 3, 6} {
			want := Run(g, Options{Rounds: T, TrackAux: true})
			got, met := RunDistributed(g, Options{Rounds: T, TrackAux: true}, dist.SeqEngine{})
			if met.Rounds != T {
				t.Fatalf("%s: engine ran %d rounds, want %d", name, met.Rounds, T)
			}
			for v := 0; v < g.N(); v++ {
				if !almostEq(want.B[v], got.B[v]) {
					t.Fatalf("%s T=%d: dist β(%d)=%v, centralized %v", name, T, v, got.B[v], want.B[v])
				}
				if !sameIntSet(want.AuxEdges[v], got.AuxEdges[v]) {
					t.Fatalf("%s T=%d: aux sets differ at node %d: %v vs %v",
						name, T, v, got.AuxEdges[v], want.AuxEdges[v])
				}
			}
		}
	}
}

func TestParEngineMatchesSeqEngine(t *testing.T) {
	g := graph.BarabasiAlbert(120, 3, 9)
	T := 5
	a, _ := RunDistributed(g, Options{Rounds: T, TrackAux: true}, dist.SeqEngine{})
	b, _ := RunDistributed(g, Options{Rounds: T, TrackAux: true}, dist.ParEngine{})
	for v := 0; v < g.N(); v++ {
		if !almostEq(a.B[v], b.B[v]) {
			t.Fatalf("engines disagree at node %d: seq=%v par=%v", v, a.B[v], b.B[v])
		}
		if !sameIntSet(a.AuxEdges[v], b.AuxEdges[v]) {
			t.Fatalf("aux sets differ at node %d", v)
		}
	}
}

func sameIntSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int]int)
	for _, x := range a {
		m[x]++
	}
	for _, x := range b {
		m[x]--
		if m[x] < 0 {
			return false
		}
	}
	return true
}

// --- orientation invariants (Definition III.7, Lemma III.11) ---

func TestInvariantsHoldEveryRound(t *testing.T) {
	for name, g := range testGraphs(6) {
		for T := 1; T <= 6; T++ {
			res := Run(g, Options{Rounds: T, TrackAux: true})
			if ok, detail := CheckInvariants(g, res.B, res.AuxEdges); !ok {
				t.Fatalf("%s after %d rounds: %s", name, T, detail)
			}
		}
	}
}

func TestInvariantsHoldOnWeightedGraphs(t *testing.T) {
	base := graph.ErdosRenyi(50, 0.15, 21)
	for _, wm := range []graph.WeightModel{
		graph.UniformWeights{Lo: 1, Hi: 9},
		graph.TwoValued{K: 5, P: 0.3},
		graph.ZipfWeights{S: 1.5, Cap: 64},
	} {
		g := graph.Apply(base, wm, 33)
		for T := 1; T <= 8; T++ {
			res := Run(g, Options{Rounds: T, TrackAux: true})
			if ok, detail := CheckInvariants(g, res.B, res.AuxEdges); !ok {
				t.Fatalf("%s weights, %d rounds: %s", wm.Name(), T, detail)
			}
		}
	}
}

// --- helpers and parameters ---

func TestTForGammaAndEpsilon(t *testing.T) {
	if T := TForEpsilon(1000, 1.0); T != TForGamma(1000, 4) {
		t.Fatalf("TForEpsilon(ε=1) should equal TForGamma(γ=4)")
	}
	// Theorem I.1: T = ⌈log_{1+ε} n⌉
	if got, want := TForEpsilon(1024, 1.0), 10; got != want {
		t.Fatalf("TForEpsilon(1024, 1) = %d, want %d", got, want)
	}
	if g := GuaranteeAtT(1024, 10); !almostEq(g, 4) {
		t.Fatalf("GuaranteeAtT(1024,10) = %v, want 4", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TForGamma must panic for gamma <= 2")
		}
	}()
	TForGamma(10, 2)
}

func TestGuaranteeMonotone(t *testing.T) {
	prev := math.Inf(1)
	for T := 1; T <= 20; T++ {
		g := GuaranteeAtT(1<<14, T)
		if g > prev+1e-12 {
			t.Fatalf("guarantee must shrink with T: T=%d gives %v after %v", T, g, prev)
		}
		prev = g
	}
	if prev < 2 {
		t.Fatalf("guarantee can never go below 2, got %v", prev)
	}
}

func TestQuickSurvivingNumberProperties(t *testing.T) {
	// Property-based: on random small graphs, for random T,
	// c(v) ≤ β_T(v) ≤ 2n^{1/T}·c(v) and β is monotone in T.
	type seedT struct {
		Seed int64
		T    uint8
	}
	check := func(s seedT) bool {
		T := int(s.T%6) + 1
		g := graph.ErdosRenyi(20, 0.25, s.Seed)
		c := exactCorenessRef(g)
		r1 := Run(g, Options{Rounds: T})
		r2 := Run(g, Options{Rounds: T + 1})
		bound := GuaranteeAtT(g.N(), T)
		for v := 0; v < g.N(); v++ {
			if r1.B[v] < c[v]-1e-9 {
				return false
			}
			if c[v] > 0 && r1.B[v] > bound*c[v]+1e-9 {
				return false
			}
			if r2.B[v] > r1.B[v]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
