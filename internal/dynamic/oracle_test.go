package dynamic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
)

// refMaintainer is the op-by-op repair this package shipped before the
// batched one, kept as a test-only reference: one T-round frontier repair
// per mutation, fresh maps per round, its own adjacency and its own
// full-sort kernel. It shares no code with Maintainer.
type refMaintainer struct {
	T    int
	adj  [][]refArc
	hist [][]float64
}

type refArc struct {
	to int
	w  float64
}

func newRef(g *graph.Graph, T int) *refMaintainer {
	r := &refMaintainer{T: T, adj: make([][]refArc, g.N()), hist: make([][]float64, T+1)}
	for v := range r.adj {
		for _, a := range g.Adj(v) {
			r.adj[v] = append(r.adj[v], refArc{a.To, a.W})
		}
	}
	for t := range r.hist {
		r.hist[t] = make([]float64, g.N())
		for v := range r.hist[t] {
			if t == 0 {
				r.hist[t][v] = math.Inf(1)
			} else {
				r.hist[t][v] = r.eval(t, v)
			}
		}
	}
	return r
}

// eval is Algorithm 3 over a full sort: max_k min(b_(k), S_k), every k
// visited. The tests' weights sum exactly, so tie order cannot move a bit.
func (r *refMaintainer) eval(t, v int) float64 {
	arcs := append([]refArc(nil), r.adj[v]...)
	prev := r.hist[t-1]
	sort.SliceStable(arcs, func(i, j int) bool { return prev[arcs[i].to] > prev[arcs[j].to] })
	best, s := 0.0, 0.0
	for _, a := range arcs {
		s += a.w
		best = math.Max(best, math.Min(prev[a.to], s))
	}
	return best
}

// mutate applies one op to the adjacency lists; false for a delete of a
// missing edge.
func (r *refMaintainer) mutate(op dist.EdgeOp) bool {
	if op.Del {
		if !r.remove(op.U, op.V) {
			return false
		}
		if op.U != op.V {
			r.remove(op.V, op.U)
		}
		return true
	}
	r.adj[op.U] = append(r.adj[op.U], refArc{op.V, op.W})
	if op.U != op.V {
		r.adj[op.V] = append(r.adj[op.V], refArc{op.U, op.W})
	}
	return true
}

func (r *refMaintainer) apply(op dist.EdgeOp) bool {
	if !r.mutate(op) {
		return false
	}
	changed := map[int]bool{}
	for t := 1; t <= r.T; t++ {
		cand := map[int]bool{op.U: true, op.V: true}
		for x := range changed {
			cand[x] = true
			for _, a := range r.adj[x] {
				cand[a.to] = true
			}
		}
		changed = map[int]bool{}
		for x := range cand {
			if nb := r.eval(t, x); nb != r.hist[t][x] {
				r.hist[t][x] = nb
				changed[x] = true
			}
		}
	}
	return true
}

// applyBatch is the batched repair as it was before the crossing test, kept
// as two test-only references: mutate for every op (the batch must be valid),
// then T rounds over the seeds — in every round — and the neighbours of last
// round's movers. Unpruned (strict = false), that is the movers themselves and
// ALL their neighbours; with strict it is the rule the crossing test replaced:
// a neighbour z is left out when old and new lie strictly on one side of the
// stored β_t(z). It returns the node-rounds it evaluated and how many of them
// moved.
func (r *refMaintainer) applyBatch(ops []dist.EdgeOp, strict bool) (reevaluated, changed int64) {
	seeds := map[int]bool{}
	for _, op := range ops {
		if !r.mutate(op) {
			panic("applyBatch: invalid batch")
		}
		seeds[op.U], seeds[op.V] = true, true
	}
	moved := map[int]float64{} // node → the value it held before
	for t := 1; t <= r.T; t++ {
		cand := map[int]bool{}
		for x := range seeds {
			cand[x] = true
		}
		for x, old := range moved {
			if !strict {
				cand[x] = true
			}
			now := r.hist[t-1][x]
			for _, a := range r.adj[x] {
				if z := r.hist[t][a.to]; strict && ((old > z && now > z) || (old < z && now < z)) {
					continue
				}
				cand[a.to] = true
			}
		}
		moved = map[int]float64{}
		for x := range cand {
			if nb := r.eval(t, x); nb != r.hist[t][x] {
				moved[x] = r.hist[t][x]
				r.hist[t][x] = nb
			}
		}
		reevaluated += int64(len(cand))
		changed += int64(len(moved))
	}
	return reevaluated, changed
}

func (r *refMaintainer) remove(from, to int) bool {
	for i, a := range r.adj[from] {
		if a.to == to {
			r.adj[from] = append(r.adj[from][:i:i], r.adj[from][i+1:]...)
			return true
		}
	}
	return false
}

// assertOracles holds m, bit for bit on every hist[t], to the op-by-op
// reference and to a fresh core.Run on g (the canonically applied graph),
// and m's adjacency — order included — to g's.
func assertOracles(t *testing.T, label string, m *Maintainer, r *refMaintainer, g *graph.Graph) {
	t.Helper()
	fresh := core.Run(g, core.Options{Rounds: m.T, RecordHistory: true})
	for tt := 1; tt <= m.T; tt++ {
		for v := 0; v < g.N(); v++ {
			got := math.Float64bits(m.History(tt)[v])
			if want := math.Float64bits(r.hist[tt][v]); got != want {
				t.Fatalf("%s: β_%d(%d) = %v, op-by-op reference %v", label, tt, v, m.History(tt)[v], r.hist[tt][v])
			}
			if want := math.Float64bits(fresh.History[tt-1][v]); got != want {
				t.Fatalf("%s: β_%d(%d) = %v, fresh core.Run %v", label, tt, v, m.History(tt)[v], fresh.History[tt-1][v])
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		want := g.Adj(v)
		if len(m.adj.adj[v]) != len(want) {
			t.Fatalf("%s: node %d has %d arcs, canonical Apply %d", label, v, len(m.adj.adj[v]), len(want))
		}
		for i, a := range want {
			if m.adj.adj[v][i] != (arc{to: a.To, w: a.W}) {
				t.Fatalf("%s: node %d arc %d is %+v, canonical Apply %+v (wrong copy deleted)", label, v, i, m.adj.adj[v][i], a)
			}
		}
	}
}

// oracleGraphs: a BA graph, and a multigraph with parallel edges of
// different weights, self-loops and isolated nodes (6, 7). Weights are
// multiples of 1/4: they sum exactly in any order.
func oracleGraphs() map[string]*graph.Graph {
	b := graph.NewBuilder(8)
	b.AddEdge(0, 1, 5).AddEdge(0, 2, 7).AddEdge(0, 1, 1).AddEdge(1, 3, 2).AddEdge(3, 3, 1.5)
	b.AddEdge(2, 3, 0.25).AddEdge(1, 0, 3).AddEdge(4, 5, 2).AddEdge(4, 4, 0.5).AddEdge(2, 4, 1)
	return map[string]*graph.Graph{"ba": graph.BarabasiAlbert(60, 3, 5), "multi": b.Build()}
}

func TestBatchedRepairMatchesOpByOpAndScratch(t *testing.T) {
	ins := func(u, v int, w float64) dist.EdgeOp { return dist.EdgeOp{U: u, V: v, W: w} }
	del := func(u, v int) dist.EdgeOp { return dist.EdgeOp{Del: true, U: u, V: v} }
	batches := map[string][]dist.EdgeOp{
		"insert then delete the same pair":   {ins(5, 6, 2), del(6, 5)},
		"delete then reinsert":               {del(0, 1), ins(0, 1, 0.75)},
		"delete must take a batch insert":    {ins(6, 7, 1), ins(7, 6, 4), del(6, 7), ins(1, 6, 2)},
		"parallel copies, lowest goes first": {del(1, 0), del(0, 1), ins(0, 1, 9), del(0, 1)},
		"self-loops":                         {ins(7, 7, 2), del(3, 3), ins(3, 3, 0.5), del(7, 7)},
		"far-apart seeds":                    {ins(6, 7, 3), del(4, 5), ins(0, 5, 1.25), del(2, 3)},
		"single op":                          {ins(2, 5, 1)},
		"empty":                              nil,
	}
	for gname, g := range oracleGraphs() {
		for bname, ops := range batches {
			label := gname + "/" + bname
			// An op may be inapplicable on this graph (no {3,3} loop in BA):
			// the prefix contract is then what gets checked.
			prefix, wantErr := len(ops), false
			r := newRef(g, 5)
			for i, op := range ops {
				if !r.apply(op) {
					prefix, wantErr = i, true
					break
				}
			}
			m := New(g, 5)
			m.Stats = Stats{}
			err := m.ApplyDelta(dist.GraphDelta{Ops: ops})
			if (err != nil) != wantErr {
				t.Fatalf("%s: ApplyDelta error %v, reference failed=%v", label, err, wantErr)
			}
			g2, aerr := dist.GraphDelta{Ops: ops[:prefix]}.Apply(g)
			if aerr != nil {
				t.Fatal(aerr)
			}
			assertOracles(t, label, m, r, g2)
			if m.Stats.Updates != prefix {
				t.Fatalf("%s: Stats.Updates = %d, want the %d applied ops", label, m.Stats.Updates, prefix)
			}
		}
	}
}

// randomBatch draws 1–24 ops against g: inserts of random (often parallel,
// sometimes loop) edges with weights in multiples of 1/4, deletes of edges of
// the graph the batch starts on (possibly the same one twice) and, rarely,
// deletes of a random pair that is usually missing — so a fair share of
// batches fail mid-way.
func randomBatch(rng *rand.Rand, g *graph.Graph) []dist.EdgeOp {
	var ops []dist.EdgeOp
	n := g.N()
	for i, k := 0, 1+rng.Intn(24); i < k; i++ {
		op := dist.EdgeOp{U: rng.Intn(n), V: rng.Intn(n)}
		switch c := rng.Intn(40); {
		case c < 16 && g.M() > 0: // delete an edge of the graph the batch started on
			e := g.Edges()[rng.Intn(g.M())]
			op = dist.EdgeOp{Del: true, U: e.V, V: e.U}
		case c == 16: // delete a random pair, usually missing
			op.Del = true
		default:
			op.W = float64(1+rng.Intn(12)) / 4
		}
		ops = append(ops, op)
	}
	return ops
}

// TestBatchedRepairRandomBatches chains seeded random batches — inserts of
// random (often parallel, sometimes loop) edges and deletes of random pairs
// that may or may not exist — through one Maintainer, checking all three
// parties after every batch. A batch that fails mid-way must leave exactly
// its prefix applied AND repaired, and the Maintainer usable afterwards.
func TestBatchedRepairRandomBatches(t *testing.T) {
	for gname, g := range oracleGraphs() {
		rng := rand.New(rand.NewSource(31))
		T := 6
		m, r := New(g, T), newRef(g, T)
		failedBatches := 0
		for round := 0; round < 40; round++ {
			ops := randomBatch(rng, g)
			prefix := len(ops)
			for i, op := range ops {
				if !r.apply(op) {
					prefix = i
					break
				}
			}
			label := fmt.Sprintf("%s round %d", gname, round)
			err := m.ApplyDelta(dist.GraphDelta{Ops: ops})
			if prefix < len(ops) {
				failedBatches++
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("delta op %d:", prefix)) {
					t.Fatalf("%s: op %d cannot apply, ApplyDelta said %v", label, prefix, err)
				}
			} else if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var aerr error
			if g, aerr = (dist.GraphDelta{Ops: ops[:prefix]}).Apply(g); aerr != nil {
				t.Fatal(aerr)
			}
			assertOracles(t, label, m, r, g)
		}
		if failedBatches < 3 || failedBatches > 37 {
			t.Fatalf("%s: %d of 40 batches failed mid-way; the generator lost one side", gname, failedBatches)
		}
	}
}

// TestBatchTouchesSharedNodesOncePerRound: ops that share endpoints must not
// multiply the work — the point of repairing per batch. Twenty inserts at the
// hub of a star put the hub in the seed list twenty times; a round evaluates
// it once.
func TestBatchTouchesSharedNodesOncePerRound(t *testing.T) {
	g := graph.Star(40)
	var ops []dist.EdgeOp
	for v := 1; v <= 20; v++ {
		ops = append(ops, dist.EdgeOp{U: 0, V: v, W: 1})
	}
	// With T = 1 the only round evaluates exactly the seeds: the hub and the
	// twenty leaves, each once.
	one := New(g, 1)
	one.Stats = Stats{}
	if err := one.ApplyDelta(dist.GraphDelta{Ops: ops}); err != nil {
		t.Fatal(err)
	}
	if one.Stats.Reevaluated != 21 {
		t.Fatalf("round 1 evaluated %d nodes for 21 distinct endpoints: the hub is being re-evaluated per op", one.Stats.Reevaluated)
	}
	T := 4
	batched := New(g, T)
	batched.Stats = Stats{}
	if err := batched.ApplyDelta(dist.GraphDelta{Ops: ops}); err != nil {
		t.Fatal(err)
	}
	if max := int64(g.N() * T); batched.Stats.Reevaluated > max {
		t.Fatalf("one batch evaluated %d node-rounds; each (t, x) is due at most once: %d", batched.Stats.Reevaluated, max)
	}
	if batched.Stats.Updates != len(ops) {
		t.Fatalf("Updates counts ops: %d, want %d", batched.Stats.Updates, len(ops))
	}
}

// TestPrunedFrontierMatchesUnprunedAndScratch holds the pruned frontier to
// the unpruned one it replaced and to a fresh core.Run, on every level of the
// history bit for bit: pruning may change how many nodes are looked at, never
// which move. Weights are in {1, ½, ¼, 2} — exactly summable, the contract
// the rule is exact under. The strict-same-side rule the crossing test
// replaced runs alongside as a second reference: the crossing frontier is
// never larger than its frontier, and on ba strictly smaller.
func TestPrunedFrontierMatchesUnprunedAndScratch(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ba":    graph.BarabasiAlbert(240, 3, 5),
		"ws":    graph.WattsStrogatz(240, 6, 0.1, 5),
		"star":  graph.Star(60),
		"multi": oracleGraphs()["multi"],
	}
	weights := []float64{1, 0.5, 0.25, 2}
	const T = 6
	for gname, g := range graphs {
		for _, size := range []int{1, 32, 128} {
			rng := rand.New(rand.NewSource(int64(7 + size)))
			m, r, sr := New(g, T), newRef(g, T), newRef(g, T)
			cur := g
			var pruned, unpruned, sameSide int64
			for round := 0; round < 6; round++ {
				// A valid batch: deletes name distinct edges of the graph it
				// starts on, inserts are random (loops and parallels included).
				var ops []dist.EdgeOp
				victims := rng.Perm(cur.M())
				for len(ops) < size {
					if rng.Intn(2) == 0 && len(victims) > 0 {
						e := cur.Edges()[victims[0]]
						victims = victims[1:]
						ops = append(ops, dist.EdgeOp{Del: true, U: e.V, V: e.U})
					} else {
						ops = append(ops, dist.EdgeOp{U: rng.Intn(cur.N()), V: rng.Intn(cur.N()), W: weights[rng.Intn(len(weights))]})
					}
				}
				before := m.Stats
				if err := m.ApplyDelta(dist.GraphDelta{Ops: ops}); err != nil {
					t.Fatal(err)
				}
				re, ch := r.applyBatch(ops, false)
				sre, sch := sr.applyBatch(ops, true)
				var err error
				if cur, err = (dist.GraphDelta{Ops: ops}).Apply(cur); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s batch %d round %d", gname, size, round)
				assertOracles(t, label, m, r, cur)
				assertOracles(t, label+" (same-side reference)", m, sr, cur)
				if got := m.Stats.Changed - before.Changed; got != ch {
					t.Fatalf("%s: %d node-rounds moved, unpruned reference %d", label, got, ch)
				}
				if got := m.Stats.Reevaluated - before.Reevaluated; got > re {
					t.Fatalf("%s: pruned frontier evaluated %d node-rounds, unpruned %d", label, got, re)
				}
				if got := m.Stats.Reevaluated - before.Reevaluated; sch != ch || got > sre {
					t.Fatalf("%s: crossing frontier evaluated %d node-rounds (%d moved), same-side reference %d (%d moved)", label, got, ch, sre, sch)
				}
				if m.Stats.Verified-before.Verified > m.Stats.Reevaluated-before.Reevaluated {
					t.Fatalf("%s: %d evaluations verified out of %d made", label, m.Stats.Verified-before.Verified, m.Stats.Reevaluated-before.Reevaluated)
				}
				pruned += m.Stats.Reevaluated - before.Reevaluated
				unpruned += re
				sameSide += sre
			}
			if gname == "ba" && pruned >= unpruned {
				t.Fatalf("%s batch %d: the rule pruned nothing (%d of %d node-rounds)", gname, size, pruned, unpruned)
			}
			if gname == "ba" && pruned >= sameSide {
				t.Fatalf("%s batch %d: the crossing test admits %d node-rounds, the same-side rule %d: not strictly smaller", gname, size, pruned, sameSide)
			}
		}
	}
}

// repairAgainstRefs applies one valid batch to a fresh Maintainer on g and
// holds the result to the unpruned reference and to a fresh core.Run
// (assertOracles). It returns the maintainer, with Stats counting this batch
// only, and the reference's evaluated and moved node-rounds.
func repairAgainstRefs(t *testing.T, label string, g *graph.Graph, T int, ops []dist.EdgeOp) (m *Maintainer, reevaluated, changed int64) {
	t.Helper()
	m, r := New(g, T), newRef(g, T)
	m.Stats = Stats{}
	if err := m.ApplyDelta(dist.GraphDelta{Ops: ops}); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	reevaluated, changed = r.applyBatch(ops, false)
	g2, err := dist.GraphDelta{Ops: ops}.Apply(g)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertOracles(t, label, m, r, g2)
	return m, reevaluated, changed
}

// spoke is one neighbour of the node under test in crossingGraph: the value it
// holds after round 1 and the weight of its arc to node 0.
type spoke struct{ b, w float64 }

// crossingGraph builds node 0 with one neighbour per spoke (nodes 1..k), each
// brought to its round-1 value by a private pendant edge, and returns the
// builder plus the first of two spare isolated node ids. β_2(0) is then
// Algorithm 3 over exactly the spokes.
func crossingGraph(spokes []spoke) (*graph.Builder, int) {
	k := len(spokes)
	b := graph.NewBuilder(2*k + 3)
	for i, sp := range spokes {
		b.AddEdge(0, 1+i, sp.w)
		if rest := sp.b - sp.w; rest > 0 {
			b.AddEdge(1+i, 1+k+i, rest)
		}
	}
	return b, 2*k + 1
}

// TestFrontierAdmitsOnlyCrossingMoves pins the four boundary cases of the
// crossing test on hand-built graphs: spoke 1 of node 0 moves in round 1 and
// the question is whether round 2 evaluates node 0, whose stored β_2 is r.
// Landing on r, from above or from below, is not reaching it; leaving r
// downward or starting an up-move on r is (r moves in the unit-weight cases of
// both, so those evaluations are needed).
func TestFrontierAdmitsOnlyCrossingMoves(t *testing.T) {
	cases := []struct {
		name     string
		spokes   []spoke // spoke 1 first, at its old value
		now      float64 // the value spoke 1 moves to
		r, after float64 // β_2(0) before and after
		admitted bool
	}{
		{"down, lands on r", []spoke{{3, 1}, {2, 1}}, 2, 2, 2, false},
		{"down, leaves r", []spoke{{2, 1}, {2, 1}}, 1, 2, 1, true},
		{"down, passes over r", []spoke{{3, 1}, {2, 1}, {2, 1}}, 1, 2, 2, true},
		{"down, stays above r", []spoke{{5, 1}, {2, 1}, {2, 1}}, 3, 2, 2, false},
		{"up, lands on r", []spoke{{1, 1}, {2, 1}, {2, 1}}, 2, 2, 2, false},
		{"up, starts at r", []spoke{{2, 1}, {5, 1}, {5, 1}, {1, 1}}, 3, 2, 3, true},
		{"up, passes over r", []spoke{{1, 1}, {5, 1}, {5, 1}, {1, 1}}, 3, 2, 3, true},
		{"up, stays below r", []spoke{{0.5, 0.5}, {2, 1}, {2, 1}}, 1.5, 2, 2, false},
		{"weighted: down, lands on r", []spoke{{2.5, 0.5}, {1.5, 1}, {4, 0.5}}, 1.5, 1.5, 1.5, false},
		{"weighted: down, leaves r", []spoke{{1.5, 0.5}, {1.5, 1}, {4, 0.5}}, 1.25, 1.5, 1.5, true},
	}
	for _, c := range cases {
		// Spoke 1 is built at the lower of its two values; an edge to a spare
		// node carries the difference, inserted by an up-move, present from
		// the start and deleted by a down-move.
		old := c.spokes[0].b
		sp := append([]spoke(nil), c.spokes...)
		sp[0].b = min(old, c.now)
		b, spare := crossingGraph(sp)
		op := dist.EdgeOp{U: 1, V: spare, W: c.now - old}
		if c.now < old {
			b.AddEdge(1, spare, old-c.now)
			op = dist.EdgeOp{Del: true, U: 1, V: spare}
		}
		g := b.Build()
		if before := New(g, 2); before.History(1)[1] != old || before.History(2)[0] != c.r {
			t.Fatalf("%s: spoke 1 starts at %v against β_2(0) = %v, the case wants %v against r = %v", c.name, before.History(1)[1], before.History(2)[0], old, c.r)
		}
		m, _, _ := repairAgainstRefs(t, c.name, g, 2, []dist.EdgeOp{op})
		if m.History(1)[1] != c.now || m.History(2)[0] != c.after {
			t.Fatalf("%s: spoke 1 moved to %v and β_2(0) to %v, the case wants %v and %v", c.name, m.History(1)[1], m.History(2)[0], c.now, c.after)
		}
		// T = 2: cand is what round 2 evaluated.
		if got := slices.Contains(m.cand, 0); got != c.admitted {
			t.Fatalf("%s: spoke 1 moved %v → %v against r = %v: round 2 evaluated node 0 = %v, want %v", c.name, old, c.now, c.r, got, c.admitted)
		}
	}
}

// TestSeedsObeyTheReachRule: an op's endpoint is evaluated in round 1 and then
// only in the rounds the op can reach it in. The hub of a star whose leaves
// hold exactly its value is reached every round (a deleted leaf arc leaves r
// downward); give the hub a clique that holds its value above the leaves' and
// a lost leaf edge never reaches it again; on a BA graph the same holds for
// the largest hub and its lowest-degree neighbour. Reevaluated of runs with
// T = 1, 2, 3 gives the per-round counts (a longer run repeats the shorter
// one's rounds).
func TestSeedsObeyTheReachRule(t *testing.T) {
	perRound := func(g *graph.Graph, op dist.EdgeOp, hub int) (counts [3]int64, hubIn [3]bool) {
		t.Helper()
		last := int64(0)
		for T := 1; T <= 3; T++ {
			m, _, _ := repairAgainstRefs(t, fmt.Sprintf("T=%d", T), g, T, []dist.EdgeOp{op})
			counts[T-1], last = m.Stats.Reevaluated-last, m.Stats.Reevaluated
			hubIn[T-1] = slices.Contains(m.cand, hub)
		}
		return counts, hubIn
	}

	star := graph.Star(12)
	counts, hubIn := perRound(star, dist.EdgeOp{Del: true, U: 0, V: 5}, 0)
	if counts != [3]int64{2, 2, 2} || hubIn != [3]bool{true, true, true} {
		t.Fatalf("star: per-round evaluations %v, hub evaluated %v; its leaves sit on its value, so every round reaches it", counts, hubIn)
	}

	// The same star with a 5-clique on the hub: β_t(hub) = 5 from round 2 on,
	// above every leaf's 1.
	b := graph.NewBuilder(star.N() + 5)
	for _, e := range star.Edges() {
		b.AddEdge(e.U, e.V, e.W)
	}
	for i := 0; i < 5; i++ {
		b.AddEdge(0, star.N()+i, 1)
		for j := i + 1; j < 5; j++ {
			b.AddEdge(star.N()+i, star.N()+j, 1)
		}
	}
	held := b.Build()
	counts, hubIn = perRound(held, dist.EdgeOp{Del: true, U: 0, V: 5}, 0)
	if counts != [3]int64{2, 1, 1} || hubIn != [3]bool{true, false, false} {
		t.Fatalf("star+clique: per-round evaluations %v, hub evaluated %v; want the hub in round 1 only and the leaf alone after", counts, hubIn)
	}
	for _, op := range []dist.EdgeOp{{U: 0, V: 5, W: 1}, {U: 5, V: 5, W: 0.5}} {
		// A parallel leaf edge, or a loop on the leaf, lifts the leaf to at most
		// 2 < 5: the hub is again out after round 1.
		if _, hubIn = perRound(held, op, 0); hubIn != [3]bool{op.U == 0, false, false} {
			t.Fatalf("star+clique, insert {%d,%d}: hub evaluated %v", op.U, op.V, hubIn)
		}
	}

	ba := graph.BarabasiAlbert(240, 3, 5)
	hub, leaf := 0, -1
	for v := 0; v < ba.N(); v++ {
		if ba.Degree(v) > ba.Degree(hub) {
			hub = v
		}
	}
	for _, a := range ba.Adj(hub) {
		if leaf < 0 || ba.Degree(a.To) < ba.Degree(leaf) {
			leaf = a.To
		}
	}
	fresh := core.Run(ba, core.Options{Rounds: 3, RecordHistory: true})
	for tt := 2; tt <= 3; tt++ {
		if fresh.History[tt-1][hub] <= fresh.History[tt-2][leaf] {
			t.Fatalf("ba: β_%d(hub) = %v is not above β_%d(leaf) = %v; pick another pair", tt, fresh.History[tt-1][hub], tt-1, fresh.History[tt-2][leaf])
		}
	}
	if _, hubIn = perRound(ba, dist.EdgeOp{Del: true, U: hub, V: leaf}, hub); hubIn != [3]bool{true, false, false} {
		t.Fatalf("ba: hub %d lost its edge to %d, which never held a value its own reaches down to; evaluated in rounds %v", hub, leaf, hubIn)
	}
}

// TestSeedRuleReadsTheRightRound: a deleted arc is a move from the value its
// far end held BEFORE the repair, an inserted one a move to the value it holds
// after — and the far end may itself move in the same batch. All batches must
// stay bit-identical to the unpruned reference and to a fresh run.
func TestSeedRuleReadsTheRightRound(t *testing.T) {
	ins := func(u, v int, w float64) dist.EdgeOp { return dist.EdgeOp{U: u, V: v, W: w} }
	del := func(u, v int) dist.EdgeOp { return dist.EdgeOp{Del: true, U: u, V: v} }
	// Node 0 with three unit spokes at 4, so β_2(0) = 3; spares 7 and 8.
	b, spare := crossingGraph([]spoke{{4, 1}, {4, 1}, {4, 1}})
	g := b.Build()
	batches := map[string][]dist.EdgeOp{
		// Spoke 1 falls to 1 in round 1 in the same batch that cuts it off 0.
		// Only its pre-repair 4 ≥ r says β_2(0) can fall (it does, to 2), and
		// with the arc gone no neighbour's move can make up for a wrong read.
		"delete reads the pre-repair value": {del(1, 4), del(0, 1)},
		// The spare is worth 0 before the batch and 4 after, which is what
		// lifts β_2(0) to 4.
		"insert reads the repaired value": {ins(spare, spare+1, 3), ins(0, spare, 1)},
		"insert then delete":              {ins(0, spare, 2), del(spare, 0)},
		"delete then reinsert":            {del(0, 1), ins(1, 0, 1)},
		"reinsert heavier":                {del(0, 2), ins(0, 2, 2)},
		"self-loop in and out":            {ins(0, 0, 2), del(0, 0)},
		"self-loop stays":                 {ins(0, 0, 0.5), ins(1, 1, 2)},
		"parallel copies, weights":        {ins(0, 1, 0.25), ins(0, 1, 2), del(1, 0), ins(0, 1, 0.5), del(0, 1)},
	}
	for name, ops := range batches {
		for T := 1; T <= 4; T++ {
			m, re, ch := repairAgainstRefs(t, fmt.Sprintf("%s T=%d", name, T), g, T, ops)
			if m.Stats.Changed != ch || m.Stats.Reevaluated > re || m.Stats.Verified > m.Stats.Reevaluated {
				t.Fatalf("%s T=%d: stats %+v, unpruned reference evaluated %d and moved %d", name, T, m.Stats, re, ch)
			}
		}
	}
	for name, want := range map[string]float64{"delete reads the pre-repair value": 2, "insert reads the repaired value": 4} {
		m := New(g, 2)
		if err := m.ApplyDelta(dist.GraphDelta{Ops: batches[name]}); err != nil {
			t.Fatal(err)
		}
		if got := m.History(2)[0]; got != want {
			t.Fatalf("%s: β_2(0) = %v, the batch is built to move it from 3 to %v", name, got, want)
		}
	}
}

// TestValidateMatchesCanonicalApply: Adjacency.Validate must fail exactly
// when dist.GraphDelta.Apply does, at the same op with the same complaint,
// and touch nothing; a batch it passes must apply, leaving the lists in
// canonical order and the rolling hash equal to a from-scratch recompute.
func TestValidateMatchesCanonicalApply(t *testing.T) {
	ins := func(u, v int, w float64) dist.EdgeOp { return dist.EdgeOp{U: u, V: v, W: w} }
	del := func(u, v int) dist.EdgeOp { return dist.EdgeOp{Del: true, U: u, V: v} }
	fixed := [][]dist.EdgeOp{
		{ins(5, 6, 2), del(6, 5)},                      // insert then delete one pair
		{ins(5, 6, 2), del(6, 5), del(5, 6)},           // ... and once too often
		{del(0, 1), ins(0, 1, 0.75)},                   // delete then reinsert
		{del(0, 1), del(1, 0), del(0, 1), del(0, 1)},   // parallel copies run out at op 3
		{del(3, 3), del(3, 3)},                         // a loop is one copy
		{ins(1, 2, 1), ins(0, 8, 1)},                   // valid prefix, endpoint out of range
		{ins(1, 2, 1), del(0, -1)},                     // ... negative
		{ins(1, 2, 1), ins(2, 3, math.NaN())},          // ... NaN weight
		{del(0, 1), ins(2, 3, math.Inf(1)), del(6, 7)}, // first failure wins
		{ins(1, 2, 1), {Del: true, U: 6, V: 7, W: -1}}, // a delete's weight is ignored, the edge is missing
		{ins(6, 7, 1), {Del: true, U: 7, V: 6, W: -1}}, // ... and here it is not
	}
	for gname, g := range oracleGraphs() {
		rng := rand.New(rand.NewSource(43))
		a := NewAdjacency(g)
		failed := 0
		for round := 0; round < 40+len(fixed); round++ {
			var ops []dist.EdgeOp
			if round < len(fixed) {
				if ops = fixed[round]; gname != "multi" {
					continue // the fixed batches are written against the multigraph
				}
			} else {
				ops = randomBatch(rng, g)
			}
			d := dist.GraphDelta{Ops: ops}
			label := fmt.Sprintf("%s round %d", gname, round)
			hash := a.Hash()
			verr := a.Validate(d)
			g2, aerr := d.Apply(g)
			if (verr == nil) != (aerr == nil) ||
				verr != nil && strings.TrimPrefix(verr.Error(), "dynamic: ") != strings.TrimPrefix(aerr.Error(), "dist: ") {
				t.Fatalf("%s: Validate says %v, canonical Apply %v", label, verr, aerr)
			}
			if a.Hash() != hash || a.Graph().EdgeSetHash() != hash {
				t.Fatalf("%s: Validate mutated the adjacency", label)
			}
			if verr != nil {
				failed++
				continue
			}
			if k, err := a.Apply(d); err != nil || k != len(ops) {
				t.Fatalf("%s: validated batch applied %d of %d ops: %v", label, k, len(ops), err)
			}
			g = g2
			if a.Hash() != g.EdgeSetHash() {
				t.Fatalf("%s: rolling hash %#x, from-scratch %#x", label, a.Hash(), g.EdgeSetHash())
			}
			for v := 0; v < g.N(); v++ {
				if a.Degree(v) != g.Degree(v) {
					t.Fatalf("%s: node %d has %d arcs, canonical Apply %d", label, v, a.Degree(v), g.Degree(v))
				}
				for i, x := range g.Adj(v) {
					if a.adj[v][i] != (arc{to: x.To, w: x.W}) {
						t.Fatalf("%s: node %d arc %d is %+v, canonical Apply %+v", label, v, i, a.adj[v][i], x)
					}
				}
			}
		}
		if failed < 3 || failed > 40 {
			t.Fatalf("%s: %d batches failed validation; the generator lost one side", gname, failed)
		}
	}
}

// TestSteadyStateApplyDeltaAllocationFree starts from an edgeless graph, so
// every degree the repair ever meets was created by inserts: the eval
// scratch has to grow with them, or each evaluation of a node that outgrew
// it allocates inside UpdateValue.
func TestSteadyStateApplyDeltaAllocationFree(t *testing.T) {
	n := 64
	m := New(graph.NewBuilder(n).Build(), 5)
	m.InsertEdge(2, 3, 1) // first growth is to a small degree; the hub below outgrows it
	var grow dist.GraphDelta
	for v := 1; v < n; v++ {
		grow.Ops = append(grow.Ops, dist.EdgeOp{U: 0, V: v, W: 1}, dist.EdgeOp{U: v, V: 1 + v%7, W: 0.5})
	}
	if err := m.ApplyDelta(grow); err != nil {
		t.Fatal(err)
	}
	// Steady state: the batch removes what it adds, so adjacency capacity
	// stops moving after the warm-up run AllocsPerRun makes.
	steady := dist.GraphDelta{Ops: []dist.EdgeOp{
		{U: 0, V: 5, W: 2}, {U: 9, V: 9, W: 1}, {Del: true, U: 0, V: 20}, {U: 20, V: 0, W: 1},
		{Del: true, U: 5, V: 0}, {Del: true, U: 9, V: 9}, {Del: true, U: 0, V: 5}, {U: 0, V: 5, W: 1},
	}}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := m.ApplyDelta(steady); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state ApplyDelta allocates %.1f times per batch, want 0", allocs)
	}
	assertMatchesScratch(t, m, "after steady-state batches")
}

// TestEvalScratchHoldsTheTieElement: when every arc of a node reads a value
// above the pivot, the verified evaluation hands UpdateValue d + 1 elements —
// the d arcs and the tie element. A hub grown one edge at a time passes through
// every degree, so whatever the growth policy, a scratch sized for d alone is
// caught at the degree that fills it exactly.
func TestEvalScratchHoldsTheTieElement(t *testing.T) {
	n := 24
	m := New(graph.NewBuilder(n).Build(), 2)
	// In and out: the hub is evaluated in round 1, where all its neighbours
	// hold +∞ and its stored value is its degree.
	loop := dist.GraphDelta{Ops: []dist.EdgeOp{{U: 0, V: 0, W: 1}, {Del: true, U: 0, V: 0}}}
	for v := 1; v < n; v++ {
		m.InsertEdge(0, v, 1)
		if allocs := testing.AllocsPerRun(5, func() {
			if err := m.ApplyDelta(loop); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("hub of degree %d: a steady-state ApplyDelta allocates %.1f times, want 0", v, allocs)
		}
	}
	assertMatchesScratch(t, m, "after growing the hub")
}
