package dynamic

import (
	"fmt"
	"math"
	"math/rand"
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

func (r *refMaintainer) apply(op dist.EdgeOp) bool {
	if op.Del {
		if !r.remove(op.U, op.V) {
			return false
		}
		if op.U != op.V {
			r.remove(op.V, op.U)
		}
	} else {
		r.adj[op.U] = append(r.adj[op.U], refArc{op.V, op.W})
		if op.U != op.V {
			r.adj[op.V] = append(r.adj[op.V], refArc{op.U, op.W})
		}
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
		if len(m.adj[v]) != len(want) {
			t.Fatalf("%s: node %d has %d arcs, canonical Apply %d", label, v, len(m.adj[v]), len(want))
		}
		for i, a := range want {
			if m.adj[v][i] != (arc{to: a.To, w: a.W}) {
				t.Fatalf("%s: node %d arc %d is %+v, canonical Apply %+v (wrong copy deleted)", label, v, i, m.adj[v][i], a)
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

// TestBatchedRepairRandomBatches chains seeded random batches — inserts of
// random (often parallel, sometimes loop) edges and deletes of random pairs
// that may or may not exist — through one Maintainer, checking all three
// parties after every batch. A batch that fails mid-way must leave exactly
// its prefix applied AND repaired, and the Maintainer usable afterwards.
func TestBatchedRepairRandomBatches(t *testing.T) {
	for gname, g := range oracleGraphs() {
		rng := rand.New(rand.NewSource(31))
		n, T := g.N(), 6
		m, r := New(g, T), newRef(g, T)
		failedBatches := 0
		for round := 0; round < 40; round++ {
			var ops []dist.EdgeOp
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
// multiply the work — the point of repairing per batch.
func TestBatchTouchesSharedNodesOncePerRound(t *testing.T) {
	g := graph.Star(40)
	var ops []dist.EdgeOp
	for v := 1; v <= 20; v++ {
		ops = append(ops, dist.EdgeOp{U: 0, V: v, W: 1})
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
	single := New(g, T)
	single.Stats = Stats{}
	for _, op := range ops {
		single.InsertEdge(op.U, op.V, op.W)
	}
	if batched.Stats.Updates != len(ops) || single.Stats.Updates != len(ops) {
		t.Fatalf("Updates counts ops: batched %d, single %d, want %d", batched.Stats.Updates, single.Stats.Updates, len(ops))
	}
	if batched.Stats.Reevaluated*4 > single.Stats.Reevaluated {
		t.Fatalf("batched repair evaluated %d node-rounds, op-by-op %d: the hub is being re-evaluated per op",
			batched.Stats.Reevaluated, single.Stats.Reevaluated)
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
