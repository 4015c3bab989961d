package dynamic

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
)

// assertMassMatchesRecount holds every kept S_t(v) and G_t(v) to a recount
// from scratch, bit for bit: the weight of v's arcs, in a freshly materialized
// graph, whose far end reads at least β_t(v) in round t-1 of a fresh core.Run,
// and of those reading strictly above it — whose history m must also match
// bit for bit.
func assertMassMatchesRecount(t *testing.T, m *Maintainer, label string) {
	t.Helper()
	g := m.Graph()
	fresh := core.Run(g, core.Options{Rounds: m.T, RecordHistory: true})
	prev := make([]float64, g.N())
	for v := range prev {
		prev[v] = math.Inf(1)
	}
	for tt := 1; tt <= m.T; tt++ {
		cur := fresh.History[tt-1]
		for v := 0; v < g.N(); v++ {
			if math.Float64bits(m.hist[tt][v]) != math.Float64bits(cur[v]) {
				t.Fatalf("%s: β_%d(%d) = %v, fresh core.Run %v", label, tt, v, m.hist[tt][v], cur[v])
			}
			s, above := 0.0, 0.0
			for _, a := range g.Adj(v) {
				if prev[a.To] >= cur[v] {
					s += a.W
				}
				if prev[a.To] > cur[v] {
					above += a.W
				}
			}
			if math.Float64bits(m.mass[tt][v]) != math.Float64bits(s) {
				t.Fatalf("%s: kept S_%d(%d) = %v, a recount %v", label, tt, v, m.mass[tt][v], s)
			}
			if math.Float64bits(m.above[tt][v]) != math.Float64bits(above) {
				t.Fatalf("%s: kept G_%d(%d) = %v, a recount %v", label, tt, v, m.above[tt][v], above)
			}
		}
		prev = cur
	}
}

// massExtras are the ops RandomChurn never makes, appended to its batches: a
// self-loop inserted and one deleted, parallel copies of different weights
// (one of them taken again by the delete that follows, the lowest copy in
// canonical order), and an edge deleted by the batch that inserted it.
func massExtras(rng *rand.Rand, n int) []dist.EdgeOp {
	ws := [...]float64{0, 0.25, 0.5, 2}
	w := func() float64 { return ws[rng.Intn(len(ws))] }
	u, v, x, y := rng.Intn(n), rng.Intn(n), rng.Intn(n), rng.Intn(n)
	return []dist.EdgeOp{
		{U: u, V: u, W: w()}, {Del: true, U: u, V: u},
		{U: v, V: u, W: 0.25}, {U: u, V: v, W: 2}, {Del: true, U: u, V: v},
		{U: x, V: y, W: w()}, {Del: true, U: y, V: x},
		{U: y, V: y, W: w()},
	}
}

// TestMaintainedMassMatchesRecount chains RandomChurn batches of 1, 7 and 64
// ops, each with massExtras appended, through one Maintainer per graph — BA,
// Caveman, and a BA weighted on a ¼ grid with zero weights — and holds the
// kept masses to a recount after New and after every batch. The settle that
// reads no arc, the fall that gathers below its value only and the rise that
// gathers above it only must each have fired on every graph.
func TestMaintainedMassMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	b := graph.NewBuilder(300)
	for _, e := range graph.BarabasiAlbert(300, 3, 11).Edges() {
		b.AddEdge(e.U, e.V, float64(rng.Intn(12))/4)
	}
	graphs := map[string]*graph.Graph{
		"ba":          graph.BarabasiAlbert(300, 3, 5),
		"caveman":     graph.Caveman(30, 6),
		"ba-weighted": b.Build(),
	}
	const T = 6
	for gname, g := range graphs {
		m := New(g, T)
		assertMassMatchesRecount(t, m, gname+" after New")
		for i := 0; i < 12; i++ {
			size := [...]int{1, 7, 64}[i%3]
			d := dist.RandomChurn(m.Graph(), size, int64(i))
			d.Ops = append(d.Ops, massExtras(rng, g.N())...)
			if err := m.ApplyDelta(d); err != nil {
				t.Fatalf("%s batch %d: %v", gname, i, err)
			}
			assertMassMatchesRecount(t, m, fmt.Sprintf("%s batch %d (%d ops)", gname, i, len(d.Ops)))
		}
		if m.stood == 0 || m.fell == 0 || m.rose == 0 {
			t.Fatalf("%s: the kept masses settled %d stands, %d falls and %d rises; each has to run", gname, m.stood, m.fell, m.rose)
		}
	}
}

// TestNewIsARepairFromInfinity: New is the repair seeded with every node from
// +∞, so on every graph shape — hubs, random, small-world, a grid, self-loops
// and isolated nodes, weights 1 and 8 mixed — and at T = 1, 2 and 19 every
// History row equals core.Run's bit for bit, every kept S_t(v) and G_t(v)
// equals a recount, and the build leaves the work counters at zero.
func TestNewIsARepairFromInfinity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	b := graph.NewBuilder(600)
	for _, e := range graph.BarabasiAlbert(600, 4, 2).Edges() {
		b.AddEdge(e.U, e.V, float64(1+7*rng.Intn(2)))
	}
	graphs := map[string]*graph.Graph{
		"ba":          graph.BarabasiAlbert(2000, 4, 1),
		"er":          graph.ErdosRenyi(400, 0.02, 3),
		"ws":          graph.WattsStrogatz(400, 6, 0.1, 4),
		"grid":        graph.Grid(20, 20),
		"multi":       oracleGraphs()["multi"],
		"ba-weighted": b.Build(),
	}
	for gname, g := range graphs {
		for _, T := range []int{1, 2, 19} {
			m := New(g, T)
			label := fmt.Sprintf("%s T=%d", gname, T)
			assertMatchesScratch(t, m, label)
			if m.Stats != (Stats{}) || len(m.Moved()) != 0 {
				t.Fatalf("%s: New left stats %+v and %d moves", label, m.Stats, len(m.Moved()))
			}
		}
	}
}

// TestMaintainerRefusesUnsummableWeights: the exact-sum contract is the
// Maintainer's own. New panics on a base weight outside it; Validate and
// ApplyDelta refuse an insert outside it at that op's index, and ApplyDelta
// leaves the prefix before it applied and repaired.
func TestMaintainerRefusesUnsummableWeights(t *testing.T) {
	ba := graph.BarabasiAlbert(240, 3, 5)
	b := graph.NewBuilder(ba.N())
	for i, e := range ba.Edges() {
		w := e.W
		if i == 0 {
			w = 0.1
		}
		b.AddEdge(e.U, e.V, w)
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not exactly summable") {
				t.Fatalf("New on a 0.1 base weight: recovered %v, want a summability panic", r)
			}
		}()
		New(b.Build(), 6)
	}()
	m, e := New(ba, 6), ba.Edges()[0]
	d := dist.GraphDelta{Ops: []dist.EdgeOp{{U: 1, V: 2, W: 0.5}, {Del: true, U: e.U, V: e.V}, {U: 3, V: 4, W: 0.1}, {U: 5, V: 6, W: 1}}}
	verr := m.Adjacency().Validate(d) // before ApplyDelta mutates anything
	aerr := m.ApplyDelta(d)
	for name, err := range map[string]error{"Validate": verr, "ApplyDelta": aerr} {
		if err == nil || !strings.Contains(err.Error(), "delta op 2:") || !strings.Contains(err.Error(), "not exactly summable") {
			t.Fatalf("%s of a 0.1 insert at op 2: %v", name, err)
		}
	}
	prefix, err := dist.GraphDelta{Ops: d.Ops[:2]}.Apply(ba)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.Updates != 2 || m.Adjacency().Hash() != prefix.EdgeSetHash() {
		t.Fatalf("ApplyDelta applied %d ops, hash %#x; the prefix is 2 ops, hash %#x", m.Stats.Updates, m.Adjacency().Hash(), prefix.EdgeSetHash())
	}
	assertMatchesScratch(t, m, "after the refused batch")
	for _, w := range []float64{0, 1.0 / 1024, 0.25, 3, 1 << 20} {
		if !Summable(w) {
			t.Fatalf("Summable(%v) = false", w)
		}
	}
	for _, w := range []float64{-1, 0.1, 1.0 / 2048, 1<<20 + 1, math.Inf(1), math.NaN()} {
		if Summable(w) {
			t.Fatalf("Summable(%v) = true", w)
		}
	}
}
