package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distkcore/internal/graph"
)

// refApply is the map-based Apply this package shipped before the
// adjacency-scan one, kept as a test-only reference: a per-pair queue of live
// edge indices over ALL edges, deletes pop the front, the result goes through
// graph.Builder. It reads neither g.Adj nor EdgeIDs.
func refApply(d GraphDelta, g *graph.Graph) (*graph.Graph, error) {
	n := g.N()
	type pairKey struct{ a, b graph.NodeID }
	norm := func(u, v graph.NodeID) pairKey {
		if u > v {
			u, v = v, u
		}
		return pairKey{u, v}
	}
	edges := append([]graph.Edge(nil), g.Edges()...)
	live := make(map[pairKey][]int, len(edges))
	for i, e := range edges {
		k := norm(e.U, e.V)
		live[k] = append(live[k], i)
	}
	deleted := make([]bool, len(edges), len(edges)+len(d.Ops))
	for i, op := range d.Ops {
		if op.U < 0 || op.U >= n || op.V < 0 || op.V >= n {
			return nil, fmt.Errorf("dist: delta op %d: edge (%d,%d) out of range [0,%d)", i, op.U, op.V, n)
		}
		if op.Del {
			k := norm(op.U, op.V)
			q := live[k]
			if len(q) == 0 {
				return nil, fmt.Errorf("dist: delta op %d: delete of missing edge {%d,%d}", i, op.U, op.V)
			}
			deleted[q[0]] = true
			live[k] = q[1:]
			continue
		}
		if op.W < 0 || math.IsNaN(op.W) || math.IsInf(op.W, 0) {
			return nil, fmt.Errorf("dist: delta op %d: invalid insert weight %v", i, op.W)
		}
		k := norm(op.U, op.V)
		live[k] = append(live[k], len(edges))
		edges = append(edges, graph.Edge{U: op.U, V: op.V, W: op.W})
		deleted = append(deleted, false)
	}
	b := graph.NewBuilder(n)
	for i, e := range edges {
		if !deleted[i] {
			b.AddEdge(e.U, e.V, e.W)
		}
	}
	return b.Build(), nil
}

// assertApplyMatchesRef holds Apply to refApply on one (graph, delta): the
// same error text (so the same failing op index) or the same edge list in
// the same order, the same fingerprint and the same adjacency layout.
func assertApplyMatchesRef(t *testing.T, label string, g *graph.Graph, d GraphDelta) (ok bool) {
	t.Helper()
	got, gotErr := d.Apply(g)
	want, wantErr := refApply(d, g)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: Apply error %v, reference %v\nops=%+v", label, gotErr, wantErr, d.Ops)
	}
	if gotErr != nil {
		if got != nil {
			t.Fatalf("%s: a failed Apply returned a graph", label)
		}
		return false
	}
	ge, we := got.Edges(), want.Edges()
	if len(ge) != len(we) {
		t.Fatalf("%s: %d edges, reference %d", label, len(ge), len(we))
	}
	for i := range we {
		if ge[i] != we[i] {
			t.Fatalf("%s: edge %d is %v, reference %v (wrong copy deleted or order lost)\nops=%+v", label, i, ge[i], we[i], d.Ops)
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprint %#x, reference %#x", label, got.Fingerprint(), want.Fingerprint())
	}
	for v := 0; v < g.N(); v++ {
		ga, wa := got.Adj(v), want.Adj(v)
		if len(ga) != len(wa) {
			t.Fatalf("%s: node %d has %d arcs, reference %d", label, v, len(ga), len(wa))
		}
		for i := range wa {
			if ga[i] != wa[i] {
				t.Fatalf("%s: node %d arc %d is %+v, reference %+v", label, v, i, ga[i], wa[i])
			}
		}
	}
	return true
}

// TestApplyMatchesMapReference drives both implementations with seeded
// random batches on a dense little multigraph — few nodes, so parallel
// copies with different weights, self-loops, deletes that outrun the
// original copies and must take a batch-inserted one, and deletes of
// missing edges all occur — chaining each successful result into the next
// round so the base graphs themselves carry earlier churn.
func TestApplyMatchesMapReference(t *testing.T) {
	failed, applied, tookInsert := 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		b := graph.NewBuilder(n + 2) // two nodes stay isolated
		for i := 0; i < 2*n; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(5)))
		}
		g := b.Build()
		for round := 0; round < 30; round++ {
			var d GraphDelta
			for i, ops := 0, rng.Intn(24); i < ops; i++ {
				op := EdgeOp{U: rng.Intn(n), V: rng.Intn(n)}
				switch r := rng.Intn(200); {
				case r < 60: // delete of a random pair: present, parallel or missing
					op.Del = true
				case r < 90 && i > 0: // delete aimed at a pair this batch touched
					prev := d.Ops[rng.Intn(i)]
					op = EdgeOp{Del: true, U: prev.V, V: prev.U}
				case r == 90:
					op.U = n + 2 // out of range
				case r == 91:
					op.W = math.NaN()
				case r == 92:
					op.W = -1
				default:
					op.W = float64(1 + rng.Intn(5))
				}
				d.Ops = append(d.Ops, op)
			}
			if !assertApplyMatchesRef(t, fmt.Sprintf("seed %d round %d", seed, round), g, d) {
				failed++
				continue
			}
			applied++
			if deletesBatchInsert(g, d) {
				tookInsert++
			}
			g, _ = d.Apply(g)
		}
	}
	if failed < 20 || applied < 20 || tookInsert < 20 {
		t.Fatalf("generator lost coverage: %d failed, %d applied, %d deleting their own inserts", failed, applied, tookInsert)
	}
	// The cases the random walk is meant to hit, spelled out once.
	base := graph.NewBuilder(4).AddEdge(0, 1, 5).AddEdge(0, 1, 1).AddEdge(2, 2, 3).Build()
	for name, ops := range map[string][]EdgeOp{
		"delete takes lowest original copy": {{Del: true, U: 1, V: 0}},
		"insert then delete same pair":      {{U: 1, V: 3, W: 2}, {Del: true, U: 3, V: 1}},
		"delete then reinsert":              {{Del: true, U: 0, V: 1}, {U: 0, V: 1, W: 9}},
		"delete falls through to batch insert": {
			{U: 1, V: 0, W: 7}, {U: 0, V: 1, W: 8},
			{Del: true, U: 0, V: 1}, {Del: true, U: 0, V: 1}, {Del: true, U: 0, V: 1},
		},
		"batch-inserted copy deleted twice": {{U: 1, V: 3, W: 2}, {Del: true, U: 3, V: 1}, {Del: true, U: 3, V: 1}},
		"self-loop":                         {{Del: true, U: 2, V: 2}, {U: 3, V: 3, W: 1}, {Del: true, U: 3, V: 3}, {Del: true, U: 2, V: 2}},
		"invalid weight after valid prefix": {{U: 0, V: 2, W: 1}, {U: 0, V: 2, W: math.Inf(1)}},
		"empty":                             nil,
	} {
		assertApplyMatchesRef(t, name, base, GraphDelta{Ops: ops})
	}
}

// deletesBatchInsert reports whether some delete of d outruns the original
// copies of its pair in g, i.e. must take a copy the batch itself inserted.
func deletesBatchInsert(g *graph.Graph, d GraphDelta) bool {
	type pair struct{ a, b graph.NodeID }
	norm := func(u, v graph.NodeID) pair {
		if u > v {
			u, v = v, u
		}
		return pair{u, v}
	}
	orig := map[pair]int{}
	for _, e := range g.Edges() {
		orig[norm(e.U, e.V)]++
	}
	for _, op := range d.Ops {
		if op.Del {
			if orig[norm(op.U, op.V)]--; orig[norm(op.U, op.V)] < 0 {
				return true
			}
		}
	}
	return false
}
