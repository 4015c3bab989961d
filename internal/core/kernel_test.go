package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestPeerTableRejectsNonPeers is the regression for Set's silent overwrite:
// sort.SearchInts returns the insertion point, so a value from a node that
// is not a neighbor used to land in the next-larger neighbor's slot (and
// only panicked past the last one). Set, Get and Merge must all refuse.
func TestPeerTableRejectsNonPeers(t *testing.T) {
	peers := []graph.NodeID{2, 5, 9}
	arcs := []graph.Arc{{To: 5}, {To: 2}, {To: 9}, {To: 7}} // 7 is the node itself
	newTable := func() PeerTable { return NewPeerTable(7, arcs, peers, math.Inf(1)) }
	for _, from := range []graph.NodeID{0, 3, 7, 11} { // below, between, self, above
		tab := newTable()
		mustPanic(t, "Set from a non-peer", func() { tab.Set(from, 1) })
		mustPanic(t, "Get of a non-peer", func() { tab.Get(from) })
		mustPanic(t, "Merge of a non-peer's message", func() {
			tab.Merge([]dist.Message{{From: from, F0: 1}})
		})
		for rk, p := range peers {
			if got := tab.vals[rk]; !math.IsInf(got, 1) {
				t.Fatalf("rejected sender %d still overwrote neighbor %d's value with %v", from, p, got)
			}
		}
	}
	tab := newTable()
	mustPanic(t, "Merge of an inbox out of sender order", func() {
		tab.Merge([]dist.Message{{From: 9, F0: 1}, {From: 2, F0: 1}})
	})

	// A well-formed inbox — repeated senders included — merges to what the
	// same Sets in order leave behind.
	inbox := []dist.Message{{From: 2, F0: 4}, {From: 2, F0: 3}, {From: 9, F0: 8}}
	merged, set := newTable(), newTable()
	merged.Merge(inbox)
	for _, m := range inbox {
		set.Set(m.From, m.F0)
	}
	if !reflect.DeepEqual(merged.vals, set.vals) || merged.Get(2) != 3 || !math.IsInf(merged.Get(5), 1) {
		t.Fatalf("Merge left %v, Sets leave %v", merged.vals, set.vals)
	}
}

// TestSortOrderMatchesSortStable holds both branches of Updater.sortOrder to
// sort.Stable's permutation, on carried-over orders with heavy ties, at
// degrees on both sides of the cut-off.
func TestSortOrderMatchesSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{0, 1, 2, 7, insertionSortMax - 1, insertionSortMax, insertionSortMax + 1, 200} {
		arcs := make([]graph.Arc, d)
		for i := range arcs {
			arcs[i] = graph.Arc{To: rng.Intn(d/2 + 1), W: 1} // parallel arcs: ties in the initial order too
		}
		u := NewUpdater(arcs)
		ref := append([]int(nil), u.order...)
		for i := range ref {
			ref[i] = i
		}
		sort.SliceStable(ref, func(a, b int) bool { return arcs[ref[a]].To < arcs[ref[b]].To })
		if !reflect.DeepEqual(u.order, ref) && d > 0 {
			t.Fatalf("d=%d: initial order %v, want (neighbor, arc index) order %v", d, u.order, ref)
		}
		for round := 0; round < 20; round++ {
			for i := range u.vals {
				u.vals[i] = float64(rng.Intn(4)) // few distinct values
				if rng.Intn(8) == 0 {
					u.vals[i] = math.Inf(1)
				}
			}
			sort.SliceStable(ref, func(a, b int) bool { return u.vals[ref[a]] < u.vals[ref[b]] })
			u.sortOrder()
			if !reflect.DeepEqual(u.order, ref) && d > 0 {
				t.Fatalf("d=%d round %d: sortOrder %v, sort.Stable %v", d, round, u.order, ref)
			}
		}
	}
}

// TestSlabCarvesDisjointZeroedArrays checks the slab hands out arrays that
// are zero, exactly sized (cap included, so an append cannot run into a
// neighbor), disjoint, and that a request beyond one chunk is served whole.
func TestSlabCarvesDisjointZeroedArrays(t *testing.T) {
	var sl Slab
	var all [][]float64
	for _, n := range []int{3, 0, 5, slabChunkBytes, 1, slabChunkBytes / 8, 2} {
		_, f, _ := sl.carve(0, n, 0)
		if len(f) != n || cap(f) != n {
			t.Fatalf("carve(%d): len %d cap %d", n, len(f), cap(f))
		}
		for i := range f {
			if f[i] != 0 {
				t.Fatalf("carve(%d) returned dirty memory", n)
			}
			f[i] = float64(len(all) + 1)
		}
		all = append(all, f)
	}
	for k, f := range all {
		for i := range f {
			if f[i] != float64(k+1) {
				t.Fatalf("array %d was overwritten by a later carve", k)
			}
		}
	}
}

// TestDistributedSurvivesInboxPoisoning runs the elimination program with
// the runtime overwriting every inbox the moment Round returns: a program
// that kept a reference past the call would diverge from the clean run.
func TestDistributedSurvivesInboxPoisoning(t *testing.T) {
	for name, g := range testGraphs(4) {
		opt := Options{Rounds: 6, TrackAux: true}
		want, wantMet := RunDistributed(g, opt, dist.SeqEngine{})
		dist.CheckInboxRetention = true
		for _, eng := range []dist.Engine{dist.SeqEngine{}, dist.ParEngine{W: 3}} {
			got, met := RunDistributed(g, opt, eng)
			if met != wantMet || !reflect.DeepEqual(got.B, want.B) || !reflect.DeepEqual(got.AuxEdges, want.AuxEdges) {
				dist.CheckInboxRetention = false
				t.Fatalf("%s: run under inbox poisoning diverges from the clean run", name)
			}
		}
		dist.CheckInboxRetention = false
	}
}
