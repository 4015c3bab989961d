package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
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

// TestElimStateRejectsNonPeers is the regression for a silent overwrite:
// sort.SearchInts returns the insertion point, so a value from a node that is
// not a neighbor would land on the next-larger neighbor's arcs (and only panic
// past the last one). ElimState.Advance, which files what it hears under the
// sender's arcs by that search, must refuse.
func TestElimStateRejectsNonPeers(t *testing.T) {
	peers := []graph.NodeID{2, 5, 9}
	arcs := []graph.Arc{{To: 5}, {To: 2}, {To: 9}, {To: 7}} // 7 is the node itself
	for _, from := range []graph.NodeID{0, 3, 7, 11} {      // below, between, self, above
		var es ElimState
		es.Start(7, arcs, peers, nil)
		mustPanic(t, "Advance on a non-peer's message", func() {
			es.Advance([]dist.Message{{From: from, F0: 1}}, quantize.Reals{}, false)
		})
		for i, v := range es.upd.vals {
			if !math.IsInf(v, 1) {
				t.Fatalf("rejected sender %d still overwrote arc %d's value with %v", from, i, v)
			}
		}
	}
	var es ElimState
	es.Start(7, arcs, peers, nil)
	mustPanic(t, "Advance on an inbox out of sender order", func() {
		es.Advance([]dist.Message{{From: 9, F0: 1}, {From: 2, F0: 1}}, quantize.Reals{}, false)
	})
}

// TestElimStateFilesValuesUnderTheirArcs checks the peer-rank → arcs index on
// a node with parallel arcs and self-loops: a heard value lands on every arc
// to its sender and on no other, a repeated sender's later message wins, and
// the node's own moved value lands on its self-loop arcs.
func TestElimStateFilesValuesUnderTheirArcs(t *testing.T) {
	arcs := []graph.Arc{{To: 9, W: 1}, {To: 4, W: 1}, {To: 2, W: 1}, {To: 4, W: 1}, {To: 9, W: 1}, {To: 2, W: 1}, {To: 4, W: 1}}
	peers := []graph.NodeID{2, 9} // 4 is the node itself: three self-loops
	var es ElimState
	es.Start(4, arcs, peers, nil)
	moved, _ := es.Advance([]dist.Message{{From: 2, F0: 8}, {From: 2, F0: 3}, {From: 9, F0: 5}}, quantize.Reals{}, false)
	// Values {3, 3, 5, 5, ∞, ∞, ∞} with unit weights: Σ_{b_i ≥ 5} w_i = 5.
	if !moved || es.B() != 5 {
		t.Fatalf("b = %v (moved %v), want 5", es.B(), moved)
	}
	want := []float64{5, 5, 3, 5, 5, 3, 5} // the self-loops read b back
	if !reflect.DeepEqual(es.upd.vals, want) || es.dirty != 3 {
		t.Fatalf("arc values %v with %d dirty, want %v with the 3 self-loops dirty", es.upd.vals, es.dirty, want)
	}
}

// refStep is Algorithm 3 as Updater.Step ran it before steps re-placed only
// the changed arcs: stable-sort the whole carried-over order by the current
// values, then scan from the top. It returns the value and the position in
// order the auxiliary set starts at.
func refStep(arcs []graph.Arc, order []int, vals []float64) (b float64, aux int) {
	sort.SliceStable(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
	s := 0.0
	for i := len(order) - 1; i >= 0; i-- {
		s += arcs[order[i]].W
		prev := math.Inf(-1)
		if i > 0 {
			prev = vals[order[i-1]]
		}
		if s > prev {
			if bi := vals[order[i]]; s > bi {
				return bi, i + 1
			}
			return s, i
		}
	}
	return 0, 0
}

// TestSortOrderMatchesSortStable holds Updater.step — the values kept across
// steps, k of them overwritten, the order re-sorted by whichever branch of
// sortOrder k and d select — to refStep on random arcs with ties, self-loops
// and parallel arcs, at degrees on both sides of the insertion-sort cut-off
// and change counts on both sides of the share: same permutation, value and
// auxiliary set, step after step.
func TestSortOrderMatchesSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{0, 1, 2, 7, insertionSortMax - 1, insertionSortMax, insertionSortMax + 1, 200} {
		arcs := make([]graph.Arc, d)
		for i := range arcs {
			arcs[i] = graph.Arc{To: rng.Intn(d/2 + 1), W: float64(1 + rng.Intn(3))} // parallel arcs: ties in the initial order too
		}
		u := NewUpdater(arcs)
		ref := make([]int, d)
		for i := range ref {
			ref[i] = i
		}
		sort.SliceStable(ref, func(a, b int) bool { return arcs[ref[a]].To < arcs[ref[b]].To })
		if !reflect.DeepEqual(u.order, ref) {
			t.Fatalf("d=%d: initial order %v, want (neighbor, arc index) order %v", d, u.order, ref)
		}
		for i := range u.vals {
			u.vals[i] = math.Inf(1)
		}
		for round := 0; round < 60 && d > 0; round++ {
			k := []int{1, 3, d}[round%3]
			for ; k > 0; k-- {
				i := rng.Intn(d)
				u.vals[i] = float64(rng.Intn(6)) // few distinct values, rising as well as falling
				if rng.Intn(8) == 0 {
					u.vals[i] = math.Inf(1)
				}
			}
			wantB, wantAux := refStep(arcs, ref, u.vals)
			b, aux := u.step([]int{1, 3, d}[round%3])
			if !reflect.DeepEqual(u.order, ref) {
				t.Fatalf("d=%d round %d: order %v, full stable sort %v", d, round, u.order, ref)
			}
			if b != wantB || !reflect.DeepEqual(aux, ref[wantAux:]) {
				t.Fatalf("d=%d round %d: b %v aux %v, want %v %v", d, round, b, aux, wantB, ref[wantAux:])
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
		_, f, _, _ := sl.Carve(0, n, 0, 0)
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

// hookLog wraps a node's elimination program and records, per Round call, the
// round and the inbox it was handed. With awake set it also withdraws whatever
// sleep request the program made, so the runtime hands it every round — the
// program as it ran before it could sleep.
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

// TestSleepingChangesNoExecution is the program's half of the sleep contract:
// a hook the runtime skipped would have done nothing. The same programs, kept
// awake, produce the same values, auxiliary sets and Metrics; every hook both
// runs make sees the same inbox; and every hook only the wakeful run makes has
// an empty one.
func TestSleepingChangesNoExecution(t *testing.T) {
	for name, g := range testGraphs(7) {
		for _, eng := range []dist.Engine{dist.SeqEngine{}, dist.ParEngine{W: 3}} {
			const T = 9
			run := func(awake bool) (*DistResult, dist.Metrics, [][]hookCall) {
				sink := &DistResult{B: make([]float64, g.N()), AuxEdges: make([][]int, g.N())}
				er := &eliminationRun{T: T, lam: quantize.Reals{}, trackAux: true, sink: sink}
				calls := make([][]hookCall, g.N())
				met := eng.Run(g, func(v graph.NodeID) dist.Program {
					return hookLog{er.program(v), awake, &calls[v]}
				}, T)
				return sink, met, calls
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
