package shard

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
)

// referenceGreedyRebalance is the copying incremental LDG pass Greedy.Rebalance
// replaced: it decides on a private copy of the assignment and returns the
// whole array. Kept as the differential oracle for the in-place pass that
// returns moves; keep it independent of the code under test.
func referenceGreedyRebalance(gr Greedy, g Topology, p int, assign []int, frontier []graph.NodeID, moveBudget int) []int {
	if len(frontier) == 0 {
		return assign
	}
	if moveBudget <= 0 {
		moveBudget = len(frontier)
	}
	capacity := gr.capacity(g.N(), p)
	next := append([]int(nil), assign...)
	load := make([]int, p)
	for _, s := range next {
		load[s]++
	}
	placed := make([]int, p)
	moved := 0
	for _, v := range frontier {
		if moved >= moveBudget {
			break
		}
		for i := range placed {
			placed[i] = 0
		}
		for i, d := 0, g.Degree(v); i < d; i++ {
			if to := g.Neighbor(v, i); to != v {
				placed[next[to]]++
			}
		}
		cur := next[v]
		best := cur
		for s := 0; s < p; s++ {
			if s == cur || load[s] >= capacity {
				continue
			}
			if placed[s] > placed[best] ||
				(placed[s] == placed[best] && best != cur &&
					(load[s] < load[best] || (load[s] == load[best] && s < best))) {
				best = s
			}
		}
		if best != cur && placed[best] > placed[cur] {
			next[v] = best
			load[cur]--
			load[best]++
			moved++
		}
	}
	return next
}

// referenceFrontier is the map-based Frontier the sort-and-compact one
// replaced.
func referenceFrontier(d dist.GraphDelta) []graph.NodeID {
	seen := make(map[graph.NodeID]bool, 2*len(d.Ops))
	out := make([]graph.NodeID, 0, 2*len(d.Ops))
	for _, op := range d.Ops {
		for _, v := range [2]graph.NodeID{op.U, op.V} {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Ints(out)
	return out
}

// The rebalance that returns moves and the sort-and-compact frontier are held
// to the copying pass and the map they replaced: over graphs × P × budgets ×
// churn batches with self-loops and repeated endpoints, the moves applied to
// a copy of the assignment give the reference's array, they come ascending
// by node with the right origins and within budget, the input assignment is
// bit-identical afterwards, and ID-pure placement returns none.
func TestRebalanceMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ba":      graph.BarabasiAlbert(300, 3, 5),
		"caveman": graph.Caveman(12, 8),
	}
	var moves []Move // reused across calls: a stale buffer must not leak moves
	greedyMoves := 0
	for name, g := range graphs {
		for seed := int64(1); seed <= 3; seed++ {
			delta := dist.RandomChurn(g, 60, seed)
			// Self-loops and endpoints the batch repeats, on top of whatever
			// the random batch drew.
			a, b := graph.NodeID(seed), graph.NodeID(g.N()-1-int(seed))
			delta.Ops = append(delta.Ops,
				dist.EdgeOp{U: a, V: a, W: 1}, dist.EdgeOp{U: a, V: b, W: 1},
				dist.EdgeOp{U: b, V: a, W: 0.5}, dist.EdgeOp{U: b, V: b, W: 2})
			g2, err := delta.Apply(g)
			if err != nil {
				t.Fatal(err)
			}
			frontier := Frontier(delta)
			if ref := referenceFrontier(delta); !reflect.DeepEqual(frontier, ref) {
				t.Fatalf("%s seed %d: frontier %v, reference %v", name, seed, frontier, ref)
			}
			for _, p := range []int{2, 3, 4, 7} {
				for _, budget := range []int{1, 3, 0} {
					for _, part := range []Partitioner{Hash{}, Range{}, Greedy{}, Greedy{Slack: 1}} {
						tag := fmt.Sprintf("%s seed %d P=%d budget %d %s", name, seed, p, budget, part.Name())
						assign := part.Partition(g, p)
						before := append([]int(nil), assign...)
						moves = append(moves[:0], Move{Node: -1, From: -1, To: -1})
						moves = part.Rebalance(g2, p, assign, frontier, budget, moves)
						if !reflect.DeepEqual(assign, before) {
							t.Fatalf("%s: Rebalance left the input assignment changed", tag)
						}
						want := before
						if gr, ok := part.(Greedy); ok {
							want = referenceGreedyRebalance(gr, g2, p, before, frontier, budget)
							greedyMoves += len(moves)
						} else if len(moves) != 0 {
							t.Fatalf("%s: ID-pure placement returned %d moves", tag, len(moves))
						}
						got := append([]int(nil), assign...)
						ApplyMoves(got, moves)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: moves applied to the assignment differ from the reference", tag)
						}
						limit := budget
						if limit <= 0 {
							limit = len(frontier)
						}
						if len(moves) > limit {
							t.Fatalf("%s: %d moves over budget %d", tag, len(moves), limit)
						}
						for i, mv := range moves {
							if i > 0 && mv.Node <= moves[i-1].Node {
								t.Fatalf("%s: moves not strictly ascending: %v", tag, moves)
							}
							if mv.From != assign[mv.Node] || mv.To == mv.From {
								t.Fatalf("%s: move %+v, node sits on shard %d", tag, mv, assign[mv.Node])
							}
						}
					}
				}
			}
		}
	}
	if greedyMoves == 0 {
		t.Fatal("greedy moved nothing; the move checks went unexercised")
	}
}
