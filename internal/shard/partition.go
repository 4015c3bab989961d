package shard

import (
	"math"

	"distkcore/internal/graph"
)

// Partitioner assigns every node of a graph to one of p shards.
// Implementations must be deterministic functions of their arguments: the
// engine's byte-identity guarantee covers the partition too, and under
// churn the coordinator and every worker run Rebalance independently and
// must land on the same moves (pinned by PartitionDigest in every epoch's
// stamp).
type Partitioner interface {
	// Partition returns one shard index in [0, p) per node.
	Partition(g *graph.Graph, p int) []int
	// Rebalance re-places the change frontier (the distinct endpoints of the
	// delta's ops, ascending — shard.Frontier) on the mutated topology g,
	// given the pre-churn assignment assign. It returns the nodes that change
	// shard as moves ascending by node, appended to moves[:0], at most
	// moveBudget of them (moveBudget ≤ 0 means the whole frontier may move).
	// assign is unchanged on return: an implementation may write a move into
	// it while it decides the rest, but must restore it before returning, so
	// an epoch allocates what its delta moved, not a copy of the assignment
	// (ApplyMoves carries the moves over). Locality-aware partitioners
	// re-place only frontier nodes — the placement twin of
	// internal/dynamic's repair frontier; placement that is a pure function
	// of the node ID (Hash, Range) never moves anything.
	Rebalance(g Topology, p int, assign []int, frontier []graph.NodeID, moveBudget int, moves []Move) []Move
	// Name identifies the partitioner in experiment tables and CLI flags.
	Name() string
}

// Move is one node changing shard in a rebalance.
type Move struct {
	Node     graph.NodeID
	From, To int
}

// ApplyMoves writes each move's destination into assign.
func ApplyMoves(assign []int, moves []Move) {
	for _, mv := range moves {
		assign[mv.Node] = mv.To
	}
}

// Topology is what incremental placement reads of a graph: the node count
// and each node's arcs by index (a self-loop is one arc to the node itself).
// *graph.Graph satisfies it — the from-scratch reference passes a rebuilt
// CSR — and so does the adjacency a session party mutates in place
// (dynamic.Adjacency), which is why an epoch's rebalance needs no rebuild.
type Topology interface {
	N() int
	Degree(v graph.NodeID) int
	Neighbor(v graph.NodeID, i int) graph.NodeID
}

// PartitionDigest folds a shard assignment into a deterministic 64-bit
// digest (word-granular FNV-1a over the length and the entries). The
// real-socket cluster transport pins it in its handshake so a coordinator
// and its workers cannot silently disagree on node placement — a partition
// mismatch would corrupt the execution undetectably otherwise.
func PartitionDigest(assign []int) uint64 {
	const prime = 1099511628211
	h := uint64(1469598103934665603)
	h = (h ^ uint64(len(assign))) * prime
	for _, s := range assign {
		h = (h ^ uint64(s)) * prime
	}
	return h
}

// CutFraction returns the fraction of non-loop edges of g whose endpoints
// fall in different shards under assign — the EdgeCutFraction entry of
// ShardMetrics, shared by the in-process sharded engine and the socket
// transport's cluster ledger.
func CutFraction(g *graph.Graph, assign []int) float64 {
	cut, tot := 0, 0
	for _, ed := range g.Edges() {
		if ed.IsLoop() {
			continue
		}
		tot++
		if assign[ed.U] != assign[ed.V] {
			cut++
		}
	}
	if tot == 0 {
		return 0
	}
	return float64(cut) / float64(tot)
}

// Hash spreads nodes by an integer hash of their ID — the
// locality-oblivious baseline every distributed store defaults to. Its
// expected edge-cut fraction is 1−1/p regardless of graph structure.
type Hash struct{}

// Name implements Partitioner.
func (Hash) Name() string { return "hash" }

// Partition implements Partitioner.
func (Hash) Partition(g *graph.Graph, p int) []int {
	assign := make([]int, g.N())
	for v := range assign {
		assign[v] = int(graph.Mix64(uint64(v)) % uint64(p))
	}
	return assign
}

// Rebalance implements Partitioner. Hash placement is a pure function of
// the node ID, so churn never moves a node.
func (Hash) Rebalance(_ Topology, _ int, _ []int, _ []graph.NodeID, _ int, moves []Move) []Move {
	return moves[:0]
}

// Range assigns contiguous ID blocks of ~n/p nodes per shard. It wins when
// node IDs carry locality (grids, paths, generators that number neighbors
// consecutively) and degenerates to Hash-like cuts when they do not.
type Range struct{}

// Name implements Partitioner.
func (Range) Name() string { return "range" }

// Partition implements Partitioner.
func (Range) Partition(g *graph.Graph, p int) []int {
	n := g.N()
	assign := make([]int, n)
	for v := 0; v < n; v++ {
		assign[v] = v * p / n
	}
	return assign
}

// Rebalance implements Partitioner. Range placement is a pure function of
// the node ID, so churn never moves a node.
func (Range) Rebalance(_ Topology, _ int, _ []int, _ []graph.NodeID, _ int, moves []Move) []Move {
	return moves[:0]
}

// Greedy is the streaming LDG partitioner (Stanton–Kliot): nodes arrive in
// ID order and each is placed on the shard holding the most of its
// already-placed neighbors, damped by a capacity penalty so shards stay
// balanced. One pass, O(m) time, and on skewed (power-law) graphs it cuts
// far fewer edges than Hash — E18 quantifies by how much.
type Greedy struct {
	// Slack scales the per-shard capacity above the perfectly balanced
	// n/p. 0 means the default 1.1; values below 1 are clamped to 1.
	Slack float64
}

// Name implements Partitioner.
func (Greedy) Name() string { return "greedy" }

// Partition implements Partitioner.
func (gr Greedy) Partition(g *graph.Graph, p int) []int {
	n := g.N()
	capacity := gr.capacity(n, p)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	load := make([]int, p)
	placed := make([]int, p) // already-placed neighbors per shard, reused
	for v := 0; v < n; v++ {
		for i := range placed {
			placed[i] = 0
		}
		for _, a := range g.Adj(v) {
			if a.To != v && assign[a.To] >= 0 {
				placed[assign[a.To]]++
			}
		}
		best, bestScore := -1, math.Inf(-1)
		for s := 0; s < p; s++ {
			if load[s] >= capacity {
				continue
			}
			score := float64(placed[s]) * (1 - float64(load[s])/float64(capacity))
			// ties go to the lighter shard, then the lower index — this is
			// what round-robins neighborless nodes instead of piling them
			// on shard 0
			if score > bestScore || (score == bestScore && load[s] < load[best]) {
				best, bestScore = s, score
			}
		}
		if best < 0 {
			// every shard at capacity (ceil rounding) — take the lightest
			best = 0
			for s := 1; s < p; s++ {
				if load[s] < load[best] {
					best = s
				}
			}
		}
		assign[v] = best
		load[best]++
	}
	return assign
}

// Rebalance implements Partitioner: the incremental LDG pass. Only
// frontier nodes are reconsidered, in ascending ID order, and a node moves
// only to a shard that co-locates *strictly more* of its neighbors than
// where it sits (capacity-feasible; ties broken toward the lighter then
// lower-index shard, and never away from the current one) — so every move
// removes at least one cut edge at decision time, and a quiet frontier
// costs nothing. Moves stop when moveBudget is spent. Everything off the
// frontier stays put: the locality that makes β_t(v) a function of v's
// t-hop ball is the same locality that makes a placement change worthwhile
// only where the topology changed.
//
// Unlike Partition's streaming score, the rebalance does not damp affinity
// by load: at churn time every neighbor is already placed, so raw
// co-location counts are exact, and the capacity bound alone keeps shards
// balanced.
//
// A decided move is written into assign at once — later frontier nodes count
// their neighbors where the earlier moves put them — and undone before
// returning, so the pass holds nothing larger than its p-sized counters.
func (gr Greedy) Rebalance(g Topology, p int, assign []int, frontier []graph.NodeID, moveBudget int, moves []Move) []Move {
	moves = moves[:0]
	if len(frontier) == 0 {
		return moves
	}
	if moveBudget <= 0 {
		moveBudget = len(frontier)
	}
	capacity := gr.capacity(g.N(), p)
	load := make([]int, p)
	for _, s := range assign {
		load[s]++
	}
	placed := make([]int, p)
	for _, v := range frontier {
		if len(moves) >= moveBudget {
			break
		}
		for i := range placed {
			placed[i] = 0
		}
		for i, d := 0, g.Degree(v); i < d; i++ {
			if to := g.Neighbor(v, i); to != v {
				placed[assign[to]]++
			}
		}
		cur := assign[v]
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
			assign[v] = best
			load[cur]--
			load[best]++
			moves = append(moves, Move{Node: v, From: cur, To: best})
		}
	}
	for i := len(moves) - 1; i >= 0; i-- { // in reverse: a node listed twice ends where it began
		assign[moves[i].Node] = moves[i].From
	}
	return moves
}

// capacity is the per-shard node cap both the streaming pass and the
// incremental rebalance enforce. One definition on purpose: the
// coordinator and every worker rerun Rebalance independently, so the two
// sites desynchronizing on slack handling would fork the partition digest.
func (gr Greedy) capacity(n, p int) int {
	slack := gr.Slack
	if slack == 0 {
		slack = 1.1
	}
	if slack < 1 {
		slack = 1
	}
	capacity := int(math.Ceil(slack * float64(n) / float64(p)))
	if capacity < 1 {
		capacity = 1
	}
	return capacity
}
