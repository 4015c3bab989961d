// Package densest implements the distributed (weak) densest subset
// algorithm of Section IV (Theorem I.3): a collection of disjoint subsets,
// each with a leader every member knows, such that at least one subset is a
// γ-approximate densest subset, computed in O(log_{1+ε} n) rounds
// independent of the diameter.
//
// The four phases follow the paper:
//
//	Phase 1  Algorithm 2 for T rounds → surviving numbers b_v.
//	Phase 2  Algorithm 4: leader election within T hops under the total
//	         order (b_v, v), building a depth-≤T BFS tree per leader.
//	Phase 3  Algorithm 5: the single-threshold elimination run inside each
//	         tree with the leader's threshold, recording per-round survival
//	         (num_v) and degree (deg_v) arrays.
//	Phase 4  Algorithm 6: aggregation of the arrays up each tree; the root
//	         picks the densest recorded prefix t* and floods it down.
//
// Interpretation notes (see DESIGN.md §2): phase-3 degrees count edges
// whose endpoints carry the same leader, which is what makes Lemma IV.4
// hold for the globally maximal leader; and the acceptance test of
// Algorithm 6 line 10 is taken as bmax ≥ b_v/γ (the literal b_v appears to
// be a typo — it would reject even the certified subset; both variants are
// available).
package densest

import (
	"sort"

	"distkcore/internal/core"
	"distkcore/internal/graph"
)

// Config parameterizes the weak densest-subset algorithm.
type Config struct {
	// Gamma is the target approximation ratio γ > 2; T = ⌈log n / log(γ/2)⌉.
	Gamma float64
	// Rounds overrides T when > 0 (used by experiments sweeping T).
	Rounds int
	// LiteralAcceptance uses the paper's literal test bmax ≥ b_v instead of
	// bmax ≥ b_v/γ at Algorithm 6 line 10.
	LiteralAcceptance bool
}

// Subset is one member of the returned disjoint collection.
type Subset struct {
	Leader  graph.NodeID
	LeaderB float64 // the leader's surviving number (the threshold used)
	Members []graph.NodeID
	Density float64 // exact density of Members in G
	TStar   int     // the elimination prefix the root selected
}

// Result is the outcome of the weak densest-subset algorithm.
type Result struct {
	// Subsets are the accepted disjoint subsets, sorted by decreasing
	// density, ties by ascending leader.
	Subsets []Subset
	// LeaderOf[v] is the leader v elected (every node elects one; -1 never
	// occurs), regardless of whether that leader's subset was accepted.
	LeaderOf []graph.NodeID
	// InSubset[v] reports σ_v = 1, i.e. v belongs to Subsets[i] for some i.
	InSubset []bool
	// B is the phase-1 surviving numbers.
	B []float64
	// T is the per-phase round parameter.
	T int
	// TotalRounds is the LOCAL-model round count of the whole pipeline:
	// T (phase 1) + T+2 (phase 2) + T (phase 3) + 3T (phase 4, Algorithm 6
	// line 18's termination bound).
	TotalRounds int
}

// Best returns the densest accepted subset, or nil if none was accepted.
func (r *Result) Best() *Subset {
	if len(r.Subsets) == 0 {
		return nil
	}
	return &r.Subsets[0]
}

// sortSubsets puts a collection in Result.Subsets' order: decreasing density,
// ties by ascending leader — a total order, since leaders are distinct, so
// the centralized and the distributed run list the same collection the same
// way and Best names the same subset.
func sortSubsets(subsets []Subset) {
	sort.Slice(subsets, func(i, j int) bool {
		if subsets[i].Density != subsets[j].Density {
			return subsets[i].Density > subsets[j].Density
		}
		return subsets[i].Leader < subsets[j].Leader
	})
}

// Weak runs the four-phase algorithm on g.
func Weak(g *graph.Graph, cfg Config) *Result {
	res, _ := weak(g, cfg, false)
	return res
}

// weakTrail is what a centralized run went through on the way to its Result,
// kept for the tests that read the distributed protocol's message count off
// it: the protocol says what moved, and this is what moved.
type weakTrail struct {
	leaders  [][]graph.NodeID // leaders[t][v]: v's leader after election step t; [0] is the seed. Only when asked for.
	parent   []graph.NodeID   // after the request/confirm exchange: self for a root, -1 detached
	children [][]graph.NodeID // confirmed children
	num      [][]uint8        // phase 3's survival arrays
}

// weak is Weak, and returns the run's weakTrail beside the Result; the
// election's per-step history is recorded only when trail is set.
func weak(g *graph.Graph, cfg Config, trail bool) (*Result, *weakTrail) {
	if cfg.Gamma <= 2 {
		panic("densest: Config.Gamma must exceed 2")
	}
	n := g.N()
	T := cfg.Rounds
	if T <= 0 {
		T = core.TForGamma(n, cfg.Gamma)
	}
	res := &Result{T: T, TotalRounds: T + (T + 2) + T + 3*T}

	// ---- Phase 1: surviving numbers.
	elim := core.Run(g, core.Options{Rounds: T})
	res.B = elim.B
	b := elim.B

	// ---- Phase 2: leader election + BFS trees (Algorithm 4).
	// Total order ≻ on pairs (v, b_v): larger b first, then larger ID.
	leader := make([]graph.NodeID, n)
	parent := make([]graph.NodeID, n)
	depth := make([]int, n)
	for v := 0; v < n; v++ {
		leader[v] = v
		parent[v] = v
	}
	prec := func(u, v graph.NodeID) bool { // leader u ≻ leader v?
		if b[u] != b[v] {
			return b[u] > b[v]
		}
		return u > v
	}
	newLeader := make([]graph.NodeID, n)
	newParent := make([]graph.NodeID, n)
	newDepth := make([]int, n)
	var leaders [][]graph.NodeID
	if trail {
		leaders = append(leaders, append([]graph.NodeID(nil), leader...))
	}
	for t := 1; t <= T; t++ {
		copy(newLeader, leader)
		copy(newParent, parent)
		copy(newDepth, depth)
		for v := 0; v < n; v++ {
			bestU := graph.NodeID(-1)
			for _, a := range g.Adj(v) {
				if a.To == v {
					continue
				}
				if bestU < 0 || prec(leader[a.To], leader[bestU]) {
					bestU = a.To
				}
			}
			if bestU >= 0 && prec(leader[bestU], leader[v]) {
				newLeader[v] = leader[bestU]
				newParent[v] = bestU
				newDepth[v] = depth[bestU] + 1
			}
		}
		leader, newLeader = newLeader, leader
		parent, newParent = newParent, parent
		depth, newDepth = newDepth, depth
		if trail {
			leaders = append(leaders, append([]graph.NodeID(nil), leader...))
		}
	}
	// Request/confirm parent: detach v if its parent ended with a different
	// leader (Algorithm 4 lines 7–9).
	children := make([][]graph.NodeID, n)
	for v := 0; v < n; v++ {
		if parent[v] == v {
			continue
		}
		if leader[parent[v]] == leader[v] {
			children[parent[v]] = append(children[parent[v]], v)
		} else {
			parent[v] = -1 // ⊥
		}
	}

	// ---- Phase 3: elimination inside each tree (Algorithm 5).
	// Edges count toward the threshold test iff both endpoints share a
	// leader; a node's threshold is its leader's surviving number.
	active := make([]bool, n)
	deg := make([]float64, n)
	for v := 0; v < n; v++ {
		active[v] = true
	}
	num := make([][]uint8, n)
	degArr := make([][]float64, n)
	for v := 0; v < n; v++ {
		num[v] = make([]uint8, T)
		degArr[v] = make([]float64, T)
	}
	for v := 0; v < n; v++ {
		deg[v] = sameLeaderDegree(g, v, leader, active)
	}
	for t := 1; t <= T; t++ {
		var dead []graph.NodeID
		for v := 0; v < n; v++ {
			if !active[v] {
				continue
			}
			num[v][t-1] = 1
			degArr[v][t-1] = deg[v]
			if deg[v] < b[leader[v]] {
				dead = append(dead, v)
			}
		}
		for _, v := range dead {
			active[v] = false
		}
		for _, v := range dead {
			for _, a := range g.Adj(v) {
				if a.To != v && active[a.To] && leader[a.To] == leader[v] {
					deg[a.To] -= a.W
				}
			}
		}
	}

	// ---- Phase 4: aggregation and subset selection (Algorithm 6).
	// Process nodes bottom-up by BFS depth.
	order := make([]graph.NodeID, 0, n)
	for v := 0; v < n; v++ {
		if parent[v] != -1 {
			order = append(order, v)
		}
	}
	sort.Slice(order, func(i, j int) bool { return depth[order[i]] > depth[order[j]] })
	aggNum := make([][]float64, n)
	aggDeg := make([][]float64, n)
	for _, v := range order {
		if aggNum[v] == nil {
			aggNum[v], aggDeg[v] = initAgg(num[v], degArr[v], T)
		}
		p := parent[v]
		if p == v || p == -1 {
			continue
		}
		if aggNum[p] == nil {
			aggNum[p], aggDeg[p] = initAgg(num[p], degArr[p], T)
		}
		for t := 0; t < T; t++ {
			aggNum[p][t] += aggNum[v][t]
			aggDeg[p][t] += aggDeg[v][t]
		}
	}

	res.LeaderOf = leader
	res.InSubset = make([]bool, n)
	gamma := cfg.Gamma
	for root := 0; root < n; root++ {
		if parent[root] != root || aggNum[root] == nil {
			continue
		}
		bmax, tstar := -1.0, -1
		for t := 0; t < T; t++ {
			if aggNum[root][t] > 0 {
				if d := aggDeg[root][t] / (2 * aggNum[root][t]); d > bmax {
					bmax, tstar = d, t
				}
			}
		}
		if tstar < 0 {
			continue
		}
		accept := bmax >= b[root]/gamma
		if cfg.LiteralAcceptance {
			accept = bmax >= b[root]
		}
		if !accept {
			continue
		}
		// Flood t* down the tree; members are nodes with num[v][t*] == 1.
		members := collectMembers(root, children, num, tstar)
		mask := make([]bool, n)
		for _, v := range members {
			mask[v] = true
			res.InSubset[v] = true
		}
		w, k := g.SubsetEdgeWeight(mask)
		density := 0.0
		if k > 0 {
			density = w / float64(k)
		}
		res.Subsets = append(res.Subsets, Subset{
			Leader:  root,
			LeaderB: b[root],
			Members: members,
			Density: density,
			TStar:   tstar,
		})
	}
	sortSubsets(res.Subsets)
	return res, &weakTrail{leaders: leaders, parent: parent, children: children, num: num}
}

func sameLeaderDegree(g *graph.Graph, v graph.NodeID, leader []graph.NodeID, active []bool) float64 {
	d := 0.0
	for _, a := range g.Adj(v) {
		if a.To == v {
			if active[v] {
				d += a.W
			}
			continue
		}
		if active[a.To] && leader[a.To] == leader[v] {
			d += a.W
		}
	}
	return d
}

func initAgg(num []uint8, deg []float64, T int) ([]float64, []float64) {
	an := make([]float64, T)
	ad := make([]float64, T)
	for t := 0; t < T; t++ {
		an[t] = float64(num[t])
		ad[t] = deg[t]
	}
	return an, ad
}

func collectMembers(root graph.NodeID, children [][]graph.NodeID, num [][]uint8, tstar int) []graph.NodeID {
	var members []graph.NodeID
	stack := []graph.NodeID{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if num[v][tstar] == 1 {
			members = append(members, v)
		}
		stack = append(stack, children[v]...)
	}
	sort.Ints(members)
	return members
}

// GuaranteeHolds checks the Theorem I.3 claim on a finished run: the best
// accepted subset has density at least ρ*/γ. rhoStar must be the exact
// maximum density of the input graph.
func GuaranteeHolds(r *Result, gamma, rhoStar float64) bool {
	best := r.Best()
	if best == nil {
		return rhoStar == 0
	}
	return best.Density >= rhoStar/gamma-1e-9
}
