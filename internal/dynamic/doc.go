// Package dynamic maintains the surviving numbers β_T(v) of the compact
// elimination procedure under edge insertions and deletions, in the spirit
// of the distributed k-core maintenance of Aridhi et al. (DEBS'16), which
// the paper cites as the dynamic-graph extension of Montresor et al.
//
// The key observation is the locality that powers Theorem I.1 itself:
// β_t(v) is a function of v's t-hop neighborhood only, so an edge change
// can alter β_t only at nodes within t hops of its endpoints. The
// Maintainer stores the full per-round history H[t][v] and, on an update,
// re-evaluates round t only at the *change frontier* — the nodes some change
// can reach. Algorithm 3's update is a threshold function of the values a
// node's arcs read, and every arc makes at most one move: a surviving arc when
// its far end moved in round t-1, an inserted arc from −∞ to its far end's
// value, a deleted arc from its far end's old value to −∞. A node z is
// evaluated only if some move crosses its stored r = β_t(z) — new < r ≤ old
// going down, old ≤ r < new going up; landing on r is not reaching it — the
// pruning every h-index-style core maintenance uses (proof at repair and in
// DESIGN.md §9). The op's own endpoints obey the same rule, so they are
// evaluated in round 1 and afterwards only while the op can reach them, and
// the frontier usually dies out long before the T-hop ball's boundary. The
// Maintainer also keeps, per node-round, two masses at the stored value: S,
// the weight of the arcs reading at or above it, and G, of those reading
// strictly above it, exact at the ops and moves the repair already walks. A
// candidate is settled from them with no pass over its arcs (settle): it
// falls when S is below its value, gathering the arcs below it; stands when
// G ≤ value ≤ S, reading none; and rises when G is above it, gathering the
// arcs above it. The masses stay exact because every weight held is Summable:
// New panics on any other base weight, and Validate and ApplyDelta refuse such
// an insert. New is the same repair seeded with every node: round 1 stored at
// +∞, where S is the weighted degree and G is 0, and each later round stored
// at the one before and repaired by its moves, so every value the package
// computes is settled from the kept masses. The unit of repair is the batch,
// not the op: ApplyDelta mutates the adjacency for every op of a
// dist.GraphDelta first and then runs one T-round repair for all of them, so
// each (t, v) is evaluated at most once per batch, against final round-(t-1)
// values, and H[t] is exactly the from-scratch β_t of the mutated graph.
// InsertEdge and DeleteEdge are batches of one. The frontier lives in generation-stamped
// marks and reused slices; a steady-state repair allocates nothing, and
// Moved reports the batch's change set — the nodes whose β_T moved, with
// their old values — straight from the last round.
//
// The graph under the history is an Adjacency: per-node arc lists mutated in
// place under the canonical order of dist.GraphDelta.Apply, the rolling
// graph.EdgeSetHash of the edge multiset they hold, and Validate, which
// answers whether a batch would apply without touching anything. A session
// worker's Maintainer is its only copy of the graph; the session coordinator
// holds a bare Adjacency (DESIGN.md §10.2).
// Experiment E14 measures the bill (re-evals per update, and how many of them
// found their stored value still feasible, versus the n·T full recompute);
// DensestValue additionally keeps max_v β_T(v), the evolving-graphs
// densest-subgraph functionality of the Epasto et al. / Hu et al. lines the
// paper cites, for one slice scan per repair.
//
// The package is also the churn oracle of the cluster protocol
// (DESIGN.md §9): Maintainer.ApplyDelta absorbs the same dist.GraphDelta
// batches the execution engines absorb by mutate-and-rerun, and experiment
// E19 pins the two against each other — the maintainer must land on the
// same β values as a from-scratch run on the mutated graph while touching
// only the frontier. That equality is exact to the bit under the contract
// sessions open on: Λ = ℝ and exactly summable weights (Summable), so that
// float sums do not depend on order.
//
// Everything here is centralized, single-threaded and deterministic; the
// distributed twin of an update is the engines' churn path, not this
// package.
package dynamic
