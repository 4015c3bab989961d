// Package session is the fifth execution surface: a long-lived cluster
// that keeps P workers hot and re-converges incrementally as
// churn streams in, instead of paying a full cold start per update
// (DESIGN.md §10).
//
// A session opens on its oracles. It is brought up by the same net.Cluster
// launcher the net engine uses, but runs no protocol run: every worker gets
// its hello (net.Hub.Hello — the record a `cluster worker` process resolves
// its inputs from, protocol "session:T"), builds a dynamic.Maintainer on the
// graph — whose β_T is the elimination's bit for bit under the exact-sum
// contract below — and answers with epoch 0's reconverge, its own shard's
// values as changes from +∞. The coordinator folds and seals them as it
// seals every later epoch, and from then on an epoch is one exchange:
//
//	DeltaPush    coordinator → workers    one dist.GraphDelta batch, epoch e
//	Reconverge   worker → coordinator     the codec.Stamp the worker arrived
//	                                      at, then its own-shard changed values
//	Bye          either direction         clean goodbye
//
// (ValuesDigest, the stamp on its own, is a respawned worker's admission at
// the last sealed epoch, echoed back.)
//
// Each epoch the coordinator writes the batch to every worker at once
// (net.Hub.Broadcast), and every worker hands it to its Maintainer — which
// mutates its adjacency in place under the canonical order (the worker's only
// copy of the graph; no CSR is rebuilt) and repairs its history (frontier
// repair, not a re-run) — reruns the coordinator's incremental Rebalance on
// that adjacency, applies the moves it returns to the assignment buffers it holds
// (no party copies an n-sized array per epoch), and ships only the values of
// its own post-rebalance shard that actually changed, as the repair reported
// them, behind the stamp it arrived at: the post-churn graph's rolling
// edge-multiset hash, the rebalanced partition digest, the digest of its full
// value vector, a running chain digest that binds every earlier epoch, and
// its repair's moved count. It commits as it sends. The coordinator, which
// validated the batch against its own bare adjacency before mutating or
// broadcasting anything, folds the changes into its value vector, computes
// the same stamp itself and seals the epoch only when all P workers' equal it
// — P redundant oracles cross-checking one another and the coordinator bit
// for bit — so an N-epoch session is byte-identical to N fresh sequential
// runs on the cumulatively mutated graph, and any divergence kills the
// session at the epoch that introduced it.
//
// Sessions run the exact threshold set Λ = ℝ only: the Maintainer repairs
// exact β_t histories and bit-equality with fresh runs additionally needs
// exactly summable weights — one predicate (dynamic.Summable: a multiple of
// 2⁻¹⁰ no larger than 2²⁰) the coordinator holds the base graph and every
// pushed insert to.
//
// On top of the epoch stream sits a subscription layer in the want-list /
// ledger shape of go-ipfs's IPPS exchange proposal (SNIPPETS.md): clients
// Subscribe to topics — "coreness:v" (β_T(v) changed), "topk:k" (the set of
// k highest-value nodes changed), "threshold:x" (nodes crossed x) — and
// after each sealed epoch the SubManager evaluates every distinct wanted
// topic once and emits notifications in deterministic order (ascending
// subscriber ID, canonical topic order within each want-list), updating a
// per-subscriber Ledger. A topic fires at most once per epoch per
// subscriber, and only when its answer changed.
package session
