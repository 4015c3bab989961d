// Package session is the fifth execution surface: a long-lived cluster
// that keeps P workers hot across runs and re-converges incrementally as
// churn streams in, instead of paying a full cold start per update
// (DESIGN.md §10).
//
// A session is a run whose hub stays open. It begins as an ordinary
// coordinated run over internal/net — brought up by the same net.Cluster
// launcher the net engine uses, the handshake pinning the graph fingerprint
// and the partition digest exactly as before — but the worker body
// (ServeWorker, the one worker life in-process goroutines and `cluster
// worker -session` processes both lead) does not hang up when the run
// finishes. The coordinator seals the run as epoch 0
// with a values-digest stamp, every worker verifies it against the
// incremental oracle it just built (a dynamic.Maintainer seeded from the
// run's graph), and from then on the session speaks the epoch protocol:
//
//	DeltaPush    coordinator → workers    one dist.GraphDelta batch, epoch e
//	Reconverge   worker → coordinator     own-shard changed values after repair
//	ValuesDigest both directions          codec.Stamp sealing epoch e (+ echo)
//	Bye          either direction         clean goodbye
//
// Each epoch every worker hands the batch to its Maintainer — which mutates
// its adjacency in place under the canonical order (the worker's only copy of
// the graph; no CSR is rebuilt) and repairs its history (frontier repair, not
// a re-run) — reruns the coordinator's incremental Rebalance on that
// adjacency, and ships only the values of its own post-rebalance shard that
// actually changed, as the repair reported them. The coordinator, which
// validated the batch against its own bare adjacency before mutating or
// broadcasting anything, folds those into its value vector and seals the
// epoch with a stamp carrying the post-churn graph's rolling edge-multiset
// hash, the rebalanced partition digest, the digest of the full value vector
// and a running chain digest that binds every earlier epoch. Workers verify
// all four against local state — P redundant oracles cross-checking one
// another and the coordinator bit for bit — so an N-epoch session is
// byte-identical to N fresh sequential runs on the cumulatively mutated
// graph, and any divergence kills the session at the epoch that introduced
// it.
//
// Sessions run the exact threshold set Λ = ℝ only: the Maintainer repairs
// exact β_t histories and bit-equality with fresh runs additionally needs
// exactly summable weights — one predicate (summable: a multiple of 2⁻¹⁰ no
// larger than 2²⁰) the coordinator holds the base graph and every pushed
// insert to, with the workers' oracle-versus-run comparison at open
// (NewWorkerState) as the cross-check.
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
