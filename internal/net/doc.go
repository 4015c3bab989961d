// Package net implements the real-socket cluster transport: a fourth
// dist.Engine that runs a protocol as a coordinator plus P workers
// connected by real network connections (net.Pipe for in-process runs,
// unix-domain or TCP sockets for separate processes via cmd/cluster), with
// each worker owning one shard of the graph and all cross-shard traffic
// moving as the batched per-round frames of internal/shard — now actually
// written to a wire inside a length-prefixed record framing
// (internal/codec, DESIGN.md §8 is the normative protocol spec).
//
// The execution stays byte-identical to dist.SeqEngine — same results,
// same inbox ordering, same Metrics — by construction:
//
//   - Every worker is handed the full (immutable) graph but builds run
//     state for its shard alone: a dist.Driver over the nodes it owns, which
//     it steps, and the nodes those can hear, whose sends it is told
//     (dist.NewSubsetDriver; DESIGN.md §7). The handshake pins the inputs
//     (graph.Fingerprint, shard.PartitionDigest, the threshold set Λ, the
//     round budget) so no two processes can silently disagree.
//   - After the round's local Steps, the worker taps what its nodes sent
//     (dist.Driver.Slot and Queued: a node's leading Broadcast once, then
//     its queued sends) and frames the cross-shard part, one frame per
//     destination shard; its Driver prices its shard's share of the protocol
//     Metrics — what its own nodes sent, a broadcast once × its fan-out —
//     when it delivers. The frames are
//     shard.Fanout.Emit over shard.AppendMessage (the lossless entry
//     codec, byte-for-byte the sharded engine's format): a leading
//     Broadcast as ONE broadcast entry per destination shard that holds a
//     peer of the sender, everything else as one unicast entry per
//     recipient.
//   - The cross-shard messages reach their destination workers on one of
//     two frame planes (DESIGN.md §8.4): relayed — one frame per shard pair
//     sent to the coordinator, parked there until every worker is done, then
//     forwarded, the round closing at the coordinator's barrier (relay.go) —
//     or, with Stream, streamed — chunked straight onto a worker↔worker mesh,
//     the round closed by the peers' end markers, while the coordinator
//     verifies behind the workers the digest matrix of flows it never sees
//     (stream.go, mesh.go). Either way a worker validates each entry against the
//     partition and its Driver's own view of the graph (a broadcast entry
//     names no recipients — they are the sender's peers among the worker's
//     nodes, which the Driver knows; a sender with none is refused) and
//     writes it, as it is decoded, where the remote sender's own hook
//     put the original (dist.Driver.Inject: a broadcast entry into the
//     sender's slot, a unicast entry onto its queue) — so the local
//     delivery assembles every inbox in the package-wide deterministic
//     order (ascending sender ID, ties in send order) exactly as SeqEngine
//     would, and by the same path: a round of leading broadcasts moves
//     nothing on a worker either (DESIGN.md §7).
//   - Metrics are sums over messages, hence order-independent: the
//     coordinator adds up the workers' shares and necessarily lands on
//     SeqEngine's numbers. Rounds and Halted come from SeqEngine's round
//     loop, condition for condition: run by the coordinator on the relay
//     plane, by every streamed worker for itself — from the alive counts on
//     its peers' end markers — with the coordinator following.
//
// Cluster is the one in-process bring-up: dial (net.Pipe, or real localhost
// sockets with Transport "unix"/"tcp"), deadlines, hub, one goroutine per
// worker running the caller's Body on a Seat — its errors and panics turned
// into error records — the pipe respawn with its mesh generation, the mesh
// broker of a streamed cluster, the teardown. Engine is "Start, Run, Close"
// over it with Worker.run as the body, and accepts any dist.Factory; a
// session (internal/session) is the same launcher with a body that goes on
// into the epoch loop and a hub that stays open. RunCoordinator and Worker
// are the two protocol endpoints cmd/cluster wires to separate processes;
// there the factory cannot cross the process boundary, so the handshake
// carries generator/partitioner/protocol spec strings each worker resolves
// locally. Hub is the
// coordinator's side of the connections and owns the receive/respawn
// discipline every exchange on top uses — Collect (an owed set, the one
// place a timeout is blamed on a worker), AwaitFrom (one worker's reply,
// everyone else's records stashed in order), Respawn (generations, the
// per-worker cap) — for Run here and for internal/session's epochs alike.
//
// With Spec.Recover a worker death is survived instead of failing the run
// (DESIGN.md §13): a worker's state is a function of the flows it has
// received, which the frame plane retains for the whole run, and one restart
// — respawn, repeat the handshake, run the run again from Init on the retained
// flows — puts the new incarnation in exactly the dead one's state. Any failure that does end a run is
// a *RunError naming the round, the worker and the phase it stood in.
//
// What the cluster adds on top of dist.Metrics is the same placement
// ledger the sharded engine reports: a shard.ShardMetrics with the frame
// traffic that actually crossed worker boundaries (Engine.ClusterMetrics).
//
// A run is a pure function of (graph, assignment): a cluster takes an edge
// delta only as a session epoch (internal/session, DESIGN.md §9–10), which
// keeps the workers of a finished run hot instead of running again.
package net
