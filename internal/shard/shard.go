// Package shard implements the sharded cluster engine: a dist.Engine that
// partitions the graph's n nodes into P shards, runs each shard as one
// long-lived worker goroutine (one goroutine per *shard*, not per node),
// and moves all cross-shard traffic as batched per-round shard→shard
// frames encoded through internal/codec. Intra-shard messages are handed
// over in memory and never touch the wire.
//
// A shard's run state is a Local — the same one each internal/net worker
// holds: a dist.Driver over the shard's nodes and the nodes they hear, which
// steps its own nodes, frames what they sent (Fanout.Emit) and injects what
// the other shards' frames decode to as those senders' own sends. Drivers
// over a partition of the nodes, each fed the others' sends, run the
// execution one Driver over the graph would (dist.NewSubsetDriver), so the
// engine is byte-identical to dist.SeqEngine — same inbox ordering, same
// results, same Metrics — as long as the frame codec is lossless (see
// frame.go), and the frames carried over a real wire (internal/net) are the
// same frames. What sharding adds is the *placement* ledger: ShardMetrics
// reports how much of the protocol's traffic actually crossed machine
// boundaries, and how evenly.
//
// Partitioners decide placement: Hash (locality-oblivious baseline), Range
// (contiguous ID blocks) and Greedy (streaming LDG edge-cut minimization).
// Experiment E18 sweeps P × partitioner × workload.
package shard

// ShardMetrics reports the cluster-level cost of one sharded run — the
// numbers dist.Metrics cannot see because they depend on where nodes live,
// not on what the protocol says.
type ShardMetrics struct {
	// P is the shard count of the run.
	P int
	// CrossMessages counts frame entries — what the codec and the wire
	// handle, the sum of the frame headers' Count: a node's leading
	// Broadcast is one entry per foreign shard holding a peer of it, every
	// other cross-shard send one entry per recipient (frame.go).
	CrossMessages int64
	// CrossFrameBytes is the total wire volume of all frames, headers
	// included. Intra-shard messages contribute nothing.
	CrossFrameBytes int64
	// PerShardBytes[s] is the frame bytes shard s sent over the run.
	PerShardBytes []int64
	// MaxShardBytes is max over PerShardBytes — the bandwidth hotspot a
	// deployment has to provision for.
	MaxShardBytes int64
	// EdgeCutFraction is the fraction of non-loop edges whose endpoints
	// fall in different shards under the run's partition.
	EdgeCutFraction float64
}
