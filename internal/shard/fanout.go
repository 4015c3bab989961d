package shard

import (
	"slices"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
)

// Fanout is the per-node foreign-shard table of one run: for every node,
// the shards other than its own that hold at least one of its peers,
// ascending. It is what turns a round's leading Broadcast into one frame
// entry per destination shard instead of one per recipient — the sender
// side walks a node's row (Emit), the receiver side checks a remote
// sender's row before injecting its broadcast entry (Reaches). Built once
// per run from (g, assign) in O(n + m), for any P.
type Fanout struct {
	assign []int
	off    []int32 // n+1 offsets into dst
	dst    []int32 // the rows, back to back
}

// NewFanout builds the table for g placed by assign over p shards.
func NewFanout(g *graph.Graph, assign []int, p int) *Fanout {
	n := g.N()
	f := &Fanout{assign: assign, off: make([]int32, n+1)}
	seen := make([]graph.NodeID, p) // seen[q] == v+1: shard q is already in v's row
	for v := 0; v < n; v++ {
		seen[assign[v]] = v + 1
		row := len(f.dst)
		for _, u := range g.Peers(v) {
			if q := assign[u]; seen[q] != v+1 {
				seen[q] = v + 1
				f.dst = append(f.dst, int32(q))
			}
		}
		slices.Sort(f.dst[row:])
		f.off[v+1] = int32(len(f.dst))
	}
	return f
}

// Of returns the foreign shards holding a peer of v, ascending. The slice
// is shared table state; the caller must not modify it.
func (f *Fanout) Of(v graph.NodeID) []int32 { return f.dst[f.off[v]:f.off[v+1]] }

// Reaches reports whether shard q, which does not own v, holds a peer of v.
func (f *Fanout) Reaches(v graph.NodeID, q int) bool {
	_, ok := slices.BinarySearch(f.Of(v), int32(q))
	return ok
}

// Emit frames the cross-shard part of what node v sent this round (d's
// Slot and Queued, so call it in their window): entry is called once per
// frame entry with its destination shard, in the order every frame keeps —
// v's leading broadcast once per shard of its row (to == Broadcast), then
// each queued send whose recipient lives on another shard, in send order.
// Called for a shard's nodes in ascending ID, that is the entry order of
// every s→q frame, on the sharded engine and the socket cluster alike.
func (f *Fanout) Emit(d *dist.Driver, v graph.NodeID, entry func(q int, to graph.NodeID, m dist.Message)) {
	if m, ok := d.Slot(v); ok {
		for _, q := range f.Of(v) {
			entry(int(q), Broadcast, m)
		}
	}
	self := f.assign[v]
	d.Queued(v, func(to graph.NodeID, m dist.Message) {
		if q := f.assign[to]; q != self {
			entry(q, to, m)
		}
	})
}
