package shard

import (
	"slices"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
)

// Fanout is one shard's foreign-shard table for a run: for every node the
// shard owns, the other shards that hold at least one of its peers,
// ascending. It is what turns a round's leading Broadcast into one frame
// entry per destination shard instead of one per recipient (Emit). Whether a
// remote sender's broadcast entry has any business in a shard is the
// receiving side's question and needs no table: the sender has a peer there
// exactly when the shard's dist.Driver can hear it (dist.NewSubsetDriver),
// and Inject refuses the rest. Built from (g, assign) in O(Σ deg) over the
// shard's nodes, for any P; what it holds follows their number.
type Fanout struct {
	assign []int
	own    []graph.NodeID
	off    []int32 // len(own)+1 offsets into dst
	dst    []int32 // the rows, back to back
}

// NewFanout builds the table of the shard that owns the nodes own
// (ascending) of g placed by assign over p shards.
func NewFanout(g *graph.Graph, assign []int, p int, own []graph.NodeID) *Fanout {
	f := new(Fanout)
	f.build(g, assign, p, own)
	return f
}

// build fills f with the table NewFanout builds, in f's arrays while they are
// large enough (a released Local's, NewLocal).
func (f *Fanout) build(g *graph.Graph, assign []int, p int, own []graph.NodeID) {
	f.assign, f.own = assign, own
	f.off = resize(f.off, len(own)+1)
	f.off[0] = 0
	if f.dst = f.dst[:0]; cap(f.dst) < len(own) {
		f.dst = make([]int32, 0, len(own))
	}
	seen := make([]graph.NodeID, p) // seen[q] == v+1: shard q is already in v's row
	for k, v := range own {
		seen[assign[v]] = v + 1
		row := len(f.dst)
		for _, u := range g.Peers(v) {
			if q := assign[u]; seen[q] != v+1 {
				seen[q] = v + 1
				f.dst = append(f.dst, int32(q))
			}
		}
		slices.Sort(f.dst[row:])
		f.off[k+1] = int32(len(f.dst))
	}
}

// Of returns the foreign shards holding a peer of the k-th node of the
// shard, ascending. The slice is shared table state; the caller must not
// modify it.
func (f *Fanout) Of(k int) []int32 { return f.dst[f.off[k]:f.off[k+1]] }

// Rows returns, per shard of the p, how many of the shard's nodes have it in
// their row: the most broadcast entries one round can frame toward it.
func (f *Fanout) Rows(p int) []int {
	rows := make([]int, p)
	for _, q := range f.dst {
		rows[q]++
	}
	return rows
}

// Emit frames the cross-shard part of what the shard's nodes sent this round
// (d's Slot and Queued, so call it in their window): entry is called once per
// frame entry with its destination shard, in the order every frame keeps —
// node by node in ascending ID, a node's leading broadcast once per shard of
// its row (to == Broadcast), then each queued send whose recipient lives on
// another shard, in send order. That is the entry order of every s→q frame,
// on the sharded engine and the socket cluster alike.
func (f *Fanout) Emit(d *dist.Driver, entry func(q int, to graph.NodeID, m dist.Message)) {
	if len(f.own) == 0 {
		return
	}
	self := f.assign[f.own[0]]
	queued := func(to graph.NodeID, m dist.Message) {
		if q := f.assign[to]; q != self {
			entry(q, to, m)
		}
	}
	for k, v := range f.own {
		if m, ok := d.Slot(v); ok {
			for _, q := range f.Of(k) {
				entry(int(q), Broadcast, m)
			}
		}
		d.Queued(v, queued)
	}
}
