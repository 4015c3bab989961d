package core

import (
	"fmt"
	"sort"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
)

// PeerTable tracks the latest scalar heard from each distinct neighbor,
// indexed by the neighbor's rank in the runtime's sorted peer list — the
// flat replacement for the map[NodeID]float64 the synchronous protocols
// used to keep per node (DESIGN.md §7). Two dense arrays replace the hash
// table: vals, one slot per distinct neighbor, and arcRank, the
// precomputed arc-index → peer-rank translation the Update subroutine
// queries once per incident arc per round.
type PeerTable struct {
	peers   []graph.NodeID
	vals    []float64
	arcRank []int32 // arc index → peer rank; -1 for a self-loop arc
}

// NewPeerTable builds the table for a node: arcs and peers are the node's
// runtime topology (peers must be sorted ascending, as Ctx.Peers
// guarantees), id its own ID, and init the value every neighbor starts at.
func NewPeerTable(id graph.NodeID, arcs []graph.Arc, peers []graph.NodeID, init float64) PeerTable {
	var t PeerTable
	t.Init(id, arcs, peers, init, nil)
	return t
}

// Init is NewPeerTable in place, with the table's arrays carved from sl (nil
// allocates them individually).
func (t *PeerTable) Init(id graph.NodeID, arcs []graph.Arc, peers []graph.NodeID, init float64, sl *Slab) {
	t.peers = peers
	_, t.vals, t.arcRank = sl.carve(0, len(peers), len(arcs))
	for i := range t.vals {
		t.vals[i] = init
	}
	for i, a := range arcs {
		if a.To == id {
			t.arcRank[i] = -1
		} else {
			t.arcRank[i] = int32(sort.SearchInts(peers, a.To))
		}
	}
}

// rank returns the position of neighbor `from` in the peer list. A node
// that is not a peer panics: its value has no slot, and writing it to the
// next-larger neighbor's would corrupt the table silently.
func (t *PeerTable) rank(from graph.NodeID) int {
	i := sort.SearchInts(t.peers, from)
	if i == len(t.peers) || t.peers[i] != from {
		panic(fmt.Sprintf("core: PeerTable: node %d is not a neighbor", from))
	}
	return i
}

// Set records v as the latest value heard from neighbor `from`.
func (t *PeerTable) Set(from graph.NodeID, v float64) { t.vals[t.rank(from)] = v }

// Get returns the latest value heard from neighbor `from`.
func (t *PeerTable) Get(from graph.NodeID) float64 { return t.vals[t.rank(from)] }

// Merge records the F0 of every message of a round's inbox as the latest
// value of its sender. The runtime delivers an inbox ordered by sender and
// the peer list is ascending too, so one merge walk over both replaces a
// binary search per message; a later message of the same sender overwrites
// an earlier one, as successive Sets would. A sender that is not a neighbor
// — or an inbox that is not in sender order — panics, as Set does.
func (t *PeerTable) Merge(inbox []dist.Message) {
	i := 0
	for k := range inbox {
		from := inbox[k].From
		for i < len(t.peers) && t.peers[i] < from {
			i++
		}
		if i == len(t.peers) || t.peers[i] != from {
			panic(fmt.Sprintf("core: PeerTable: message %d of the inbox is from node %d, which is not a neighbor or is out of sender order", k, from))
		}
		t.vals[i] = inbox[k].F0
	}
}

// ArcVal returns the latest value of the neighbor at arc index i, or self
// for a self-loop arc (the node sees its own current value there) — the
// bOf lookup of Updater.Step.
func (t *PeerTable) ArcVal(i int, self float64) float64 {
	if rk := t.arcRank[i]; rk >= 0 {
		return t.vals[rk]
	}
	return self
}
