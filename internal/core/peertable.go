package core

import (
	"fmt"
	"sort"

	"distkcore/internal/graph"
)

// PeerTable tracks the latest scalar heard from each distinct neighbor,
// indexed by the neighbor's rank in the runtime's sorted peer list — the
// flat table of the asynchronous elimination, which evaluates on every
// message (DESIGN.md §7; the synchronous ElimState writes what it hears
// straight to the sender's arcs instead). Two dense arrays replace a hash
// table: vals, one slot per distinct
// neighbor, and arcRank, the precomputed arc-index → peer-rank translation
// the Update subroutine queries once per incident arc per evaluation.
type PeerTable struct {
	peers   []graph.NodeID
	vals    []float64
	arcRank []int32 // arc index → peer rank; -1 for a self-loop arc
}

// NewPeerTable builds the table for a node: arcs and peers are the node's
// runtime topology (peers must be sorted ascending, as Ctx.Peers
// guarantees), id its own ID, and init the value every neighbor starts at.
func NewPeerTable(id graph.NodeID, arcs []graph.Arc, peers []graph.NodeID, init float64) PeerTable {
	t := PeerTable{peers: peers, vals: make([]float64, len(peers)), arcRank: make([]int32, len(arcs))}
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
	return t
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

// ArcVal returns the latest value of the neighbor at arc index i, or self
// for a self-loop arc (the node sees its own current value there) — the
// bOf lookup of Updater.Step.
func (t *PeerTable) ArcVal(i int, self float64) float64 {
	if rk := t.arcRank[i]; rk >= 0 {
		return t.vals[rk]
	}
	return self
}
