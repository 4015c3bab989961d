package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"distkcore/internal/dist"
)

// eliminationProgram implements dist.Checkpointable so net-engine workers
// can be crash-recovered (DESIGN.md §13). The cross-round state of a node is
// tiny and flat: its surviving number b, the maintained tie-breaking
// permutation of Updater, and the latest value heard from each neighbor
// (PeerTable.vals). Everything else (arcs, peers, arcRank, the vals scratch)
// is rebuilt from topology.

var errAuxCheckpoint = errors.New("core: TrackAux runs are not checkpointable (auxiliary sets are not retained per node)")

// AppendState serializes the node's cross-round state: b (raw float bits),
// the arc-order permutation (uvarints), and the neighbor value table (raw
// float bits), each length-prefixed for hostile-input validation on restore.
func (p *eliminationProgram) AppendState(dst []byte) ([]byte, error) {
	if p.run.trackAux {
		return nil, errAuxCheckpoint
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.b))
	dst = binary.AppendUvarint(dst, uint64(len(p.upd.order)))
	for _, i := range p.upd.order {
		dst = binary.AppendUvarint(dst, uint64(i))
	}
	dst = binary.AppendUvarint(dst, uint64(len(p.nbrB.vals)))
	for _, x := range p.nbrB.vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst, nil
}

// RestoreState rebuilds the node in a freshly constructed program whose Init
// has not run: wiring (Updater, PeerTable) is reconstructed from the Ctx's
// topology, then the serialized state is copied in. When the snapshotted
// node had halted, its published result is re-recorded into the (fresh)
// result sink — Init/finish will never run again for it.
func (p *eliminationProgram) RestoreState(c *dist.Ctx, halted bool, src []byte) (int, error) {
	if p.run.trackAux {
		return 0, errAuxCheckpoint
	}
	pos := 0
	if len(src) < 8 {
		return 0, fmt.Errorf("core: restore: state truncated")
	}
	b := math.Float64frombits(binary.LittleEndian.Uint64(src))
	pos += 8
	nord, k := binary.Uvarint(src[pos:])
	if k <= 0 {
		return 0, fmt.Errorf("core: restore: state truncated at byte %d", pos)
	}
	pos += k
	arcs := c.Neighbors()
	if nord != uint64(len(arcs)) {
		return 0, fmt.Errorf("core: restore: order length %d, node has %d arcs", nord, len(arcs))
	}
	order := make([]int, nord)
	seen := make([]bool, nord)
	for i := range order {
		x, k := binary.Uvarint(src[pos:])
		if k <= 0 {
			return 0, fmt.Errorf("core: restore: state truncated at byte %d", pos)
		}
		pos += k
		if x >= nord || seen[x] {
			return 0, fmt.Errorf("core: restore: order is not a permutation (entry %d)", x)
		}
		seen[x] = true
		order[i] = int(x)
	}
	nvals, k := binary.Uvarint(src[pos:])
	if k <= 0 {
		return 0, fmt.Errorf("core: restore: state truncated at byte %d", pos)
	}
	pos += k
	peers := c.Peers()
	if nvals != uint64(len(peers)) {
		return 0, fmt.Errorf("core: restore: value table length %d, node has %d peers", nvals, len(peers))
	}
	if uint64(len(src)-pos) < nvals*8 {
		return 0, fmt.Errorf("core: restore: state truncated in value table")
	}
	p.upd.Init(arcs, &p.run.slab)
	copy(p.upd.order, order)
	p.b = b
	p.nbrB.Init(p.id, arcs, peers, math.Inf(1), &p.run.slab)
	for i := range p.nbrB.vals {
		p.nbrB.vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[pos:]))
		pos += 8
	}
	if halted {
		// The node published its result and halted in the snapshotted run;
		// re-publish into this run's sink (idempotent under the lock).
		p.run.sink.mu.Lock()
		p.run.sink.B[p.id] = p.b
		p.run.sink.mu.Unlock()
	}
	return pos, nil
}
