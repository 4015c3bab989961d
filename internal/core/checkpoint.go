package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
)

// eliminationProgram implements dist.Checkpointable so net-engine workers
// can be crash-recovered (DESIGN.md §13). The cross-round state of a node is
// its ElimState, tiny and flat: its surviving number b, whether a step is owed
// on an empty inbox, the maintained tie-breaking permutation of Updater, and
// the latest value heard from each neighbor (PeerTable.vals). Everything else
// (arcs, peers, arcRank, the vals scratch) is rebuilt from topology.

var errAuxCheckpoint = errors.New("core: TrackAux runs are not checkpointable (auxiliary sets are not retained per node)")

// AppendState serializes the node's cross-round state: b (raw float bits),
// the owed flag (one byte, 0 or 1), the arc-order permutation (uvarints), and
// the neighbor value table (raw float bits), each length-prefixed for
// hostile-input validation on restore. The flag is state like the rest: an
// incarnation that forgot it would skip a step its dead predecessor ran.
func (p *eliminationProgram) AppendState(dst []byte) ([]byte, error) {
	if p.run.trackAux {
		return nil, errAuxCheckpoint
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.b))
	owed := byte(0)
	if p.owed {
		owed = 1
	}
	dst = append(dst, owed)
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
	d := codec.NewDecoder(src)
	b := math.Float64frombits(d.U64())
	owed := d.Byte()
	if owed > 1 {
		d.Fail(fmt.Errorf("bad owed flag %d", owed))
	}
	arcs, peers := c.Neighbors(), c.Peers()
	nord := d.Uvarint()
	if nord != uint64(len(arcs)) {
		d.Fail(fmt.Errorf("order length %d, node has %d arcs", nord, len(arcs)))
		nord = 0
	}
	order := make([]int, nord)
	seen := make([]bool, nord)
	for i := range order {
		x := d.Uvarint()
		if x >= nord || seen[x] {
			d.Fail(fmt.Errorf("order is not a permutation (entry %d)", x))
			break
		}
		seen[x] = true
		order[i] = int(x)
	}
	nvals := d.Uvarint()
	if nvals != uint64(len(peers)) {
		d.Fail(fmt.Errorf("value table length %d, node has %d peers", nvals, len(peers)))
		nvals = 0
	}
	vals := make([]float64, nvals)
	for i := range vals {
		vals[i] = math.Float64frombits(d.U64())
	}
	// Everything is staged: nothing of the node changes on a bad state.
	if err := d.Finish(); err != nil {
		return 0, fmt.Errorf("core: restore: %w", err)
	}
	p.Start(p.id, arcs, peers, &p.run.slab)
	copy(p.upd.order, order)
	p.b, p.owed = b, owed == 1
	copy(p.nbrB.vals, vals)
	if halted {
		// The node published its result and halted in the snapshotted run;
		// re-publish into this run's sink (idempotent under the lock).
		p.run.sink.mu.Lock()
		p.run.sink.B[p.id] = p.b
		p.run.sink.mu.Unlock()
	}
	return len(src), nil
}
