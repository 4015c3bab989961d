package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"distkcore/internal/codec"
	"distkcore/internal/graph"
)

// Checkpointable is the optional Program interface a protocol implements to
// participate in crash recovery (DESIGN.md §13). AppendState serializes the
// node's cross-round state; RestoreState rebuilds it in a freshly
// constructed program whose Init has NOT run. The round trip must be exact:
// a restored program must produce bit-identical sends and halts from the
// next Step onward. RestoreState receives the node's Ctx (topology queries
// only — it must not send or halt) and the halted flag, so programs that
// publish a result on halt can re-publish it into a fresh result sink.
type Checkpointable interface {
	// AppendState appends the node's serialized cross-round state to dst.
	AppendState(dst []byte) ([]byte, error)
	// RestoreState decodes the state written by AppendState from the front
	// of src and returns the number of bytes consumed. It must validate
	// hostile input (short buffers, out-of-range indices) with errors, not
	// panics.
	RestoreState(c *Ctx, halted bool, src []byte) (int, error)
}

// nodeSnap is one decoded node entry of a driver snapshot, staged before any
// mutation of the sim so a hostile snapshot cannot leave it half-restored.
type nodeSnap struct {
	halted bool
	inbox  []Message
	state  []byte
}

// AppendSnapshot appends a snapshot of the listed nodes to dst: for each
// node its halted flag, its pending next-round inbox (the messages the last
// Deliver parked for it — gathered from the senders' slots if that Deliver
// moved nothing, so the bytes do not depend on the path the round took),
// and its program state via Checkpointable. The
// snapshot is taken at a barrier — call it only after a Deliver and before
// the next step wave, when every send queue is empty. nodes must be
// ascending and is typically the nodes the engine steps — a net worker's
// local nodes; a node another worker owns has no program state here, and its
// halted flag and inbox are that worker's to record.
func (d *Driver) AppendSnapshot(dst []byte, nodes []graph.NodeID) ([]byte, error) {
	s := d.s
	n := len(s.ctxs)
	dst = binary.AppendUvarint(dst, uint64(len(nodes)))
	var buf []Message
	for _, v := range nodes {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("dist: snapshot node %d out of range [0,%d)", v, n)
		}
		c := &s.ctxs[v]
		if len(c.out) != 0 || s.slots[s.wr+v].seq == s.seq {
			return nil, fmt.Errorf("dist: snapshot of node %d with unflushed sends (snapshot only at a barrier)", v)
		}
		if c.halted {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		var inbox []Message
		if !c.halted { // a halted receiver was dropped from the delivery
			inbox = s.inbox(v, &buf)
		}
		dst = binary.AppendUvarint(dst, uint64(len(inbox)))
		for _, m := range inbox {
			dst = append(dst, m.Kind)
			dst = binary.AppendUvarint(dst, uint64(m.From))
			dst = binary.AppendVarint(dst, int64(m.I0))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.F0))
			dst = binary.AppendUvarint(dst, uint64(len(m.Vec)))
			for _, x := range m.Vec {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
			}
		}
		ck, ok := s.progs[v].(Checkpointable)
		if !ok {
			return nil, fmt.Errorf("dist: program of node %d is not Checkpointable", v)
		}
		st, err := ck.AppendState(nil)
		if err != nil {
			return nil, fmt.Errorf("dist: snapshot node %d: %w", v, err)
		}
		dst = binary.AppendUvarint(dst, uint64(len(st)))
		dst = append(dst, st...)
	}
	return dst, nil
}

// RestoreSnapshot rebuilds the listed nodes' state from a snapshot written
// by AppendSnapshot against the same graph and node list. The driver must be
// freshly constructed (no Step has run). The pending inboxes are restored
// into the arena, as after a scatter — the senders' slots are not part of a
// snapshot — and the first Deliver after the restore picks its own path
// again. Hostile input yields an error, not a panic, and the sim is only
// mutated after the full snapshot has decoded.
func (d *Driver) RestoreSnapshot(src []byte, nodes []graph.NodeID) error {
	s := d.s
	n := len(s.ctxs)
	for i, v := range nodes {
		if v < 0 || v >= n {
			return fmt.Errorf("dist: restore node %d out of range [0,%d)", v, n)
		}
		if i > 0 && nodes[i-1] >= v {
			return fmt.Errorf("dist: restore node list not ascending at %d", v)
		}
	}
	snaps, err := decodeSnapshot(src, len(nodes), n)
	if err != nil {
		return err
	}
	// Rebuild the inbox arena: only listed nodes carry messages.
	total := int32(0)
	for _, ns := range snaps {
		total += int32(len(ns.inbox))
	}
	s.pull = false
	s.sizeArena(total)
	off := int32(0)
	j := 0
	for v := 0; v < n; v++ {
		s.inboxOff[v] = off
		if j < len(nodes) && nodes[j] == v {
			off += int32(copy(s.inboxArena[off:], snaps[j].inbox))
			j++
		}
	}
	s.inboxOff[n] = off
	for i, v := range nodes {
		c := &s.ctxs[v]
		c.out = c.out[:0]
		if snaps[i].halted && !c.halted {
			// Set directly and retire immediately: Halt() would stage the
			// node in haltedNow for the NEXT deliver, but a restored halt
			// was already retired in the snapshotted run.
			c.halted = true
			s.alive--
		}
		ck, ok := s.progs[v].(Checkpointable)
		if !ok {
			return fmt.Errorf("dist: program of node %d is not Checkpointable", v)
		}
		used, err := ck.RestoreState(c, snaps[i].halted, snaps[i].state)
		if err != nil {
			return fmt.Errorf("dist: restore node %d: %w", v, err)
		}
		if used != len(snaps[i].state) {
			return fmt.Errorf("dist: restore node %d: %d trailing state bytes", v, len(snaps[i].state)-used)
		}
	}
	return nil
}

// decodeSnapshot decodes a full snapshot into staged nodeSnaps with bounds
// checks on every field, without touching the sim. The bytes have crossed two
// sockets (worker → coordinator → respawned worker), so they go through the
// latching codec.Decoder like every other record body: a lying count is
// zeroed before anything loops or allocates on its say-so.
func decodeSnapshot(src []byte, nnodes, n int) ([]nodeSnap, error) {
	d := codec.NewDecoder(src)
	if count := d.Uvarint(); count != uint64(nnodes) {
		d.Fail(fmt.Errorf("%d nodes, want %d", count, nnodes))
	}
	snaps := make([]nodeSnap, nnodes)
	for i := range snaps {
		ns := &snaps[i]
		flag := d.Byte()
		if flag > 1 {
			d.Fail(fmt.Errorf("node %d: bad halted flag %d", i, flag))
		}
		ns.halted = flag == 1
		nmsg := d.Uvarint()
		// Each message is at least 11 bytes (kind + from + i0 + f0).
		if nmsg > uint64(d.Rest())/11 {
			d.Fail(fmt.Errorf("node %d: inbox count %d exceeds buffer", i, nmsg))
			nmsg = 0
		}
		ns.inbox = make([]Message, nmsg)
		for k := range ns.inbox {
			m := &ns.inbox[k]
			m.Kind = d.Byte()
			from := d.Uvarint()
			if from >= uint64(n) {
				d.Fail(fmt.Errorf("node %d: sender %d out of range", i, from))
			}
			m.From, m.I0, m.F0 = graph.NodeID(from), int(d.Varint()), math.Float64frombits(d.U64())
			nvec := d.Uvarint()
			if nvec > uint64(d.Rest())/8 {
				d.Fail(fmt.Errorf("node %d: vec length %d exceeds buffer", i, nvec))
				nvec = 0
			}
			if nvec > 0 {
				m.Vec = make([]float64, nvec)
				for j := range m.Vec {
					m.Vec[j] = math.Float64frombits(d.U64())
				}
			}
		}
		ns.state = d.Bytes()
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("dist: bad snapshot: %w", err)
	}
	return snaps, nil
}
