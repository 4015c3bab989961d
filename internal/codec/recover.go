package codec

// Wire encodings of the crash-recovery protocol (DESIGN.md §13): the
// per-round Checkpoint a worker ships after every delivery, the Resume
// record the coordinator sends to a re-admitted worker, and the Replay
// header that precedes a re-sent round of relayed frames.

import (
	"encoding/binary"
	"fmt"
)

// Checkpoint is the worker→coordinator record sealing one round: the round
// it completed, the running digest over every relayed frame it has received
// (FNV-1a fold, coordinator-verified), its cumulative metrics counters, and
// the driver snapshot of its local nodes (dist.Driver.AppendSnapshot).
type Checkpoint struct {
	Round      int
	FrameChain uint64
	Msgs       int64
	Words      int64
	Wire       int64
	State      []byte
}

// AppendCheckpoint appends the wire encoding of c to dst.
func AppendCheckpoint(dst []byte, c Checkpoint) []byte {
	dst = binary.AppendUvarint(dst, uint64(c.Round))
	dst = binary.LittleEndian.AppendUint64(dst, c.FrameChain)
	dst = binary.AppendUvarint(dst, uint64(c.Msgs))
	dst = binary.AppendUvarint(dst, uint64(c.Words))
	dst = binary.AppendUvarint(dst, uint64(c.Wire))
	return appendBytes(dst, c.State)
}

// DecodeCheckpoint decodes a Checkpoint and returns the bytes consumed.
func DecodeCheckpoint(src []byte) (Checkpoint, int, error) {
	var c Checkpoint
	d := Decoder{src: src}
	c.Round = int(d.Uvarint())
	c.FrameChain = d.U64()
	c.Msgs = int64(d.Uvarint())
	c.Words = int64(d.Uvarint())
	c.Wire = int64(d.Uvarint())
	c.State = d.Bytes()
	if d.err == nil && (c.Round < 0 || c.Msgs < 0 || c.Words < 0 || c.Wire < 0) {
		d.err = fmt.Errorf("negative field from oversized uvarint")
	}
	if d.err != nil {
		return Checkpoint{}, 0, fmt.Errorf("codec: bad checkpoint record: %w", d.err)
	}
	return c, d.n, nil
}

// Resume is the coordinator→worker record that restores a re-admitted
// worker from its last retained checkpoint. CkptRound is the checkpointed
// round to restore (-1 means no checkpoint: restart from Init), Catchup the
// number of replayed rounds that follow, FrameChain/Msgs/Words/Wire the
// counters as of the checkpoint, and State the driver snapshot to restore
// (empty when CkptRound is -1).
type Resume struct {
	CkptRound  int // -1 = fresh start
	Catchup    int
	FrameChain uint64
	Msgs       int64
	Words      int64
	Wire       int64
	State      []byte
}

// AppendResume appends the wire encoding of r to dst. CkptRound is shifted
// by +1 so the fresh-start sentinel -1 encodes as a uvarint 0.
func AppendResume(dst []byte, r Resume) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.CkptRound+1))
	dst = binary.AppendUvarint(dst, uint64(r.Catchup))
	dst = binary.LittleEndian.AppendUint64(dst, r.FrameChain)
	dst = binary.AppendUvarint(dst, uint64(r.Msgs))
	dst = binary.AppendUvarint(dst, uint64(r.Words))
	dst = binary.AppendUvarint(dst, uint64(r.Wire))
	return appendBytes(dst, r.State)
}

// DecodeResume decodes a Resume and returns the bytes consumed.
func DecodeResume(src []byte) (Resume, int, error) {
	var r Resume
	d := Decoder{src: src}
	r.CkptRound = int(d.Uvarint()) - 1
	r.Catchup = int(d.Uvarint())
	r.FrameChain = d.U64()
	r.Msgs = int64(d.Uvarint())
	r.Words = int64(d.Uvarint())
	r.Wire = int64(d.Uvarint())
	r.State = d.Bytes()
	if d.err == nil && (r.CkptRound < -1 || r.Catchup < 0 || r.Msgs < 0 || r.Words < 0 || r.Wire < 0) {
		d.err = fmt.Errorf("negative field from oversized uvarint")
	}
	if d.err != nil {
		return Resume{}, 0, fmt.Errorf("codec: bad resume record: %w", d.err)
	}
	return r, d.n, nil
}

// Replay is the coordinator→worker header announcing one replayed round:
// exactly Frames frame records for round Round follow it on the wire.
type Replay struct {
	Round  int
	Frames int
}

// AppendReplay appends the wire encoding of r to dst.
func AppendReplay(dst []byte, r Replay) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.Round))
	return binary.AppendUvarint(dst, uint64(r.Frames))
}

// DecodeReplay decodes a Replay and returns the bytes consumed.
func DecodeReplay(src []byte) (Replay, int, error) {
	var r Replay
	d := Decoder{src: src}
	r.Round = int(d.Uvarint())
	r.Frames = int(d.Uvarint())
	if d.err == nil && (r.Round < 0 || r.Frames < 0) {
		d.err = fmt.Errorf("negative field from oversized uvarint")
	}
	if d.err != nil {
		return Replay{}, 0, fmt.Errorf("codec: bad replay record: %w", d.err)
	}
	return r, d.n, nil
}

// appendBytes appends a uvarint length followed by the raw bytes.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// bytes decodes a uvarint-length-prefixed byte slice (a subslice of src,
// not a copy), with the same hostile-length guard as string.
func (d *Decoder) Bytes() []byte {
	l := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if l > uint64(len(d.src)-d.n) {
		d.err = fmt.Errorf("truncated bytes at offset %d", d.n)
		return nil
	}
	b := d.src[d.n : d.n+int(l) : d.n+int(l)]
	d.n += int(l)
	return b
}
