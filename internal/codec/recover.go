package codec

// Wire encoding of the crash-recovery protocol (DESIGN.md §13): the Replay
// header that announces one catch-up round to a respawned worker.

import (
	"encoding/binary"
	"fmt"
)

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
