package codec

import (
	"encoding/binary"
	"fmt"
)

// Stamp seals one session epoch (DESIGN.md §10): after the coordinator has
// absorbed a delta batch and assembled the re-converged values, it pins the
// resulting state in a stamp — the epoch number, the post-churn graph's
// edge-multiset hash (graph.EdgeSetHash, which every party keeps rolling as
// it mutates), the rebalanced partition digest, the digest of the full
// value vector, and the running chain digest that folds all of those into
// every digest of every earlier epoch. Workers verify each field against
// their own state and echo the stamp back; any mismatch aborts the session.
// Changed carries the number of nodes whose value moved this epoch (a
// cross-check for the reconverge exchange, and the datum subscription
// receipts report).
type Stamp struct {
	Epoch        int
	GraphHash    uint64
	PartDigest   uint64
	ValuesDigest uint64
	ChainDigest  uint64
	Changed      int
}

// AppendStamp appends the wire encoding of s to dst.
func AppendStamp(dst []byte, s Stamp) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Epoch))
	dst = binary.LittleEndian.AppendUint64(dst, s.GraphHash)
	dst = binary.LittleEndian.AppendUint64(dst, s.PartDigest)
	dst = binary.LittleEndian.AppendUint64(dst, s.ValuesDigest)
	dst = binary.LittleEndian.AppendUint64(dst, s.ChainDigest)
	return binary.AppendUvarint(dst, uint64(s.Changed))
}

// DecodeStamp decodes a Stamp and returns the number of bytes consumed.
func DecodeStamp(src []byte) (Stamp, int, error) {
	var s Stamp
	d := Decoder{src: src}
	s.Epoch = int(d.Uvarint())
	s.GraphHash = d.U64()
	s.PartDigest = d.U64()
	s.ValuesDigest = d.U64()
	s.ChainDigest = d.U64()
	s.Changed = int(d.Uvarint())
	if d.err != nil {
		return Stamp{}, 0, fmt.Errorf("codec: bad stamp record: %w", d.err)
	}
	return s, d.n, nil
}
