package codec

import "encoding/binary"

// Stamp seals one session epoch (DESIGN.md §10): the epoch number, the
// post-churn graph's edge-multiset hash (graph.EdgeSetHash, which every party
// keeps rolling as it mutates), the rebalanced partition digest, the digest of
// the full value vector, and the running chain digest that folds all of those
// into every digest of every earlier epoch. Changed is the number of nodes
// whose value moved this epoch (the datum subscription receipts report).
// Every worker derives the whole stamp itself and sends it ahead of its
// reconverge's changes; the coordinator seals an epoch only when all P equal
// the one it computes from the folded changes. Coordinator→worker a stamp is
// an admission (epoch 0's, or a respawned worker's at the last sealed epoch),
// which the worker verifies and echoes back.
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

// DecodeStamp decodes a stamp body: a values-digest record.
func DecodeStamp(src []byte) (Stamp, error) {
	d := Decoder{src: src}
	s := d.Stamp()
	return s, d.Finish("values-digest")
}

// Stamp reads the fields AppendStamp writes.
func (d *Decoder) Stamp() Stamp {
	return Stamp{Epoch: d.Int(), GraphHash: d.U64(), PartDigest: d.U64(),
		ValuesDigest: d.U64(), ChainDigest: d.U64(), Changed: d.Int()}
}
