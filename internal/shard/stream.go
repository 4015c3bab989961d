package shard

import (
	"encoding/binary"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// PeerStream is one destination shard's outbound frame entries for the
// current round (DESIGN.md §14), flushed in chunks as they are produced —
// or, with an unbounded Limit, as the round's one frame. The transport (the
// mesh, the relay plane, Engine's in-memory hand-over) supplies the Flush
// hook, which receives each chunk body and its entry count; PeerStream itself
// is transport-agnostic and carries the round's logical accounting — Msgs
// (entries) and BodyBytes — which is what keeps every ledger bit-equal (one
// relay-style frame header plus these bodies, LogicalFrameBytes).
type PeerStream struct {
	// Lam is the threshold set messages encode under (AppendMessage).
	Lam quantize.Lambda
	// Limit is the chunk flush threshold in body bytes; a chunk flushes as
	// soon as the buffered bodies reach it. Zero means DefaultChunkBytes.
	Limit int
	// Flush ships one chunk: body holds count encoded message bodies. The
	// body slice is reused after Flush returns — copy it to retain it.
	Flush func(body []byte, count int) error

	buf   []byte
	count int
	// Msgs and BodyBytes are the round's running logical totals across all
	// chunks (reset by Reset, not by flushes).
	Msgs      int
	BodyBytes int64
}

// DefaultChunkBytes is the chunk flush threshold used when Limit is zero:
// large enough that the per-chunk header and record framing are noise,
// small enough that a round's traffic streams instead of parking.
const DefaultChunkBytes = 32 << 10

// Reserve sizes the encode buffer once, before the first round, for a round
// in which entries senders with IDs below n each put one plain broadcast entry
// (ID, tag, an 8-byte value at most) in the flow — every node with a peer in
// the destination shard announcing — instead of letting the first rounds grow
// it by doubling. A buffer never outgrows the chunk limit by more than the
// entry that crosses it, so that is the cap; Vec payloads grow it as before.
func (ps *PeerStream) Reserve(entries, n int) {
	var id [binary.MaxVarintLen64]byte
	size := binary.PutUvarint(id[:], uint64(n)) + 1 + 8
	limit := ps.Limit
	if limit <= 0 {
		limit = DefaultChunkBytes
	}
	want := entries * size
	if want > limit { // and limit+size cannot overflow, even at an unbounded Limit
		want = min(want, limit+size)
	}
	if want > cap(ps.buf) {
		ps.buf = make([]byte, 0, want)
	}
}

// Append encodes one entry — m addressed to node `to`, or to == Broadcast —
// into the stream, flushing a chunk when the buffer crosses the limit.
func (ps *PeerStream) Append(to graph.NodeID, m dist.Message) error {
	pre := len(ps.buf)
	ps.buf = AppendMessage(ps.buf, ps.Lam, to, m)
	ps.BodyBytes += int64(len(ps.buf) - pre)
	ps.Msgs++
	ps.count++
	limit := ps.Limit
	if limit <= 0 {
		limit = DefaultChunkBytes
	}
	if len(ps.buf) >= limit {
		return ps.flush()
	}
	return nil
}

// Finish flushes the round's residual partial chunk, if any.
func (ps *PeerStream) Finish() error {
	if ps.count == 0 {
		return nil
	}
	return ps.flush()
}

// Reset clears the stream for a new round, keeping the grown buffer.
func (ps *PeerStream) Reset() {
	ps.buf = ps.buf[:0]
	ps.count = 0
	ps.Msgs = 0
	ps.BodyBytes = 0
}

func (ps *PeerStream) flush() error {
	err := ps.Flush(ps.buf, ps.count)
	ps.buf = ps.buf[:0]
	ps.count = 0
	return err
}

// LogicalFrameBytes prices one round's flow toward a peer the way the relay
// path does: a single codec.FrameHeader for the whole round's messages plus
// the body bytes, and zero for an empty flow (the relay path sends no frame
// at all then). The streamed ledger and the sharded engine's ShardMetrics
// stay bit-equal to the relay's because they price this quantity, never the
// chunked wire form.
func LogicalFrameBytes(src, dst, round, msgs int, bodyBytes int64) int64 {
	if msgs == 0 {
		return 0
	}
	return int64(codec.FrameHeaderSize(codec.FrameHeader{Src: src, Dst: dst, Round: round, Count: msgs})) + bodyBytes
}
