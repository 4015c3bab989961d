package codec

// Wire encodings of the streamed delivery protocol (DESIGN.md §14): the
// chunked peer-frame header workers write on their mesh connections, the
// window record that carries flow-control credits and the per-round end
// markers a round closes on, and the done/ack records the coordinator
// verifies behind the workers.
// The message bodies inside a peer-frame chunk reuse the per-message codec
// of internal/shard, so a streamed run prices the identical logical frame
// bytes the relay path and the in-process sharded engine price.

import (
	"encoding/binary"
	"fmt"
)

// PeerFrame is the header of one streamed chunk of shard→shard traffic:
// chunk Seq of the (Src, Dst, Round) flow, carrying Count message bodies.
// Chunks of one flow are written in ascending Seq with no gaps; a receiver
// accepts a chunk only when Seq is the next expected, which is what makes
// recovery resends (byte-identical re-encodes of the same flow) idempotent.
type PeerFrame struct {
	Src   int
	Dst   int
	Round int
	Seq   int
	Count int
}

// AppendPeerFrame appends the wire encoding of the header to dst; the
// chunk's message bodies follow it in the same record.
func AppendPeerFrame(dst []byte, pf PeerFrame) []byte {
	dst = binary.AppendUvarint(dst, uint64(pf.Src))
	dst = binary.AppendUvarint(dst, uint64(pf.Dst))
	dst = binary.AppendUvarint(dst, uint64(pf.Round))
	dst = binary.AppendUvarint(dst, uint64(pf.Seq))
	return binary.AppendUvarint(dst, uint64(pf.Count))
}

// DecodePeerFrame decodes a chunk header and returns the bytes consumed.
func DecodePeerFrame(src []byte) (PeerFrame, int, error) {
	var pf PeerFrame
	d := Decoder{src: src}
	pf.Src = int(d.Uvarint())
	pf.Dst = int(d.Uvarint())
	pf.Round = int(d.Uvarint())
	pf.Seq = int(d.Uvarint())
	pf.Count = int(d.Uvarint())
	if d.err == nil && (pf.Src < 0 || pf.Dst < 0 || pf.Round < 0 || pf.Seq < 0 || pf.Count < 0) {
		d.err = fmt.Errorf("negative field from oversized uvarint")
	}
	if d.err != nil {
		return PeerFrame{}, 0, fmt.Errorf("codec: bad peer-frame header: %w", d.err)
	}
	return pf, d.n, nil
}

// Window record kinds.
const (
	// WindowCredit returns Credits flow-control tokens from a chunk's
	// receiver (Src) to its origin (Dst): the origin may have Window
	// unacknowledged chunks in flight toward each peer.
	WindowCredit = byte(0)
	// WindowEnd marks the end of the (Src, Dst, Round) flow: exactly Chunks
	// chunks carrying Msgs messages were sent, folding to Digest. Every
	// worker ends every flow every round, traffic or not — a worker's round
	// closes on its peers' end markers, and Σ Alive over them (and its own
	// count) decides the loop condition everywhere alike. The marker also
	// returns the Credits its sender owes for the reverse flow's chunks.
	WindowEnd = byte(1)
)

// Window is the flow-control and end-of-flow record of the mesh protocol.
// Credits use Src/Dst/Credits; end markers use every field (Bytes is the
// flow's logical frame pricing: one relay-style frame header plus the
// message bodies, zero when Msgs is zero; Alive is the sender's live node
// count after the round's step).
type Window struct {
	Kind    byte
	Src     int
	Dst     int
	Round   int
	Chunks  int
	Msgs    int64
	Bytes   int64
	Digest  uint64
	Credits int
	Alive   int
}

// AppendWindow appends the wire encoding of w to dst.
func AppendWindow(dst []byte, w Window) []byte {
	dst = append(dst, w.Kind)
	dst = binary.AppendUvarint(dst, uint64(w.Src))
	dst = binary.AppendUvarint(dst, uint64(w.Dst))
	dst = binary.AppendUvarint(dst, uint64(w.Round))
	dst = binary.AppendUvarint(dst, uint64(w.Chunks))
	dst = binary.AppendUvarint(dst, uint64(w.Msgs))
	dst = binary.AppendUvarint(dst, uint64(w.Bytes))
	dst = binary.LittleEndian.AppendUint64(dst, w.Digest)
	dst = binary.AppendUvarint(dst, uint64(w.Credits))
	return binary.AppendUvarint(dst, uint64(w.Alive))
}

// DecodeWindow decodes a Window and returns the bytes consumed.
func DecodeWindow(src []byte) (Window, int, error) {
	var w Window
	d := Decoder{src: src}
	w.Kind = d.Byte()
	w.Src = int(d.Uvarint())
	w.Dst = int(d.Uvarint())
	w.Round = int(d.Uvarint())
	w.Chunks = int(d.Uvarint())
	w.Msgs = int64(d.Uvarint())
	w.Bytes = int64(d.Uvarint())
	w.Digest = d.U64()
	w.Credits = int(d.Uvarint())
	w.Alive = int(d.Uvarint())
	if d.err == nil && (w.Src < 0 || w.Dst < 0 || w.Round < 0 || w.Chunks < 0 ||
		w.Msgs < 0 || w.Bytes < 0 || w.Credits < 0 || w.Alive < 0) {
		d.err = fmt.Errorf("negative field from oversized uvarint")
	}
	if d.err == nil && w.Kind > WindowEnd {
		d.err = fmt.Errorf("unknown window kind %d", w.Kind)
	}
	if d.err != nil {
		return Window{}, 0, fmt.Errorf("codec: bad window record: %w", d.err)
	}
	return w, d.n, nil
}

// PeerDigest is one peer's entry in a done or ack record: the flow toward
// (done) or from (ack) Peer this round — chunk count, logical message and
// byte totals, and the FNV fold over the chunk records of the flow. Both
// sides of every flow report it, so the coordinator can verify the full
// digest matrix (sent[a][b] == recv[b][a]) without ever seeing a frame.
type PeerDigest struct {
	Peer   int
	Chunks int
	Msgs   int64
	Bytes  int64
	Digest uint64
}

// StreamDone is the worker→coordinator record of a streamed round's sends:
// the round, the worker's local alive count, and one PeerDigest per other
// worker (all P-1, zero-traffic flows included).
type StreamDone struct {
	Round int
	Alive int
	Sent  []PeerDigest
}

// AppendStreamDone appends the wire encoding of sd to dst.
func AppendStreamDone(dst []byte, sd StreamDone) []byte {
	dst = binary.AppendUvarint(dst, uint64(sd.Round))
	dst = binary.AppendUvarint(dst, uint64(sd.Alive))
	return appendPeerDigests(dst, sd.Sent)
}

// DecodeStreamDone decodes a StreamDone and returns the bytes consumed. Sent
// is decoded into ents' storage when it has room (see peerDigests).
func DecodeStreamDone(src []byte, ents []PeerDigest) (StreamDone, int, error) {
	var sd StreamDone
	d := Decoder{src: src}
	sd.Round = int(d.Uvarint())
	sd.Alive = int(d.Uvarint())
	sd.Sent = d.peerDigests(ents)
	if d.err == nil && (sd.Round < 0 || sd.Alive < 0) {
		d.err = fmt.Errorf("negative field from oversized uvarint")
	}
	if d.err != nil {
		return StreamDone{}, 0, fmt.Errorf("codec: bad stream-done record: %w", d.err)
	}
	return sd, d.n, nil
}

// StreamWire is one worker's cumulative wire-level accounting of the mesh:
// the bytes of the records it originated (chunks, end markers, stand-alone
// credits — Credits counts those; most credits ride the end markers) and
// received, plus its originated chunk and credit counts. It is
// observability, not protocol — the deterministic ledger prices logical frame
// bytes; this measures what the mesh actually moved, which is the quantity
// that must stay ~flat per worker as P grows.
type StreamWire struct {
	Sent int64
	Recv int64
	// Relayed is always 0: the mesh is full and forwards nothing. The field
	// stays on the wire for the benchmark's net.relayed_mb_per_op row until
	// ROADMAP item 9a retires both.
	Relayed int64
	Chunks  int64
	Credits int64
}

// AppendStreamWire appends the wire encoding of sw to dst.
func AppendStreamWire(dst []byte, sw StreamWire) []byte {
	dst = binary.AppendUvarint(dst, uint64(sw.Sent))
	dst = binary.AppendUvarint(dst, uint64(sw.Recv))
	dst = binary.AppendUvarint(dst, uint64(sw.Relayed))
	dst = binary.AppendUvarint(dst, uint64(sw.Chunks))
	return binary.AppendUvarint(dst, uint64(sw.Credits))
}

func (d *Decoder) streamWire() StreamWire {
	var sw StreamWire
	sw.Sent = int64(d.Uvarint())
	sw.Recv = int64(d.Uvarint())
	sw.Relayed = int64(d.Uvarint())
	sw.Chunks = int64(d.Uvarint())
	sw.Credits = int64(d.Uvarint())
	if d.err == nil && (sw.Sent < 0 || sw.Recv < 0 || sw.Relayed < 0 || sw.Chunks < 0 || sw.Credits < 0) {
		d.err = fmt.Errorf("negative field from oversized uvarint")
	}
	return sw
}

// StreamAck is the worker→coordinator record sealing a streamed round after
// delivery: the round, one PeerDigest per other worker for the flows it
// received, and its cumulative StreamWire counters.
type StreamAck struct {
	Round int
	Wire  StreamWire
	Recv  []PeerDigest
}

// AppendStreamAck appends the wire encoding of sa to dst.
func AppendStreamAck(dst []byte, sa StreamAck) []byte {
	dst = binary.AppendUvarint(dst, uint64(sa.Round))
	dst = AppendStreamWire(dst, sa.Wire)
	return appendPeerDigests(dst, sa.Recv)
}

// DecodeStreamAck decodes a StreamAck and returns the bytes consumed. Recv is
// decoded into ents' storage when it has room (see peerDigests).
func DecodeStreamAck(src []byte, ents []PeerDigest) (StreamAck, int, error) {
	var sa StreamAck
	d := Decoder{src: src}
	sa.Round = int(d.Uvarint())
	sa.Wire = d.streamWire()
	sa.Recv = d.peerDigests(ents)
	if d.err == nil && sa.Round < 0 {
		d.err = fmt.Errorf("negative field from oversized uvarint")
	}
	if d.err != nil {
		return StreamAck{}, 0, fmt.Errorf("codec: bad stream-ack record: %w", d.err)
	}
	return sa, d.n, nil
}

// appendPeerDigests appends a uvarint count followed by the entries.
func appendPeerDigests(dst []byte, pds []PeerDigest) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pds)))
	for _, pd := range pds {
		dst = binary.AppendUvarint(dst, uint64(pd.Peer))
		dst = binary.AppendUvarint(dst, uint64(pd.Chunks))
		dst = binary.AppendUvarint(dst, uint64(pd.Msgs))
		dst = binary.AppendUvarint(dst, uint64(pd.Bytes))
		dst = binary.LittleEndian.AppendUint64(dst, pd.Digest)
	}
	return dst
}

// peerDigests decodes a counted PeerDigest list into dst's storage, or a
// fresh array when dst has no room for the count: a caller that hands back the
// list it decoded last allocates nothing for lists no longer than it. Each
// entry occupies at least 12 bytes (four uvarints plus the 8-byte digest), so
// a hostile count is rejected against the remaining input instead of driving
// an allocation.
func (d *Decoder) peerDigests(dst []PeerDigest) []PeerDigest {
	cnt := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if cnt > uint64(len(d.src)-d.n)/12 {
		d.err = fmt.Errorf("peer-digest count %d exceeds remaining input", cnt)
		return nil
	}
	pds := dst[:0]
	if uint64(cap(dst)) < cnt {
		pds = make([]PeerDigest, 0, cnt)
	}
	for i := uint64(0); i < cnt; i++ {
		var pd PeerDigest
		pd.Peer = int(d.Uvarint())
		pd.Chunks = int(d.Uvarint())
		pd.Msgs = int64(d.Uvarint())
		pd.Bytes = int64(d.Uvarint())
		pd.Digest = d.U64()
		if d.err != nil {
			return nil
		}
		if pd.Peer < 0 || pd.Chunks < 0 || pd.Msgs < 0 || pd.Bytes < 0 {
			d.err = fmt.Errorf("negative field from oversized uvarint")
			return nil
		}
		pds = append(pds, pd)
	}
	return pds
}
