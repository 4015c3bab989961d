package codec

// Wire encodings of the streamed delivery protocol (DESIGN.md §14): the mesh
// hello that opens a link, the chunked peer-frame header workers write on
// their mesh connections, the window record — the per-round end-of-flow
// marker a round closes on — and the done/ack records the coordinator
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

// DecodePeerFrame decodes a chunk header and returns the bytes consumed: the
// chunk's message bodies follow it.
func DecodePeerFrame(src []byte) (PeerFrame, int, error) {
	d := Decoder{src: src}
	pf := PeerFrame{Src: d.Int(), Dst: d.Int(), Round: d.Int(), Seq: d.Int(), Count: d.Int()}
	if d.err != nil {
		return PeerFrame{}, 0, fmt.Errorf("codec: bad peer-frame header: %w", d.err)
	}
	return pf, d.n, nil
}

// MeshHello opens a mesh link, dialer→acceptor: the dialer's shard and its
// incarnation's generation, which lets a receiver prefer the link of a
// respawned incarnation over a stale one.
type MeshHello struct{ Src, Gen int }

// AppendMeshHello appends the wire encoding of mh to dst.
func AppendMeshHello(dst []byte, mh MeshHello) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(dst, uint64(mh.Src)), uint64(mh.Gen))
}

// DecodeMeshHello decodes a mesh-hello body.
func DecodeMeshHello(src []byte) (MeshHello, error) {
	d := Decoder{src: src}
	mh := MeshHello{Src: d.Int(), Gen: d.Int()}
	return mh, d.Finish("mesh-hello")
}

// Window is the end-of-flow marker of the mesh protocol: the (Src, Dst, Round)
// flow is over, exactly Chunks chunks carrying Msgs messages were sent,
// folding to Digest. Every worker ends every flow every round, traffic or not
// — a worker's round closes on its peers' end markers, and Σ Alive over them
// (and its own count) decides the loop condition everywhere alike. Bytes is
// the flow's logical frame pricing: one relay-style frame header plus the
// message bodies, zero when Msgs is zero; Alive is the sender's live node
// count after the round's step.
type Window struct {
	Src    int
	Dst    int
	Round  int
	Chunks int
	Msgs   int64
	Bytes  int64
	Digest uint64
	Alive  int
}

// AppendWindow appends the wire encoding of w to dst.
func AppendWindow(dst []byte, w Window) []byte {
	dst = binary.AppendUvarint(dst, uint64(w.Src))
	dst = binary.AppendUvarint(dst, uint64(w.Dst))
	dst = binary.AppendUvarint(dst, uint64(w.Round))
	dst = binary.AppendUvarint(dst, uint64(w.Chunks))
	dst = binary.AppendUvarint(dst, uint64(w.Msgs))
	dst = binary.AppendUvarint(dst, uint64(w.Bytes))
	dst = binary.LittleEndian.AppendUint64(dst, w.Digest)
	return binary.AppendUvarint(dst, uint64(w.Alive))
}

// WindowSize returns len(AppendWindow(nil, w)) without building the
// encoding, so room for a window record can be made before it is encoded in
// place (the mesh's retained log).
func WindowSize(w Window) int {
	return UvarintSize(uint64(w.Src)) + UvarintSize(uint64(w.Dst)) + UvarintSize(uint64(w.Round)) +
		UvarintSize(uint64(w.Chunks)) + UvarintSize(uint64(w.Msgs)) + UvarintSize(uint64(w.Bytes)) + 8 +
		UvarintSize(uint64(w.Alive))
}

// DecodeWindow decodes a window body.
func DecodeWindow(src []byte) (Window, error) {
	d := Decoder{src: src}
	w := Window{Src: d.Int(), Dst: d.Int(), Round: d.Int(), Chunks: d.Int(), Msgs: d.Int64(),
		Bytes: d.Int64(), Digest: d.U64(), Alive: d.Int()}
	return w, d.Finish("window")
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

// DecodeStreamDone decodes a stream-done body. Sent is decoded into ents'
// storage when it has room (see peerDigests).
func DecodeStreamDone(src []byte, ents []PeerDigest) (StreamDone, error) {
	d := Decoder{src: src}
	sd := StreamDone{Round: d.Int(), Alive: d.Int(), Sent: d.peerDigests(ents)}
	return sd, d.Finish("stream-done")
}

// StreamWire is one worker's cumulative wire-level accounting of the mesh:
// the bytes of the records it originated (chunks and end markers) and
// received, plus its originated chunk count. It is
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
	// Credits is always 0: the mesh has no flow-control records. The field
	// stays on the wire for the benchmark's net.credits_per_op row until
	// ROADMAP item 9a retires both.
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
	return StreamWire{Sent: d.Int64(), Recv: d.Int64(), Relayed: d.Int64(), Chunks: d.Int64(), Credits: d.Int64()}
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

// DecodeStreamAck decodes a stream-ack body. Recv is decoded into ents'
// storage when it has room (see peerDigests).
func DecodeStreamAck(src []byte, ents []PeerDigest) (StreamAck, error) {
	d := Decoder{src: src}
	sa := StreamAck{Round: d.Int(), Wire: d.streamWire(), Recv: d.peerDigests(ents)}
	return sa, d.Finish("stream-ack")
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
// entry occupies at least 12 bytes (four uvarints plus the 8-byte digest).
func (d *Decoder) peerDigests(dst []PeerDigest) []PeerDigest {
	cnt := d.Count(12)
	pds := dst[:0]
	if cap(dst) < cnt {
		pds = make([]PeerDigest, 0, cnt)
	}
	for ; cnt > 0 && d.err == nil; cnt-- {
		pds = append(pds, PeerDigest{Peer: d.Int(), Chunks: d.Int(), Msgs: d.Int64(), Bytes: d.Int64(), Digest: d.U64()})
	}
	return pds
}
