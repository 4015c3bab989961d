package codec

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// The handshake is the first record a worker reads, and `cluster worker`
// reads it straight off a socket, so its decoder gets the same hostile-input
// contract as the frame and delta codecs: no panic, and whatever decodes
// re-encodes to exactly the bytes it consumed.

func FuzzDecodeHello(f *testing.F) {
	f.Add(AppendHello(nil, Hello{Version: HandshakeVersion, P: 4, Shard: 2, MaxRounds: 23,
		GraphHash: 0xfeedface, PartDigest: 0xdeadbeef, LamKind: LamPowerGrid, LamL: 0.1,
		GraphSpec: "ba:2000:7", PartName: "greedy", ProtoSpec: "coreness:23", WantValues: true,
		Stream: true, MeshSpec: "unix:/a.mesh,unix:/b.mesh"}))
	f.Add(AppendHello(nil, Hello{}))
	f.Add([]byte{10, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // oversized uvarint
	f.Fuzz(func(t *testing.T, data []byte) {
		h, n, err := DecodeHello(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if enc := AppendHello(nil, h); !bytes.Equal(enc, data[:n]) {
			t.Fatalf("hello %+v re-encodes to %x, decoded from %x", h, enc, data[:n])
		}
	})
}

// The mesh records of the streamed delivery protocol (DESIGN.md §14) are
// decoded by per-peer reader goroutines from bytes straight off worker↔
// worker data connections — the same hostile-input contract applies.

func FuzzDecodePeerFrame(f *testing.F) {
	f.Add(AppendPeerFrame(nil, PeerFrame{Src: 1, Dst: 2, Round: 3, Seq: 4, Count: 5}))
	f.Add(AppendPeerFrame(nil, PeerFrame{}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0, 0, 0}) // oversized uvarint
	f.Fuzz(func(t *testing.T, data []byte) {
		pf, n, err := DecodePeerFrame(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if pf.Src < 0 || pf.Dst < 0 || pf.Round < 0 || pf.Seq < 0 || pf.Count < 0 {
			t.Fatalf("negative field slipped past the decode guard: %+v", pf)
		}
		enc := AppendPeerFrame(nil, pf)
		pf2, n2, err := DecodePeerFrame(enc)
		if err != nil {
			t.Fatalf("re-decode of a re-encoded peer frame failed: %v", err)
		}
		if n2 != len(enc) || pf2 != pf {
			t.Fatalf("peer frame changed across a round trip: %+v (%d bytes) vs %+v (%d bytes)", pf, len(enc), pf2, n2)
		}
	})
}

func FuzzDecodeWindow(f *testing.F) {
	f.Add(AppendWindow(nil, Window{Kind: WindowCredit, Src: 1, Dst: 0, Credits: 1}))
	f.Add(AppendWindow(nil, Window{Kind: WindowEnd, Src: 2, Dst: 3, Round: 7, Chunks: 4, Msgs: 100, Bytes: 4096, Digest: 0xfeedface, Credits: 3, Alive: 500}))
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // oversized uvarint
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0})             // unknown kind
	f.Fuzz(func(t *testing.T, data []byte) {
		w, n, err := DecodeWindow(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if w.Kind > WindowEnd {
			t.Fatalf("unknown window kind %d slipped past the decode guard", w.Kind)
		}
		if w.Src < 0 || w.Dst < 0 || w.Round < 0 || w.Chunks < 0 || w.Msgs < 0 || w.Bytes < 0 || w.Credits < 0 || w.Alive < 0 {
			t.Fatalf("negative field slipped past the decode guard: %+v", w)
		}
		enc := AppendWindow(nil, w)
		w2, n2, err := DecodeWindow(enc)
		if err != nil {
			t.Fatalf("re-decode of a re-encoded window failed: %v", err)
		}
		if n2 != len(enc) || w2 != w {
			t.Fatalf("window changed across a round trip: %+v (%d bytes) vs %+v (%d bytes)", w, len(enc), w2, n2)
		}
	})
}

// The barrier records of the streamed plane travel worker→coordinator on the
// control connection; the coordinator decodes them before any of its own
// checks run.

// staleDigests is a used entry list handed back to a decoder: room for two
// entries, both still holding an earlier record's.
func staleDigests() []PeerDigest {
	return []PeerDigest{{Peer: 7, Chunks: 1, Msgs: 2, Bytes: 3, Digest: 4}, {Peer: 9, Digest: 5}}
}

func FuzzDecodeStreamDone(f *testing.F) {
	f.Add(AppendStreamDone(nil, StreamDone{Round: 3, Alive: 41, Sent: []PeerDigest{
		{Peer: 0, Chunks: 2, Msgs: 310, Bytes: 4021, Digest: 0xfeedface}, {Peer: 2}}}))
	f.Add(AppendStreamDone(nil, StreamDone{}))
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // hostile entry count
	f.Fuzz(func(t *testing.T, data []byte) {
		sd, n, err := DecodeStreamDone(data, nil)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		enc := AppendStreamDone(nil, sd)
		sd2, n2, err := DecodeStreamDone(enc, nil)
		if err != nil {
			t.Fatalf("re-decode of a re-encoded stream-done failed: %v", err)
		}
		if n2 != len(enc) || !reflect.DeepEqual(sd2, sd) {
			t.Fatalf("stream-done changed across a round trip: %+v (%d bytes) vs %+v (%d bytes)", sd, len(enc), sd2, n2)
		}
		// Decoded into a list handed back, the entries are the same.
		sd3, _, err := DecodeStreamDone(enc, staleDigests())
		if err != nil || sd3.Round != sd.Round || sd3.Alive != sd.Alive || !slices.Equal(sd3.Sent, sd.Sent) {
			t.Fatalf("stream-done decoded into a used list: %+v, %v; want %+v", sd3, err, sd)
		}
	})
}

func FuzzDecodeStreamAck(f *testing.F) {
	f.Add(AppendStreamAck(nil, StreamAck{Round: 3,
		Wire: StreamWire{Sent: 9000, Recv: 8000, Relayed: 70, Chunks: 6, Credits: 5},
		Recv: []PeerDigest{{Peer: 1, Chunks: 2, Msgs: 310, Bytes: 4021, Digest: 0xfeedface}, {Peer: 2}}}))
	f.Add(AppendStreamAck(nil, StreamAck{}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // hostile entry count
	f.Fuzz(func(t *testing.T, data []byte) {
		sa, n, err := DecodeStreamAck(data, nil)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		enc := AppendStreamAck(nil, sa)
		sa2, n2, err := DecodeStreamAck(enc, nil)
		if err != nil {
			t.Fatalf("re-decode of a re-encoded stream-ack failed: %v", err)
		}
		if n2 != len(enc) || !reflect.DeepEqual(sa2, sa) {
			t.Fatalf("stream-ack changed across a round trip: %+v (%d bytes) vs %+v (%d bytes)", sa, len(enc), sa2, n2)
		}
		sa3, _, err := DecodeStreamAck(enc, staleDigests())
		if err != nil || sa3.Round != sa.Round || sa3.Wire != sa.Wire || !slices.Equal(sa3.Recv, sa.Recv) {
			t.Fatalf("stream-ack decoded into a used list: %+v, %v; want %+v", sa3, err, sa)
		}
	})
}
