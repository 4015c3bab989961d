package codec

import (
	"bytes"
	"slices"
	"testing"
)

// Each record body a worker or coordinator reads straight off a socket keeps
// a fuzzer of its own here, seeded with the bodies that once broke it; the
// root FuzzRecordBodies holds every record at once to the same contract: no
// panic, and whatever decodes re-encodes to exactly the bytes it consumed.

// wholeTrip decodes data with a whole-body decoder and, when that succeeds,
// holds the value to re-encode to exactly data.
func wholeTrip[T any](t *testing.T, data []byte, dec func([]byte) (T, error), enc func([]byte, T) []byte) (T, bool) {
	v, err := dec(data)
	if err != nil {
		return v, false
	}
	if got := enc(nil, v); !bytes.Equal(got, data) {
		t.Fatalf("%+v re-encodes to %x, decoded from %x", v, got, data)
	}
	return v, true
}

func FuzzDecodeHello(f *testing.F) {
	f.Add(AppendHello(nil, Hello{Version: HandshakeVersion, P: 4, Shard: 2, MaxRounds: 23,
		GraphHash: 0xfeedface, PartDigest: 0xdeadbeef, LamKind: LamPowerGrid, LamL: 0.1,
		GraphSpec: "ba:2000:7", PartName: "greedy", ProtoSpec: "coreness:23", WantValues: true,
		Stream: true, MeshSpec: "unix:/a.mesh,unix:/b.mesh"}))
	f.Add(AppendHello(nil, Hello{}))
	f.Add([]byte{10, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // oversized uvarint
	f.Fuzz(func(t *testing.T, data []byte) { wholeTrip(t, data, DecodeHello, AppendHello) })
}

// The mesh records of the streamed delivery protocol (DESIGN.md §14) are
// decoded by per-peer reader goroutines from bytes straight off worker↔
// worker data connections. A peer frame is a header: the chunk's message
// bodies follow it, so it re-encodes to the bytes it consumed.

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
		if enc := AppendPeerFrame(nil, pf); !bytes.Equal(enc, data[:n]) {
			t.Fatalf("peer frame %+v re-encodes to %x, decoded from %x", pf, enc, data[:n])
		}
	})
}

func FuzzDecodeWindow(f *testing.F) {
	f.Add(AppendWindow(nil, Window{Src: 1, Dst: 0}))
	f.Add(AppendWindow(nil, Window{Src: 2, Dst: 3, Round: 7, Chunks: 4, Msgs: 100, Bytes: 4096, Digest: 0xfeedface, Alive: 500}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // oversized uvarint
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0})             // a byte past the last field
	f.Fuzz(func(t *testing.T, data []byte) {
		w, ok := wholeTrip(t, data, DecodeWindow, AppendWindow)
		if ok && (w.Src < 0 || w.Dst < 0 || w.Round < 0 || w.Chunks < 0 || w.Msgs < 0 || w.Bytes < 0 || w.Alive < 0) {
			t.Fatalf("negative field slipped past the decode guard: %+v", w)
		}
		if ok && WindowSize(w) != len(data) {
			t.Fatalf("WindowSize(%+v) = %d, its encoding is %d bytes", w, WindowSize(w), len(data))
		}
	})
}

// The barrier records of the streamed plane travel worker→coordinator on the
// control connection; the coordinator decodes them, into the entry list of
// the record before, ahead of any of its own checks.

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
		sd, ok := wholeTrip(t, data, func(b []byte) (StreamDone, error) { return DecodeStreamDone(b, nil) }, AppendStreamDone)
		if !ok {
			return
		}
		sd2, err := DecodeStreamDone(data, staleDigests())
		if err != nil || sd2.Round != sd.Round || sd2.Alive != sd.Alive || !slices.Equal(sd2.Sent, sd.Sent) {
			t.Fatalf("stream-done decoded into a used list: %+v, %v; want %+v", sd2, err, sd)
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
		sa, ok := wholeTrip(t, data, func(b []byte) (StreamAck, error) { return DecodeStreamAck(b, nil) }, AppendStreamAck)
		if !ok {
			return
		}
		sa2, err := DecodeStreamAck(data, staleDigests())
		if err != nil || sa2.Round != sa.Round || sa2.Wire != sa.Wire || !slices.Equal(sa2.Recv, sa.Recv) {
			t.Fatalf("stream-ack decoded into a used list: %+v, %v; want %+v", sa2, err, sa)
		}
	})
}
