package codec

import (
	"reflect"
	"testing"
)

func TestPeerFrameRoundTrip(t *testing.T) {
	for _, pf := range []PeerFrame{
		{},
		{Src: 3, Dst: 0, Round: 12, Seq: 7, Count: 250},
		{Src: 255, Dst: 254, Round: 1 << 20, Seq: 1 << 16, Count: 1},
	} {
		enc := AppendPeerFrame(nil, pf)
		got, n, err := DecodePeerFrame(append(enc, 0xaa, 0xbb)) // trailing bytes = chunk body
		if err != nil {
			t.Fatalf("decode %+v: %v", pf, err)
		}
		if n != len(enc) {
			t.Fatalf("decode %+v consumed %d bytes, header is %d", pf, n, len(enc))
		}
		if got != pf {
			t.Fatalf("round trip changed %+v into %+v", pf, got)
		}
	}
}

func TestWindowRoundTrip(t *testing.T) {
	for _, w := range []Window{
		{Src: 1, Dst: 3},
		{Src: 0, Dst: 63, Round: 9, Chunks: 17, Msgs: 4400, Bytes: 1 << 20, Digest: 0x1234567890abcdef, Alive: 1 << 17},
		{}, // zero-traffic flow end
	} {
		enc := AppendWindow(nil, w)
		if WindowSize(w) != len(enc) {
			t.Fatalf("WindowSize(%+v) = %d, the encoding is %d bytes", w, WindowSize(w), len(enc))
		}
		got, err := DecodeWindow(enc)
		if err != nil {
			t.Fatalf("decode %+v: %v", w, err)
		}
		if got != w {
			t.Fatalf("round trip changed %+v into %+v", w, got)
		}
	}
	if _, err := DecodeWindow(append(AppendWindow(nil, Window{}), 0)); err == nil {
		t.Fatalf("a window body with a byte past its last field decoded without error")
	}
}

func TestStreamDoneAckRoundTrip(t *testing.T) {
	sd := StreamDone{Round: 5, Alive: 120, Sent: []PeerDigest{
		{Peer: 1, Chunks: 3, Msgs: 90, Bytes: 4096, Digest: 7},
		{Peer: 2}, // zero-traffic flow still reported
	}}
	enc := AppendStreamDone(nil, sd)
	got, err := DecodeStreamDone(enc, nil)
	if err != nil {
		t.Fatalf("decode stream-done: %v", err)
	}
	if !reflect.DeepEqual(got, sd) {
		t.Fatalf("stream-done round trip: %+v vs %+v", sd, got)
	}

	sa := StreamAck{Round: 5,
		Wire: StreamWire{Sent: 9000, Recv: 8000, Relayed: 123, Chunks: 14, Credits: 13},
		Recv: []PeerDigest{{Peer: 0, Chunks: 1, Msgs: 2, Bytes: 64, Digest: 0xff}},
	}
	encA := AppendStreamAck(nil, sa)
	gotA, err := DecodeStreamAck(encA, nil)
	if err != nil {
		t.Fatalf("decode stream-ack: %v", err)
	}
	if !reflect.DeepEqual(gotA, sa) {
		t.Fatalf("stream-ack round trip: %+v vs %+v", sa, gotA)
	}
}

func TestPeerDigestsHostileCount(t *testing.T) {
	// A count claiming ~2^60 entries must fail fast against the remaining
	// input instead of allocating.
	hostile := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}
	if _, err := DecodeStreamDone(append([]byte{5, 1}, hostile...), nil); err == nil {
		t.Fatalf("hostile peer-digest count decoded without error")
	}
}

func TestHelloStreamFieldsRoundTrip(t *testing.T) {
	h := Hello{
		Version: HandshakeVersion, P: 8, Shard: 3, MaxRounds: 40,
		GraphHash: 1, PartDigest: 2,
		Stream:   true,
		MeshSpec: "/tmp/w0.sock.mesh,/tmp/w1.sock.mesh",
	}
	enc := AppendHello(nil, h)
	got, err := DecodeHello(enc)
	if err != nil {
		t.Fatalf("decode hello: %v", err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("hello stream fields changed across a round trip: %+v vs %+v", h, got)
	}
}
