package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	var wire []byte
	payloads := [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{7}, 100000)}
	for _, p := range payloads {
		wire = AppendRecord(wire, p)
	}
	r := bufio.NewReader(bytes.NewReader(wire))
	var buf []byte
	for i, want := range payloads {
		got, err := ReadRecord(r, buf, 0)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: %d bytes, want %d", i, len(got), len(want))
		}
		buf = got[:0]
	}
	if _, err := ReadRecord(r, buf, 0); err != io.EOF {
		t.Fatalf("expected io.EOF at end, got %v", err)
	}
}

func TestReadRecordRejectsOversizedLength(t *testing.T) {
	wire := binary.AppendUvarint(nil, 1<<40) // length prefix far past any real record
	if _, err := ReadRecord(bufio.NewReader(bytes.NewReader(wire)), nil, 0); err == nil {
		t.Fatal("oversized record length accepted")
	}
	// A truncated record (valid length, missing bytes) must error, not EOF.
	wire = AppendRecord(nil, []byte{1, 2, 3})[:3]
	if _, err := ReadRecord(bufio.NewReader(bytes.NewReader(wire)), nil, 0); err == nil || err == io.EOF {
		t.Fatalf("truncated record returned %v", err)
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	h := Hello{
		Version: HandshakeVersion, P: 8, Shard: 5, MaxRounds: 23,
		GraphHash: 0xdeadbeefcafe, PartDigest: 0x1234,
		LamKind: LamPowerGrid, LamL: 0.1,
		GraphSpec: "ba:10000:7", PartName: "greedy", ProtoSpec: "coreness:23",
		WantValues: true,
	}
	got, err := DecodeHello(AppendHello(nil, h))
	if err != nil || got != h {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}
	w := Welcome{Version: HandshakeVersion, Shard: 5, GraphHash: 1, PartDigest: 2, Nodes: 1250}
	gw, err := DecodeWelcome(AppendWelcome(nil, w))
	if err != nil || gw != w {
		t.Fatalf("welcome round trip: %+v, %v", gw, err)
	}
}

// A hostile string-length field near 2^64 must latch a decode error, not
// wrap negative through int and panic on the slice bounds.
func TestDecodeHelloRejectsHostileStringLength(t *testing.T) {
	enc := AppendHello(nil, Hello{Version: HandshakeVersion, LamName: "x"})
	// The first string field (LamName) sits right after the fixed-width
	// prefix: 4 uvarints (all single-byte here), two 8-byte digests, the
	// kind byte and the 8-byte λ.
	off := 4 + 8 + 8 + 1 + 8
	hostile := append([]byte{}, enc[:off]...)
	hostile = binary.AppendUvarint(hostile, 1<<63)
	if _, err := DecodeHello(hostile); err == nil {
		t.Fatal("hostile string length accepted")
	}
}

func TestStampRoundTrip(t *testing.T) {
	s := Stamp{
		Epoch: 7, GraphHash: 0xabad1dea, PartDigest: 0x5eed,
		ValuesDigest: 0xfeedface, ChainDigest: 0xc0ffee, Changed: 42,
	}
	enc := AppendStamp(nil, s)
	got, err := DecodeStamp(enc)
	if err != nil || got != s {
		t.Fatalf("stamp round trip: %+v, %v", got, err)
	}
	// Every truncation must error, never panic or decode garbage.
	for k := 0; k < len(enc); k++ {
		if _, err := DecodeStamp(enc[:k]); err == nil {
			t.Fatalf("truncated stamp (%d of %d bytes) accepted", k, len(enc))
		}
	}
}
