package session

import (
	"bytes"
	"testing"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
)

// The two epoch records a session worker and coordinator exchange are
// decoded from bytes straight off a socket (a client's push included), so
// they get the hostile-input contract of the run records: no panic, no
// count-driven allocation beyond the payload, full consumption or an error,
// and whatever decodes re-encodes to the very bytes it came from — one record,
// one spelling, so a recovered worker's reply can be held to its dead
// incarnation's byte for byte.

func FuzzDecodeReconverge(f *testing.F) {
	f.Add(AppendReconverge(nil, Reconverge{Stamp: codec.Stamp{Epoch: 3, GraphHash: 0x3ca38c8a75247921, PartDigest: 0xfeedface,
		ValuesDigest: 0x9e3779b97f4a7c15, ChainDigest: 0xc0ffee, Changed: 2},
		Changes: []ValueChange{{Node: 7, OldBits: 0x4008000000000000, NewBits: 0x4000000000000000}, {Node: 1999}}}))
	f.Add(AppendReconverge(nil, Reconverge{}))
	// A hostile change count behind the zero stamp header (34 bytes).
	hostile := AppendReconverge(nil, Reconverge{})
	f.Add(append(hostile[:len(hostile)-1], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReconverge(data)
		if err != nil {
			return
		}
		if enc := AppendReconverge(nil, r); !bytes.Equal(enc, data) {
			t.Fatalf("reconverge re-encodes to %x, decoded from %x", enc, data)
		}
	})
}

func FuzzDecodeDeltaPush(f *testing.F) {
	f.Add(AppendDeltaPush(nil, 4, 16, dist.GraphDelta{Ops: []dist.EdgeOp{{U: 1, V: 2, W: 1}, {Del: true, U: 2, V: 3}}}))
	f.Add(AppendDeltaPush(nil, 0, 0, dist.GraphDelta{}))
	f.Add([]byte{1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // hostile op count
	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, budget, d, err := DecodeDeltaPush(data)
		if err != nil {
			return
		}
		if enc := AppendDeltaPush(nil, epoch, budget, d); !bytes.Equal(enc, data) {
			t.Fatalf("delta push re-encodes to %x, decoded from %x", enc, data)
		}
	})
}
