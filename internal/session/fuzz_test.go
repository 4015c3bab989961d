package session

import (
	"reflect"
	"testing"

	"distkcore/internal/dist"
)

// The two epoch records a session worker and coordinator exchange are
// decoded from bytes straight off a socket (a client's push included), so
// they get the hostile-input contract of the run records: no panic, no
// count-driven allocation beyond the payload, full consumption or an error,
// and whatever decodes survives an encode/decode round trip.

func FuzzDecodeReconverge(f *testing.F) {
	f.Add(AppendReconverge(nil, Reconverge{Epoch: 3, GraphHash: 0x3ca38c8a75247921, PartDigest: 0xfeedface,
		Changes: []ValueChange{{Node: 7, OldBits: 0x4008000000000000, NewBits: 0x4000000000000000}, {Node: 1999}}}))
	f.Add(AppendReconverge(nil, Reconverge{}))
	f.Add(append(make([]byte, 17), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)) // hostile change count
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReconverge(data)
		if err != nil {
			return
		}
		r2, err := DecodeReconverge(AppendReconverge(nil, r))
		if err != nil {
			t.Fatalf("re-decode of a re-encoded reconverge failed: %v", err)
		}
		if !reflect.DeepEqual(r2, r) {
			t.Fatalf("reconverge changed across a round trip: %+v vs %+v", r, r2)
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
		epoch2, budget2, d2, err := DecodeDeltaPush(AppendDeltaPush(nil, epoch, budget, d))
		if err != nil {
			t.Fatalf("re-decode of a re-encoded delta push failed: %v", err)
		}
		if epoch2 != epoch || budget2 != budget || len(d2.Ops) != len(d.Ops) || d2.Digest() != d.Digest() {
			t.Fatalf("delta push changed across a round trip: epoch %d→%d, budget %d→%d, ops %d→%d, digest %#x→%#x",
				epoch, epoch2, budget, budget2, len(d.Ops), len(d2.Ops), d.Digest(), d2.Digest())
		}
	})
}
