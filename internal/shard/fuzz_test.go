package shard

import (
	"math"
	"testing"

	"distkcore/internal/dist"
	"distkcore/internal/quantize"
)

// FuzzDecodeMessage feeds arbitrary bytes to the frame-message decoder —
// which runs on bytes straight off a socket — under both wire-capable
// threshold sets. No input may panic or over-consume, and anything that
// decodes must survive a re-encode/re-decode round trip bit for bit:
// that is the lossless-encoding contract byte-identical delivery rests on.
func FuzzDecodeMessage(f *testing.F) {
	f.Add(AppendMessage(nil, quantize.Reals{}, 7, dist.Message{From: 3, Kind: 2, I0: -5, F0: 3.25, Vec: []float64{1, 2}}))
	f.Add(AppendMessage(nil, quantize.NewPowerGrid(0.5), 1, dist.Message{From: 0, F0: 1.5}))
	f.Add(AppendMessage(nil, quantize.Reals{}, 0, dist.Message{F0: math.Inf(1)}))
	f.Add(AppendMessage(nil, quantize.Reals{}, Broadcast, dist.Message{From: 3, Kind: 2, I0: -5, F0: 3.25, Vec: []float64{1, 2}}))
	f.Add(AppendMessage(nil, quantize.NewPowerGrid(0.5), Broadcast, dist.Message{From: 9, F0: 1.5}))
	f.Add([]byte{0, byte(tagVec), 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})         // hostile vec length
	f.Add([]byte{0, byte(tagBcast | tagVec), 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // the same on a broadcast entry
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0})                       // receiver 2⁶⁴−1: must not read as Broadcast
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, lam := range []quantize.Lambda{quantize.Reals{}, quantize.NewPowerGrid(0.5)} {
			to, m, n, err := DecodeMessage(data, lam, nil)
			if err != nil {
				continue
			}
			if n > len(data) {
				t.Fatalf("decode consumed %d of %d bytes", n, len(data))
			}
			if to < Broadcast {
				t.Fatalf("decoded receiver %d is neither a node nor Broadcast", to)
			}
			enc := AppendMessage(nil, lam, to, m)
			to2, m2, n2, err := DecodeMessage(enc, lam, nil)
			if err != nil {
				t.Fatalf("re-decode of a re-encoded message failed: %v", err)
			}
			if n2 != len(enc) {
				t.Fatalf("re-decode consumed %d of %d bytes", n2, len(enc))
			}
			if to2 != to || m2.From != m.From || m2.Kind != m.Kind || m2.I0 != m.I0 ||
				math.Float64bits(m2.F0) != math.Float64bits(m.F0) || len(m2.Vec) != len(m.Vec) {
				t.Fatalf("message changed across a round trip: (%d, %+v) vs (%d, %+v)", to, m, to2, m2)
			}
			for i := range m.Vec {
				if math.Float64bits(m2.Vec[i]) != math.Float64bits(m.Vec[i]) {
					t.Fatalf("vec[%d] changed across a round trip: %v vs %v", i, m.Vec[i], m2.Vec[i])
				}
			}
		}
	})
}

// FuzzDecodeDelta is the same contract for the churn-batch decoder: no
// panic, no over-consumption, no count-driven allocation beyond the
// payload, and whatever decodes re-encodes to an identical batch (same
// digest — the value every session digest chain hangs off).
func FuzzDecodeDelta(f *testing.F) {
	f.Add(AppendDelta(nil, 4, dist.GraphDelta{Ops: []dist.EdgeOp{{U: 1, V: 2, W: 1}, {Del: true, U: 2, V: 3}}}))
	f.Add(AppendDelta(nil, 0, dist.GraphDelta{}))
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // hostile count
	f.Fuzz(func(t *testing.T, data []byte) {
		budget, d, n, err := DecodeDelta(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		enc := AppendDelta(nil, budget, d)
		budget2, d2, n2, err := DecodeDelta(enc)
		if err != nil {
			t.Fatalf("re-decode of a re-encoded delta failed: %v", err)
		}
		if n2 != len(enc) || budget2 != budget || len(d2.Ops) != len(d.Ops) {
			t.Fatalf("delta shape changed across a round trip: budget %d→%d, ops %d→%d, consumed %d of %d",
				budget, budget2, len(d.Ops), len(d2.Ops), n2, len(enc))
		}
		if d2.Digest() != d.Digest() {
			t.Fatalf("delta digest changed across a round trip: %#x vs %#x", d.Digest(), d2.Digest())
		}
	})
}
