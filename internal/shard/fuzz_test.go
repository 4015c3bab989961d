package shard

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"distkcore/internal/codec"
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
	f.Add(append([]byte{0x83, 0x00, byte(tagBcast)}, make([]byte, 8)...))                                    // sender 3, overlong: 03 10 … is its one spelling
	f.Add(append([]byte{3, 0, 0x87, 0x00}, make([]byte, 8)...))                                              // receiver 7, overlong
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
			// The addresses have one spelling: the sender's uvarint, the tag,
			// then the receiver's unless the entry is a broadcast.
			addr := binary.AppendUvarint(nil, uint64(m.From))
			addr = append(addr, data[len(addr)])
			if to != Broadcast {
				addr = binary.AppendUvarint(addr, uint64(to))
			}
			if !bytes.HasPrefix(data, addr) {
				t.Fatalf("(%d → %d) decoded from % x, whose addresses are not spelled % x", m.From, to, data, addr)
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
// panic, no count-driven allocation beyond the payload, and whatever decodes
// re-encodes to the very bytes it came from — so one batch has one encoding,
// and the digest every session chain hangs off cannot differ between two
// spellings of it.
func FuzzDecodeDelta(f *testing.F) {
	f.Add(AppendDelta(nil, 4, dist.GraphDelta{Ops: []dist.EdgeOp{{U: 1, V: 2, W: 1}, {Del: true, U: 2, V: 3}}}))
	f.Add(AppendDelta(nil, 0, dist.GraphDelta{}))
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // hostile count
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := codec.NewDecoder(data)
		budget, d := DecodeDelta(dec)
		if dec.Finish("delta") != nil {
			return
		}
		if enc := AppendDelta(nil, budget, d); !bytes.Equal(enc, data) {
			t.Fatalf("delta re-encodes to %x, decoded from %x", enc, data)
		}
	})
}
