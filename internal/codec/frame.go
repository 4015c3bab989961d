package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"distkcore/internal/quantize"
)

// This file carries the frame-level encoding the sharded cluster engine
// (internal/shard) batches cross-shard traffic with: one frame per ordered
// shard pair per round, a four-uvarint header followed by the messages of
// the frame. The per-message body encoding lives next to the engine (it
// needs dist.Message); the value encoding inside it is EncodeValue /
// DecodeValue from this package, with RoundTrips deciding when the grid
// code is lossless and when the raw-float escape must be taken.

// FrameHeader heads one cross-shard frame: the ordered shard pair, the
// round whose traffic it carries, and the number of messages that follow.
type FrameHeader struct {
	Src, Dst int // shard indices
	Round    int
	Count    int // messages in the frame body
}

// AppendFrameHeader appends the four-uvarint header encoding to dst.
func AppendFrameHeader(dst []byte, h FrameHeader) []byte {
	dst = binary.AppendUvarint(dst, uint64(h.Src))
	dst = binary.AppendUvarint(dst, uint64(h.Dst))
	dst = binary.AppendUvarint(dst, uint64(h.Round))
	return binary.AppendUvarint(dst, uint64(h.Count))
}

// DecodeFrameHeader reads one header and returns it with the number of
// bytes consumed: the frame's message bodies follow it.
func DecodeFrameHeader(src []byte) (FrameHeader, int, error) {
	d := Decoder{src: src}
	h := FrameHeader{Src: d.Int(), Dst: d.Int(), Round: d.Int(), Count: d.Int()}
	if d.err != nil {
		return FrameHeader{}, 0, fmt.Errorf("codec: bad frame header: %w", d.err)
	}
	return h, d.n, nil
}

// FrameHeaderSize returns len(AppendFrameHeader(nil, h)) without building
// the encoding.
func FrameHeaderSize(h FrameHeader) int {
	return UvarintSize(uint64(h.Src)) + UvarintSize(uint64(h.Dst)) +
		UvarintSize(uint64(h.Round)) + UvarintSize(uint64(h.Count))
}

// RoundTrips reports whether x survives an EncodeValue/DecodeValue round
// trip under lam bit for bit. Under Λ = ℝ every value ships as its raw
// float64 bits, so the answer is always true; under a PowerGrid only +0, +∞
// and canonical grid points (1+λ)^k do — any other value must take a
// transport's raw escape instead of the grid code.
func RoundTrips(lam quantize.Lambda, x float64) bool {
	_, ok := AppendValueLossless(nil, lam, x)
	return ok
}

// AppendValueLossless appends the EncodeValue encoding of x to dst when
// that encoding decodes back to x's exact bit pattern, reporting whether
// it did; otherwise dst is returned unchanged and the caller must ship a
// raw escape. It is RoundTrips and EncodeValue fused into one pass — the
// form the sharded engine's frame codec uses on the delivery hot path, so
// the grid index is derived once per value, not twice.
func AppendValueLossless(dst []byte, lam quantize.Lambda, x float64) ([]byte, bool) {
	l, ok := lam.(quantize.PowerGrid)
	if !ok {
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x)), true
	}
	switch {
	case x == 0:
		if math.Signbit(x) {
			// the grid's zero code decodes to +0.0, so -0.0 must escape
			return dst, false
		}
		return binary.AppendUvarint(dst, codeZero), true
	case math.IsInf(x, 1):
		return binary.AppendUvarint(dst, codeInf), true
	case x < 0 || math.IsNaN(x) || math.IsInf(x, -1):
		return dst, false
	default:
		k := gridIndex(l, x)
		if math.Pow(1+l.L, float64(k)) != x {
			return dst, false
		}
		return binary.AppendUvarint(dst, codeBase+zigzag(k)), true
	}
}
