// Package codec provides a concrete wire encoding for the elimination
// protocol's messages, making the Congest-model claim of Section II
// measurable: "every number sent in a message can be represented by
// O(log n) bits". Under a powers-of-(1+λ) threshold set a surviving number
// is transmitted as its grid *index*, a small signed integer that varint-
// encodes to 1–2 bytes; under Λ = ℝ the full float64 is shipped.
//
// Every engine prices Metrics.WireBytes with SizeOf (dist.WireSize), which
// experiment E6 reports next to the information-theoretic estimate;
// EncodedSize is the encoder SizeOf is held to.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"distkcore/internal/quantize"
)

// Special value codes (grid indices cannot collide with them because they
// are shifted by codeBase).
const (
	codeZero = 0
	codeInf  = 1
	codeBase = 2
)

// EncodeValue appends the encoding of a surviving number x (already
// rounded to lam) to dst and returns the extended slice.
func EncodeValue(dst []byte, lam quantize.Lambda, x float64) []byte {
	switch l := lam.(type) {
	case quantize.PowerGrid:
		return binary.AppendUvarint(dst, valueCode(l, x))
	default:
		// Λ = ℝ: full 64-bit word.
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
}

// valueCode returns the uvarint code point EncodeValue ships for x under a
// PowerGrid — the single definition both the encoder and the size
// accounting (ValueSize) share.
func valueCode(l quantize.PowerGrid, x float64) uint64 {
	switch {
	case x == 0:
		return codeZero
	case math.IsInf(x, 1):
		return codeInf
	default:
		return codeBase + zigzag(gridIndex(l, x))
	}
}

// DecodeValue reads one value encoded by EncodeValue and returns it with
// the number of bytes consumed.
func DecodeValue(src []byte, lam quantize.Lambda) (float64, int, error) {
	switch l := lam.(type) {
	case quantize.PowerGrid:
		code, n := binary.Uvarint(src)
		if n <= 0 {
			return 0, 0, fmt.Errorf("codec: truncated varint")
		}
		switch code {
		case codeZero:
			return 0, n, nil
		case codeInf:
			return math.Inf(1), n, nil
		default:
			k := unzigzag(code - codeBase)
			return math.Pow(1+l.L, float64(k)), n, nil
		}
	default:
		if len(src) < 8 {
			return 0, 0, fmt.Errorf("codec: truncated float64")
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(src)), 8, nil
	}
}

// gridIndex returns k with (1+λ)^k = RoundDown(x) (x > 0 finite).
func gridIndex(l quantize.PowerGrid, x float64) int64 {
	base := 1 + l.L
	k := int64(math.Round(math.Log(x) / math.Log(base)))
	// snap against floating-point drift
	for math.Pow(base, float64(k)) > x*(1+1e-12) {
		k--
	}
	for math.Pow(base, float64(k+1)) <= x*(1+1e-12) {
		k++
	}
	return k
}

func zigzag(k int64) uint64 {
	return uint64((k << 1) ^ (k >> 63))
}

func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// EncodedSize returns the wire size in bytes of one elimination message
// (sender ID as varint + one value) under the given threshold set and node
// count.
func EncodedSize(lam quantize.Lambda, sender int, x float64) int {
	buf := binary.AppendUvarint(nil, uint64(sender))
	buf = EncodeValue(buf, lam, x)
	return len(buf)
}

// SizeOf is EncodedSize computed arithmetically, without building the
// encoding — the allocation-free form the dist engines use to account
// Metrics.WireBytes on every message.
func SizeOf(lam quantize.Lambda, sender int, x float64) int {
	return UvarintSize(uint64(sender)) + ValueSize(lam, x)
}

// ValueSize returns the encoded size in bytes of one value under lam.
func ValueSize(lam quantize.Lambda, x float64) int {
	switch l := lam.(type) {
	case quantize.PowerGrid:
		return UvarintSize(valueCode(l, x))
	default:
		return 8
	}
}

// SintSize returns the length in bytes of the zigzag-varint encoding of k.
func SintSize(k int64) int { return UvarintSize(zigzag(k)) }

// UvarintSize returns the length in bytes of the uvarint encoding of x.
func UvarintSize(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
