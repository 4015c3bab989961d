package shard

import (
	"encoding/binary"
	"fmt"
	"math"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// Cross-shard frame format. One frame per ordered shard pair per round
// with at least one entry:
//
//	header  codec.FrameHeader{Src, Dst, Round, Count} — four uvarints
//	body    Count entries, each:
//	        uvarint from | tag byte |
//	        [uvarint to]         unless tagBcast
//	        [Kind byte]          when tagKind
//	        [zigzag-varint I0]   when tagI0
//	        F0: raw 8-byte float when tagRawF0, else codec.EncodeValue
//	        [uvarint len + len × 8-byte words]  when tagVec
//
// An entry is either a unicast message or — tagBcast, no `to` — the
// Broadcast its sender opened the round with, shipped once per destination
// shard holding at least one of the sender's peers (Fanout) however many
// live there: the receiver derives the recipients from its own copy of the
// graph. Within a frame entries run in ascending sender order, a sender's
// broadcast entry ahead of its unicast ones (Fanout.Emit).
//
// The encoding is *lossless* for every message, not only ones rounded to
// the engine's Λ: codec.RoundTrips decides per value whether the grid code
// reproduces the exact bit pattern, and the raw escape (tagRawF0) covers
// everything else. That is what keeps a run whose traffic crossed the wire
// byte-identical to dist.SeqEngine: every surface, this package's Engine
// included, delivers the decoded bytes.
//
// AppendMessage and DecodeMessage are exported because the real-socket
// cluster transport (internal/net) ships the exact same body encoding over
// its connections; the frame bytes a socket carries are byte-for-byte the
// frame bytes this package's Engine hands over in memory (asserted by
// internal/net's tests).
const (
	tagKind  = 1 << 0 // Kind ≠ 0 follows
	tagI0    = 1 << 1 // I0 ≠ 0 follows
	tagVec   = 1 << 2 // Vec length + words follow
	tagRawF0 = 1 << 3 // F0 shipped as raw float64 bits (off-grid escape)
	tagBcast = 1 << 4 // broadcast entry: no `to` on the wire
)

// Broadcast is the `to` of a broadcast entry: what AppendMessage takes to
// write one and what DecodeMessage reports for one.
const Broadcast graph.NodeID = -1

// VecArena recycles the []float64 payloads DecodeMessage materializes for
// Vec-carrying messages. Decoded Vecs live exactly one round — they sit in
// the receivers' inboxes until the next delivery overwrites the inbox
// arena — so a transport resets the arena once per round, right before the
// delivery that decodes into it, and the same blocks serve round after
// round (DESIGN.md §7 lifetime rules). A nil *VecArena makes DecodeMessage
// fall back to a fresh allocation per Vec, which is what correctness tests
// that retain decoded messages use.
type VecArena struct {
	buf []float64
}

// Reset recycles the arena for a new round. Blocks handed out earlier stay
// valid until the next take overwrites them, which by the one-round
// lifetime rule is after their consumers are done.
func (a *VecArena) Reset() { a.buf = a.buf[:0] }

// take carves an n-word block. When the current block is exhausted a
// larger one is allocated; outstanding slices keep the old block alive, so
// growth never corrupts previously decoded messages.
func (a *VecArena) take(n int) []float64 {
	if cap(a.buf)-len(a.buf) < n {
		c := 2 * (cap(a.buf) + n)
		if c < 1024 {
			c = 1024
		}
		a.buf = make([]float64, 0, c)
	}
	lo := len(a.buf)
	a.buf = a.buf[:lo+n]
	return a.buf[lo : lo+n : lo+n]
}

// AppendMessage appends the entry encoding of m under lam: addressed to
// node `to`, or — to == Broadcast — to every peer of m.From the receiving
// shard holds.
func AppendMessage(dst []byte, lam quantize.Lambda, to graph.NodeID, m dist.Message) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.From))
	var tag byte
	if to == Broadcast {
		tag |= tagBcast
	}
	if m.Kind != 0 {
		tag |= tagKind
	}
	if m.I0 != 0 {
		tag |= tagI0
	}
	if len(m.Vec) > 0 {
		tag |= tagVec
	}
	dst = append(dst, tag)
	tagIdx := len(dst) - 1 // patched below if F0 needs the raw escape
	if to != Broadcast {
		dst = binary.AppendUvarint(dst, uint64(to))
	}
	if m.Kind != 0 {
		dst = append(dst, m.Kind)
	}
	if m.I0 != 0 {
		dst = binary.AppendVarint(dst, int64(m.I0))
	}
	if out, ok := codec.AppendValueLossless(dst, lam, m.F0); ok {
		dst = out
	} else {
		dst[tagIdx] |= tagRawF0
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.F0))
	}
	if len(m.Vec) > 0 {
		dst = binary.AppendUvarint(dst, uint64(len(m.Vec)))
		for _, x := range m.Vec {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	}
	return dst
}

// DecodeMessage reads one entry and returns the receiver (Broadcast for a
// broadcast entry), the reconstructed message and the number of bytes
// consumed. Vec payloads are carved from a when non-nil (see VecArena for
// the lifetime contract) and freshly allocated otherwise.
func DecodeMessage(src []byte, lam quantize.Lambda, a *VecArena) (to graph.NodeID, m dist.Message, n int, err error) {
	// The addresses are read through codec.Decoder, which holds each to its
	// one spelling: an overlong uvarint is an error, and so is one past the
	// int range — a receiver there would wrap negative, onto Broadcast for
	// one value, and no graph has such a node.
	d := codec.NewDecoder(src)
	m.From = d.Int()
	tag := d.Byte()
	to = Broadcast
	if tag&tagBcast == 0 {
		to = d.Int()
	}
	if err := d.Err(); err != nil {
		return 0, dist.Message{}, 0, fmt.Errorf("shard: bad frame message address: %w", err)
	}
	n = len(src) - d.Rest()
	if tag&tagKind != 0 {
		if n >= len(src) {
			return 0, m, 0, fmt.Errorf("shard: truncated frame message (kind)")
		}
		m.Kind = src[n]
		n++
	}
	if tag&tagI0 != 0 {
		i0, k := binary.Varint(src[n:])
		if k <= 0 {
			return 0, m, 0, fmt.Errorf("shard: truncated frame message (i0)")
		}
		m.I0 = int(i0)
		n += k
	}
	if tag&tagRawF0 != 0 {
		if len(src[n:]) < 8 {
			return 0, m, 0, fmt.Errorf("shard: truncated frame message (raw f0)")
		}
		m.F0 = math.Float64frombits(binary.LittleEndian.Uint64(src[n:]))
		n += 8
	} else {
		f0, k, err := codec.DecodeValue(src[n:], lam)
		if err != nil {
			return 0, m, 0, err
		}
		m.F0 = f0
		n += k
	}
	if tag&tagVec != 0 {
		l, k := binary.Uvarint(src[n:])
		if k <= 0 {
			return 0, m, 0, fmt.Errorf("shard: truncated frame message (vec len)")
		}
		n += k
		// Divide, don't multiply: 8*l overflows for hostile lengths, and this
		// decoder now also runs on bytes straight off a socket (internal/net).
		if l > uint64(len(src[n:]))/8 {
			return 0, m, 0, fmt.Errorf("shard: truncated frame message (vec)")
		}
		if a != nil {
			m.Vec = a.take(int(l))
		} else {
			m.Vec = make([]float64, l)
		}
		for i := range m.Vec {
			m.Vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[n:]))
			n += 8
		}
	}
	return to, m, n, nil
}
