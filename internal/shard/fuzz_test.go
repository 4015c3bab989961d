package shard

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
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

// emitProg opens its round with a Broadcast and follows it with a Send to
// its lowest peer, Vec payloads on both for even nodes: every kind of entry
// Fanout.Emit frames.
type emitProg struct{}

func (emitProg) Round(*dist.Ctx, []dist.Message) {}
func (emitProg) Init(c *dist.Ctx) {
	var vec []float64
	if c.ID()%2 == 0 {
		vec = []float64{1, 2.5}
	}
	c.Broadcast(dist.Message{F0: 1.5, Vec: vec})
	if ps := c.Peers(); len(ps) > 0 {
		c.Send(ps[0], dist.Message{Kind: 2, I0: -3, F0: float64(c.ID()), Vec: vec})
	}
}

// FuzzAbsorb feeds arbitrary bytes, as the body of one chunk of the flow
// 0→1, to a shard's whole receive path (Local.Absorb) — entry decode,
// validation against the shard's own partition, dist.Driver.Inject into a
// Driver that holds shard 1's nodes and the ones they can hear — and then
// closes the round over whatever got in. A body is absorbed or refused with an error, never a panic
// or an index past the Driver's arrays, under both wire-capable threshold
// sets; an absorbed body holds exactly the announced number of entries.
func FuzzAbsorb(f *testing.F) {
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 3}, {3, 0}, {1, 3}, {1, 4}, {1, 2}, {2, 2}, {3, 4}, {4, 5}, {5, 5}} {
		b.AddUnitEdge(e[0], e[1]) // a parallel edge and self-loops; node 2 has no peer in shard 1
	}
	g, assign := b.Build(), []int{0, 0, 0, 1, 1, 1}
	fan := NewFanout(g, assign, 2, []graph.NodeID{0, 1, 2})
	lams := []quantize.Lambda{quantize.Reals{}, quantize.NewPowerGrid(0.5)}
	shard1 := func(lam quantize.Lambda) *Local {
		return NewLocal(g, assign, 2, 1, lam, func(graph.NodeID) dist.Program { return emitProg{} })
	}
	// Seeds: what shard 0 really frames toward shard 1 after a round of
	// emitProg, under each Λ.
	for i, lam := range lams {
		d := dist.NewDriver(g, lam, func(graph.NodeID) dist.Program { return emitProg{} })
		d.StepList([]graph.NodeID{0, 1, 2}, 0)
		var body []byte
		count := 0
		fan.Emit(d, func(_ int, to graph.NodeID, m dist.Message) {
			body = AppendMessage(body, lam, to, m)
			count++
		})
		if err := shard1(lam).Absorb(0, 0, body, count); err != nil {
			f.Fatalf("a real flow is refused: %v", err)
		}
		f.Add(body, count, i == 1)
		// What the Driver has no state for: a sender shard 1 cannot hear (in
		// either entry form), a recipient another shard owns, a sender past n.
		for _, e := range []struct {
			to graph.NodeID
			m  dist.Message
		}{
			{Broadcast, dist.Message{From: 2, F0: 1}},
			{3, dist.Message{From: 2, F0: 1}},
			{0, dist.Message{From: 1, F0: 1}},
			{Broadcast, dist.Message{From: 6}},
			{4, dist.Message{From: 1 << 40}},
		} {
			bad := AppendMessage(nil, lam, e.to, e.m)
			if err := shard1(lam).Absorb(0, 0, bad, 1); err == nil || !strings.Contains(err.Error(), "shard: flow 0→1 ") {
				f.Fatalf("entry (%d, from %d): %v, want an error naming flow 0→1", e.to, e.m.From, err)
			}
			f.Add(bad, 1, i == 1)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, count int, grid bool) {
		lam := lams[0]
		if grid {
			lam = lams[1]
		}
		l := shard1(lam)
		if l.Absorb(0, 0, body, count) != nil {
			return
		}
		entries := 0
		for rest := body; len(rest) > 0; entries++ {
			_, _, used, err := DecodeMessage(rest, lam, nil)
			if err != nil {
				t.Fatalf("absorbed body %x does not decode: %v", body, err)
			}
			rest = rest[used:]
		}
		if entries != count {
			t.Fatalf("absorbed body %x holds %d entries, %d announced", body, entries, count)
		}
		l.D.Deliver(nil)
	})
}
