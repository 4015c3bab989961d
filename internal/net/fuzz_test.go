package net

import (
	stdnet "net"
	"strings"
	"testing"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// FuzzReadRecord drives arbitrary bytes through the Conn record reader —
// the first thing that touches anything a peer sends. The invariant is
// modest and absolute: any byte stream either yields records or an error,
// never a panic, never a hang (the 1s IO timeout turns a stuck read into
// an error), and never an allocation beyond the codec.MaxRecord cap.
func FuzzReadRecord(f *testing.F) {
	f.Add(codec.AppendRecord(nil, []byte{recHello, 1, 2, 3}))
	f.Add(codec.AppendRecord(nil, []byte{RecDeltaPush, 0, 0}))
	f.Add(codec.AppendRecord(codec.AppendRecord(nil, []byte{recStep, 1}), []byte{recDone, 1, 0, 0}))
	f.Add([]byte{0})                                                          // empty record: an error, not a crash
	f.Add([]byte{0x05})                                                       // length with no payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // hostile length
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := stdnet.Pipe()
		defer a.Close()
		go func() {
			_, _ = b.Write(data)
			_ = b.Close()
		}()
		c := NewConn(a)
		c.SetIOTimeout(time.Second)
		for {
			_, _, err := c.ReadRecord()
			if err != nil {
				return
			}
		}
	})
}

// FuzzDecodeCoordBodies drives arbitrary bytes through the two finish-phase
// bodies the coordinator decodes in place — a worker's metrics share and its
// shipped values. Either decode errors or it consumed the whole body: no
// panic, no negative counter, and never more pairs than the body has bytes
// for (a lying count must not buy work or memory).
func FuzzDecodeCoordBodies(f *testing.F) {
	f.Add([]byte{5, 5, 40, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 7, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // hostile count
	f.Fuzz(func(t *testing.T, body []byte) {
		if msgs, words, wire, _, err := decodeMetrics(body); err == nil && (msgs < 0 || words < 0 || wire < 0) {
			t.Fatalf("metrics %x decoded negative: %d %d %d", body, msgs, words, wire)
		}
		vals, err := decodeValues(nil, body)
		if 9*len(vals) > len(body) {
			t.Fatalf("values %x decoded %d pairs from %d bytes", body, len(vals), len(body))
		}
		if err == nil && len(body) == 0 {
			t.Fatal("empty values body accepted")
		}
	})
}

// emitProg opens its round with a Broadcast and follows it with a Send to
// its lowest peer, Vec payloads on both for even nodes: every kind of entry
// shard.Fanout.Emit frames.
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
// 0→1, to a worker's whole receive path — entry decode, validation against
// the worker's own partition, dist.Driver.Inject into a Driver that holds
// shard 1's nodes and the ones they can hear — and then closes the round over
// whatever got in. A body is absorbed or refused with an error, never a panic
// or an index past the Driver's arrays, under both wire-capable threshold
// sets; an absorbed body holds exactly the announced number of entries.
func FuzzAbsorb(f *testing.F) {
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 3}, {3, 0}, {1, 3}, {1, 4}, {1, 2}, {2, 2}, {3, 4}, {4, 5}, {5, 5}} {
		b.AddUnitEdge(e[0], e[1]) // a parallel edge and self-loops; node 2 has no peer in shard 1
	}
	g, assign := b.Build(), []int{0, 0, 0, 1, 1, 1}
	fan := shard.NewFanout(g, assign, 2, []graph.NodeID{0, 1, 2})
	lams := []quantize.Lambda{quantize.Reals{}, quantize.NewPowerGrid(0.5)}
	worker1 := func(lam quantize.Lambda) *workerLoop {
		return &workerLoop{h: &codec.Hello{P: 2, Shard: 1}, lam: lam, assign: assign,
			d: dist.NewSubsetDriver(g, lam, []graph.NodeID{3, 4, 5}, func(graph.NodeID) dist.Program { return emitProg{} })}
	}
	// Seeds: what shard 0 really frames toward shard 1 after a round of
	// emitProg, under each Λ.
	for i, lam := range lams {
		d := dist.NewDriver(g, lam, func(graph.NodeID) dist.Program { return emitProg{} })
		d.StepList([]graph.NodeID{0, 1, 2}, 0)
		var body []byte
		count := 0
		fan.Emit(d, func(_ int, to graph.NodeID, m dist.Message) {
			body = shard.AppendMessage(body, lam, to, m)
			count++
		})
		if err := worker1(lam).absorb(0, 0, body, count); err != nil {
			f.Fatalf("a real flow is refused: %v", err)
		}
		f.Add(body, count, i == 1)
		// What the Driver has no state for: a sender shard 1 cannot hear (in
		// either entry form), a recipient another shard owns, a sender past n.
		for _, e := range []struct {
			to graph.NodeID
			m  dist.Message
		}{
			{shard.Broadcast, dist.Message{From: 2, F0: 1}},
			{3, dist.Message{From: 2, F0: 1}},
			{0, dist.Message{From: 1, F0: 1}},
			{shard.Broadcast, dist.Message{From: 6}},
			{4, dist.Message{From: 1 << 40}},
		} {
			bad := shard.AppendMessage(nil, lam, e.to, e.m)
			if err := worker1(lam).absorb(0, 0, bad, 1); err == nil || !strings.Contains(err.Error(), "net: flow 0→1 ") {
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
		r := worker1(lam)
		if r.absorb(0, 0, body, count) != nil {
			return
		}
		entries := 0
		for rest := body; len(rest) > 0; entries++ {
			_, _, used, err := shard.DecodeMessage(rest, lam, nil)
			if err != nil {
				t.Fatalf("absorbed body %x does not decode: %v", body, err)
			}
			rest = rest[used:]
		}
		if entries != count {
			t.Fatalf("absorbed body %x holds %d entries, %d announced", body, entries, count)
		}
		r.d.Deliver(nil)
	})
}
