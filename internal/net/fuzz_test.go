package net

import (
	stdnet "net"
	"testing"
	"time"

	"distkcore/internal/codec"
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
	f.Add([]byte{5, 5, 40})
	f.Add([]byte{1, 7, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // hostile count
	f.Fuzz(func(t *testing.T, body []byte) {
		var msgs, words, wire int
		if err := uvarints("metrics", body, &msgs, &words, &wire); err == nil && (msgs < 0 || words < 0 || wire < 0) {
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
