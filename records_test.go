package distkcore_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/quantize"
	"distkcore/internal/session"
	"distkcore/internal/shard"
)

// Every record body is decoded from bytes straight off a socket, and every
// one has one spelling (DESIGN.md §8.1): what decodes re-encodes to exactly
// the body it came from, and what does not is an error naming the record —
// never a panic, never a count-sized allocation on a hostile count's say-so.
// One spelling is what lets a recovered worker's records be held to its dead
// incarnation's byte for byte, and a digest hang off a body. The table has a
// row for each record constant of internal/net/conn.go, which
// TestDesignRecordTableMatchesConn holds it to.

// trip decodes a body and, when that succeeds, re-encodes what it decoded.
type trip func(tb testing.TB, body []byte) ([]byte, error)

// bodyRow is one record type, by its DESIGN.md §8.2 number and name.
type bodyRow struct {
	num  byte
	name string
	// good are valid bodies, one per form the record takes; more are further
	// seeds: edge cases, and bodies a decoder once had to be taught to refuse.
	good, more [][]byte
	trips      []trip // one per form
}

// pair is the trip of a whole-body decoder and its encoder.
func pair[T any](dec func([]byte) (T, error), enc func([]byte, T) []byte) trip {
	return func(_ testing.TB, b []byte) ([]byte, error) {
		v, err := dec(b)
		return enc(nil, v), err
	}
}

// header is the trip of a header whose message bodies follow it in the
// record; FuzzDecodeMessage and FuzzAbsorb hold those, so they ride along.
func header[T any](dec func([]byte) (T, int, error), enc func([]byte, T) []byte) trip {
	return func(_ testing.TB, b []byte) ([]byte, error) {
		v, k, err := dec(b)
		if err != nil {
			return nil, err
		}
		return append(enc(nil, v), b[k:]...), nil
	}
}

// into is the trip of a decoder that fills a list handed back to it: decoded
// into a used one, a body reads as it does into none.
func into[T any](dec func([]byte, []codec.PeerDigest) (T, error), enc func([]byte, T) []byte) trip {
	return func(tb testing.TB, b []byte) ([]byte, error) {
		v, err := dec(b, nil)
		if err != nil {
			return nil, err
		}
		used, err := dec(b, []codec.PeerDigest{{Peer: 7, Chunks: 1, Msgs: 2, Bytes: 3, Digest: 4}, {Peer: 9, Digest: 5}})
		if err != nil || !bytes.Equal(enc(nil, used), enc(nil, v)) {
			tb.Fatalf("%x decoded into a used list: %+v, %v; want %+v", b, used, err, v)
		}
		return enc(nil, v), nil
	}
}

// text is the trip of a body that is free text: any bytes are one.
func text(_ testing.TB, b []byte) ([]byte, error) { return b, nil }

func recordBodies() []bodyRow {
	// 2⁶⁴−1: past int range as a field, a lie as a count or a length.
	oversized := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	msg := shard.AppendMessage(nil, quantize.Reals{}, 5, dist.Message{From: 3, F0: 1.5})
	stamp := codec.Stamp{Epoch: 3, GraphHash: 0x3ca38c8a75247921, PartDigest: 0xfeedface,
		ValuesDigest: 0x9e3779b97f4a7c15, ChainDigest: 0xc0ffee, Changed: 2}
	changes := []session.ValueChange{{Node: 7, OldBits: 0x4008000000000000, NewBits: 0x4000000000000000}, {Node: 1999}}
	topics := []session.Topic{{Kind: session.TopicCoreness, Node: 5}, {Kind: session.TopicTopK, K: 3}, {Kind: session.TopicThreshold, X: 2.5}}
	push := session.AppendDeltaPush(nil, 4, 16, dist.GraphDelta{Ops: []dist.EdgeOp{{U: 1, V: 2, W: 1}, {Del: true, U: 2, V: 3}}})
	zero := session.AppendReconverge(nil, session.Reconverge{})
	return []bodyRow{
		{num: 1, name: "hello", good: [][]byte{codec.AppendHello(nil, codec.Hello{Version: codec.HandshakeVersion, P: 4, Shard: 2,
			MaxRounds: 23, GraphHash: 0xfeedface, PartDigest: 0xdeadbeef, LamKind: codec.LamPowerGrid, LamL: 0.1,
			GraphSpec: "ba:2000:7", PartName: "greedy", ProtoSpec: "coreness:23", WantValues: true, Stream: true,
			MeshSpec: "unix:/a.mesh,unix:/b.mesh"})},
			more: [][]byte{append([]byte{10}, oversized...), codec.AppendHello(nil, codec.Hello{}),
				// a fuzzer-found hello, once a corpus file
				[]byte("00000000000000000000000000000\n0000000000\"0000000000000000000000000000000000\x040000#000000000000000000000000000000000000000\x06000000")},
			trips: []trip{pair(codec.DecodeHello, codec.AppendHello)}},
		{num: 2, name: "welcome", good: [][]byte{codec.AppendWelcome(nil, codec.Welcome{Version: codec.HandshakeVersion, Shard: 5,
			GraphHash: 1, PartDigest: 2, Nodes: 1250})}, trips: []trip{pair(codec.DecodeWelcome, codec.AppendWelcome)}},
		{num: 3, name: "step", good: [][]byte{codec.AppendStep(nil, 300)}, trips: []trip{pair(codec.DecodeStep, codec.AppendStep)}},
		{num: 4, name: "frame", good: [][]byte{append(codec.AppendFrameHeader(nil, codec.FrameHeader{Src: 1, Dst: 2, Round: 3, Count: 1}), msg...)},
			more:  [][]byte{{0x80, 0, 0, 0, 0}}, // an overlong source
			trips: []trip{header(codec.DecodeFrameHeader, codec.AppendFrameHeader)}},
		{num: 5, name: "done", good: [][]byte{codec.AppendDone(nil, codec.Done{Round: 3, Alive: 41, Frames: 2})},
			trips: []trip{pair(codec.DecodeDone, codec.AppendDone)}},
		{num: 6, name: "deliver", good: [][]byte{codec.AppendDeliver(nil, codec.Deliver{Round: 3, Frames: 2})},
			trips: []trip{pair(codec.DecodeDeliver, codec.AppendDeliver)}},
		{num: 7, name: "finish", good: [][]byte{codec.AppendFinish(nil, codec.Finish{Rounds: 23, Halted: true})},
			more: [][]byte{{23, 7}}, trips: []trip{pair(codec.DecodeFinish, codec.AppendFinish)}},
		{num: 8, name: "metrics", good: [][]byte{codec.AppendMetrics(nil, codec.Metrics{Messages: 5, Words: 5, WireBytes: 40, Chain: 0x0807060504030201})},
			more: [][]byte{{0}, oversized}, trips: []trip{pair(codec.DecodeMetrics, codec.AppendMetrics)}},
		{num: 9, name: "values", good: [][]byte{codec.AppendValues(nil, []codec.NodeValue{{Node: 7, Bits: 0x3ff0000000000000}})},
			more: [][]byte{{0}, oversized}, trips: []trip{pair(func(b []byte) ([]codec.NodeValue, error) { return codec.DecodeValues(nil, b) }, codec.AppendValues)}},
		{num: 10, name: "error", good: [][]byte{[]byte("worker 2: unexpected EOF")}, trips: []trip{text}},
		{num: 12, name: "delta-push", good: [][]byte{push},
			more: [][]byte{session.AppendDeltaPush(nil, 0, 0, dist.GraphDelta{}), append([]byte{1, 0}, oversized...),
				// a fuzzer-found overlong epoch, once a corpus file
				[]byte("\x80\x00\x10\x02\x00\x01\x02\x00\x00\x00\x00\x00\x00\xf0\x3f\x01\x02\x03")},
			trips: []trip{func(_ testing.TB, b []byte) ([]byte, error) {
				epoch, budget, d, err := session.DecodeDeltaPush(b)
				return session.AppendDeltaPush(nil, epoch, budget, d), err
			}}},
		{num: 13, name: "reconverge", good: [][]byte{session.AppendReconverge(nil, session.Reconverge{Stamp: stamp, Changes: changes})},
			more:  [][]byte{zero, append(zero[:len(zero)-1:len(zero)-1], oversized...)},
			trips: []trip{pair(session.DecodeReconverge, session.AppendReconverge)}},
		{num: 14, name: "values-digest", good: [][]byte{codec.AppendStamp(nil, stamp)}, trips: []trip{pair(codec.DecodeStamp, codec.AppendStamp)}},
		{num: 15, name: "subscribe", good: [][]byte{session.AppendSubscribe(nil, topics), session.AppendSubscribeEcho(nil, 3)},
			more:  [][]byte{append([]byte{1, 11}, "coreness:05"...), append([]byte{1, 14}, "threshold:2.50"...)},
			trips: []trip{pair(session.DecodeSubscribe, session.AppendSubscribe), pair(session.DecodeSubscribeEcho, session.AppendSubscribeEcho)}},
		{num: 16, name: "notify", good: [][]byte{session.AppendNotify(nil, session.Notification{Sub: 2, Epoch: 9, Topic: topics[1], Changes: changes})},
			trips: []trip{pair(session.DecodeNotify, session.AppendNotify)}},
		{num: 17, name: "bye", good: [][]byte{[]byte("shutdown")}, trips: []trip{text}},
		{num: 18, name: "stat", good: [][]byte{codec.AppendStat(nil, codec.Stat{Epoch: 3, ChainDigest: 42, Workers: 4, Nodes: 500,
			Pushes: 3, Changed: 17, Broken: true, CauseEpoch: 3, CauseWorker: -1, CausePhase: "reconverge", Cause: "timeout"})},
			trips: []trip{pair(codec.DecodeStat, codec.AppendStat)}},
		{num: 23, name: "stream-done", good: [][]byte{codec.AppendStreamDone(nil, codec.StreamDone{Round: 3, Alive: 41,
			Sent: []codec.PeerDigest{{Peer: 0, Chunks: 2, Msgs: 310, Bytes: 4021, Digest: 0xfeedface}, {Peer: 2}}})},
			more:  [][]byte{codec.AppendStreamDone(nil, codec.StreamDone{}), append([]byte{0, 0}, oversized...)},
			trips: []trip{into(codec.DecodeStreamDone, codec.AppendStreamDone)}},
		{num: 24, name: "stream-ack", good: [][]byte{codec.AppendStreamAck(nil, codec.StreamAck{Round: 3,
			Wire: codec.StreamWire{Sent: 9000, Recv: 8000, Relayed: 70, Chunks: 6, Credits: 5},
			Recv: []codec.PeerDigest{{Peer: 1, Chunks: 2, Msgs: 310, Bytes: 4021, Digest: 0xfeedface}, {Peer: 2}}})},
			more:  [][]byte{codec.AppendStreamAck(nil, codec.StreamAck{}), append([]byte{0, 0, 0, 0, 0, 0}, oversized...)},
			trips: []trip{into(codec.DecodeStreamAck, codec.AppendStreamAck)}},
		{num: 27, name: "mesh-hello", good: [][]byte{codec.AppendMeshHello(nil, codec.MeshHello{Src: 1, Gen: 2})},
			trips: []trip{pair(codec.DecodeMeshHello, codec.AppendMeshHello)}},
		{num: 28, name: "peer-frame", good: [][]byte{append(codec.AppendPeerFrame(nil, codec.PeerFrame{Src: 1, Dst: 2, Round: 3, Seq: 4, Count: 1}), msg...)},
			more: [][]byte{codec.AppendPeerFrame(nil, codec.PeerFrame{Src: 1, Dst: 2, Round: 3, Seq: 4, Count: 5}),
				codec.AppendPeerFrame(nil, codec.PeerFrame{}), append(slices.Clone(oversized), 0, 0, 0, 0)},
			trips: []trip{header(codec.DecodePeerFrame, codec.AppendPeerFrame)}},
		{num: 29, name: "window", good: [][]byte{codec.AppendWindow(nil, codec.Window{Kind: codec.WindowEnd, Src: 2, Dst: 3, Round: 7,
			Chunks: 4, Msgs: 100, Bytes: 4096, Digest: 0xfeedface, Credits: 3, Alive: 500}),
			codec.AppendWindow(nil, codec.Window{Kind: codec.WindowCredit, Src: 1, Credits: 1})},
			more:  [][]byte{append([]byte{1}, oversized...), {9, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0}},
			trips: []trip{pair(codec.DecodeWindow, codec.AppendWindow)}},
	}
}

// FuzzRecordBodies is every record's body contract at once. Each row is seeded
// with its valid bodies, each one byte longer and one byte shorter, and its
// further seeds; a fuzzed record number no row has picks a row by residue.
func FuzzRecordBodies(f *testing.F) {
	rows, byNum := recordBodies(), map[byte]bodyRow{}
	for _, r := range rows {
		byNum[r.num] = r
		for _, b := range r.good {
			if !slices.ContainsFunc(r.trips, func(tr trip) bool { _, err := tr(f, b); return err == nil }) {
				f.Fatalf("%s: a valid body %x does not decode", r.name, b)
			}
			f.Add(r.num, b)
			f.Add(r.num, append(slices.Clip(b), 0))
			f.Add(r.num, b[:len(b)-1])
		}
		for _, b := range r.more {
			f.Add(r.num, b)
		}
	}
	f.Fuzz(func(t *testing.T, num byte, body []byte) {
		r, ok := byNum[num]
		if !ok {
			r = rows[int(num)%len(rows)]
		}
		for _, tr := range r.trips {
			enc, err := tr(t, body)
			switch {
			case err != nil && !strings.Contains(err.Error(), "bad "+r.name):
				t.Fatalf("%s body %x: error %q does not name the record", r.name, body, err)
			case err == nil && !bytes.Equal(enc, body):
				t.Fatalf("%s body %x decodes, but re-encodes to %x", r.name, body, enc)
			}
		}
	})
}
