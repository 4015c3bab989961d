package net

import (
	"encoding/binary"
	stdnet "net"
	"strings"
	"testing"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// uv encodes a body of uvarints.
func uv(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// workerGets runs a real P=1 worker (relayed or streamed) against a scripted
// coordinator that completes the handshake and then sends one record, and
// returns what the worker's run made of it.
func workerGets(t *testing.T, stream bool, typ byte, body []byte) error {
	t.Helper()
	g := graph.BarabasiAlbert(20, 2, 1)
	assign := make([]int, g.N())
	a, b := stdnet.Pipe()
	cc, wc := NewConn(a), NewConn(b)
	defer cc.Close()
	w := NewWorker(wc, g, assign)
	if stream {
		meshOf(&meshBroker{inboxes: make([]*meshInbox, 1)}, 0, w)
	}
	done := make(chan error, 1)
	go func() {
		_, err := w.run(g, func(graph.NodeID) dist.Program { return nil }, 3)
		wc.Close()
		done <- err
	}()
	hello := codec.AppendHello(nil, codec.Hello{
		Version: codec.HandshakeVersion, P: 1, MaxRounds: 3, Stream: stream,
		GraphHash: g.Fingerprint(), PartDigest: shard.PartitionDigest(assign),
	})
	if err := cc.Send(recHello, hello); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := cc.ReadRecord(); err != nil || typ != recWelcome {
		t.Fatalf("welcome: type %d, %v", typ, err)
	}
	if err := cc.Send(typ, body); err != nil {
		t.Fatal(err)
	}
	return <-done
}

// coordGets runs a real coordinator against a scripted P=1 worker that sends
// body as its typ record — its round-0 done record, or a finish-phase record
// after an honest round 0 that leaves nobody alive — and returns the run's
// error.
func coordGets(t *testing.T, typ byte, body []byte) error {
	t.Helper()
	a, b := stdnet.Pipe()
	cc, wc := NewConn(a), NewConn(b)
	go func() {
		defer wc.Close()
		h, err := ReadHello(wc)
		if err != nil {
			return
		}
		_ = wc.Send(recWelcome, codec.AppendWelcome(nil, codec.Welcome{
			Version: codec.HandshakeVersion, GraphHash: h.GraphHash, PartDigest: h.PartDigest}))
		_, _, _ = wc.ReadRecord() // step 0
		if typ != recDone {
			_ = wc.Send(recDone, uv(0, 0, 0))
			_, _, _ = wc.ReadRecord() // release
			_, _, _ = wc.ReadRecord() // finish
		}
		_ = wc.Send(typ, body)
		_, _, _ = wc.ReadRecord() // the abort (or EOF)
	}()
	_, _, err := RunCoordinator([]*Conn{cc}, Spec{P: 1, MaxRounds: 3, WantValues: true})
	cc.Close()
	return err
}

// meshGets hands a fresh P=3 mesh one inbound connection opening with body as
// its mesh-hello. The accept path has nobody to report to — a refused hello is
// a closed connection and no link — so the row's error is the decode's own.
func meshGets(t *testing.T, body []byte) error {
	t.Helper()
	m := newMesh(meshConfig{Self: 0, P: 3})
	defer m.Close()
	a, b := stdnet.Pipe()
	go func() { _ = NewConn(b).Send(recMeshHello, body) }()
	m.handleAccepted(a)
	b.Close()
	m.mu.Lock()
	attached := m.links[1] != nil
	m.mu.Unlock()
	_, err := codec.DecodeMeshHello(body)
	if attached != (err == nil) {
		t.Fatalf("mesh-hello %x: link attached %v, decode error %v", body, attached, err)
	}
	return err
}

// meshLinkGets reads one record off a fresh P=3 mesh's link from worker 1,
// as worker 0, and returns the error the mesh latched for it (nil if none).
// The mesh is in no round yet, so an admitted record is buffered, not
// delivered.
func meshLinkGets(t *testing.T, typ byte, body []byte) error {
	t.Helper()
	m := newMesh(meshConfig{Self: 0, P: 3})
	defer m.Close()
	a, b := stdnet.Pipe()
	l := &meshLink{c: NewConn(a)}
	m.links[1] = l
	go func() {
		_ = NewConn(b).Send(typ, body)
		b.Close()
	}()
	m.readLoop(1, l) // returns on the refusal or on the link's end
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// A full mesh forwards nothing, so the link a mesh record arrived on names its
// sender, and its destination is the reader's own worker: a chunk or an end
// marker claiming another sender or another destination is refused, never
// filed under the sender its bytes claim nor passed on.
func TestMeshRecordsNameTheirLink(t *testing.T) {
	chunk := func(src, dst int) []byte {
		return append(codec.AppendPeerFrame(nil, codec.PeerFrame{Src: src, Dst: dst, Count: 1}),
			shard.AppendMessage(nil, quantize.Reals{}, 0, dist.Message{From: 5, F0: 1})...)
	}
	end := func(src, dst int) []byte {
		return codec.AppendWindow(nil, codec.Window{Kind: codec.WindowEnd, Src: src, Dst: dst, Chunks: 1, Msgs: 1})
	}
	for _, tc := range []struct {
		name     string
		typ      byte
		body     []byte
		accepted bool
	}{
		{"chunk from the link's peer", recPeerFrame, chunk(1, 0), true},
		{"end marker from the link's peer", recWindow, end(1, 0), true},
		{"chunk claiming another sender", recPeerFrame, chunk(2, 0), false},
		{"chunk for another destination", recPeerFrame, chunk(1, 2), false},
		{"end marker claiming another sender", recWindow, end(2, 0), false},
		{"end marker for another destination", recWindow, end(1, 2), false},
	} {
		err := meshLinkGets(t, tc.typ, tc.body)
		switch {
		case tc.accepted && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case !tc.accepted && (err == nil || !strings.Contains(err.Error(), "on the link from 1 to 0")):
			t.Errorf("%s: %v, want a refusal naming the link from 1 to 0", tc.name, err)
		}
	}
}

// Each run record's body is held whole at the site that reads it off the wire,
// not only in its codec round trip (FuzzRecordBodies): a truncated body and one
// with bytes after the last field are both an error naming the record.
func TestInlineBodiesAreStrict(t *testing.T) {
	vals := append(uv(1, 7), 0, 0, 0, 0, 0, 0, 0xf0, 0x3f) // one (node, bits) pair
	cases := []struct {
		rec  string
		good []byte
		send func(body []byte) error
	}{
		{"step", uv(0), func(b []byte) error { return workerGets(t, false, recStep, b) }},
		{"deliver", uv(0, 0), func(b []byte) error { return workerGets(t, false, recDeliver, b) }},
		{"step", uv(0), func(b []byte) error { return workerGets(t, true, recStep, b) }}, // the streamed go record
		{"finish", append(uv(3), 1), func(b []byte) error { return workerGets(t, false, recFinish, b) }},
		{"done", uv(0, 0, 0), func(b []byte) error { return coordGets(t, recDone, b) }},
		{"metrics", append(uv(5, 5, 40), 1, 2, 3, 4, 5, 6, 7, 8), func(b []byte) error { return coordGets(t, recMetrics, b) }},
		{"values", vals, func(b []byte) error { return coordGets(t, recValues, b) }},
		{"mesh-hello", uv(1, 0), func(b []byte) error { return meshGets(t, b) }},
	}
	for _, tc := range cases {
		want := "bad " + tc.rec + " record"
		for name, body := range map[string][]byte{
			"trailing":  append(append([]byte(nil), tc.good...), 0),
			"truncated": tc.good[:len(tc.good)-1],
		} {
			if err := tc.send(body); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, %s body %x: %v, want an error saying %q", tc.rec, name, body, err, want)
			}
		}
	}
	// The well-formed mesh hello is accepted (the other rows' good bodies are
	// every passing run of the suite).
	if err := meshGets(t, uv(1, 0)); err != nil {
		t.Errorf("well-formed mesh-hello refused: %v", err)
	}
}

// A peer built at another protocol version is refused by the handshake
// itself, on both sides — before any record whose layout or meaning moved
// between the versions (a session stamp's graph field, at version 6) can be
// misread.
func TestHandshakeRefusesOtherVersions(t *testing.T) {
	g := graph.BarabasiAlbert(20, 2, 1)
	assign := make([]int, g.N())
	old := codec.HandshakeVersion - 1

	a, b := stdnet.Pipe()
	cc, wc := NewConn(a), NewConn(b)
	go func() {
		_ = cc.Send(recHello, codec.AppendHello(nil, codec.Hello{
			Version: old, P: 1, MaxRounds: 3, GraphHash: g.Fingerprint(), PartDigest: shard.PartitionDigest(assign)}))
	}()
	_, err := NewWorker(wc, g, assign).run(g, func(graph.NodeID) dist.Program { return nil }, 3)
	cc.Close()
	wc.Close()
	if err == nil || !strings.Contains(err.Error(), "handshake version") {
		t.Errorf("worker offered version %d: %v, want a handshake version refusal", old, err)
	}

	a, b = stdnet.Pipe()
	cc, wc = NewConn(a), NewConn(b)
	go func() {
		defer wc.Close()
		h, err := ReadHello(wc)
		if err != nil {
			return
		}
		_ = wc.Send(recWelcome, codec.AppendWelcome(nil, codec.Welcome{Version: old, GraphHash: h.GraphHash, PartDigest: h.PartDigest}))
		_, _, _ = wc.ReadRecord() // the abort (or EOF)
	}()
	_, _, err = RunCoordinator([]*Conn{cc}, Spec{P: 1, MaxRounds: 3})
	cc.Close()
	if err == nil || !strings.Contains(err.Error(), "speaks version") {
		t.Errorf("worker welcomed with version %d: %v, want a version refusal", old, err)
	}
}
