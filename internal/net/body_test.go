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
		br := newMeshBroker(1)
		ib := br.register(0)
		w.MeshDial, w.MeshAccept, w.MeshClose = br.dial, ib.accept, func() { br.close(ib) }
	}
	done := make(chan error, 1)
	go func() {
		_, err := w.run(g, func(graph.NodeID) dist.Program { return nil }, 3)
		wc.Close()
		done <- err
	}()
	hello := codec.AppendHello(nil, codec.Hello{
		Version: codec.HandshakeVersion, P: 1, MaxRounds: 3, Stream: stream, MeshKind: codec.MeshFull,
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
	m := newMesh(meshConfig{Self: 0, P: 3, Kind: codec.MeshFull})
	defer m.Close()
	a, b := stdnet.Pipe()
	go func() { _ = NewConn(b).Send(recMeshHello, body) }()
	m.handleAccepted(a)
	b.Close()
	m.mu.Lock()
	attached := m.links[1] != nil
	m.mu.Unlock()
	var src, gen int
	err := uvarints("mesh-hello", body, &src, &gen)
	if attached != (err == nil) {
		t.Fatalf("mesh-hello %x: link attached %v, decode error %v", body, attached, err)
	}
	return err
}

// Every run record whose body is decoded in place — no codec type of its own
// — must be consumed whole: a truncated body and one with bytes after the last
// field are both an error naming the record, at the site that reads it off the
// wire.
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

// What a flow may carry is narrower than what the entry codec can express
// (DESIGN.md §8.4 step 3): every sender owned by the flow's source shard,
// every unicast recipient by this one, and at most one broadcast entry per
// sender per round — first among that sender's entries — every sender one
// with a peer here (the worker's Driver holds no state for any other), and
// every unicast recipient a neighbor of its sender. Each violation aborts with a flow error: a repeated broadcast would
// otherwise fall through Ctx.Broadcast into the queue and deliver twice, a
// send to a non-neighbor panic inside Ctx.Send.
func TestAbsorbRefusesMalformedFlows(t *testing.T) {
	// 4 — 0 — 1 — 2 — 3 with shard 0 = {0, 1, 4} and shard 1 = {2, 3}: seen
	// from worker 1, sender 1 has a peer here, senders 0 and 4 do not.
	b := graph.NewBuilder(5)
	for _, e := range [][2]int{{4, 0}, {0, 1}, {1, 2}, {2, 3}} {
		b.AddUnitEdge(e[0], e[1])
	}
	g, assign, lam := b.Build(), []int{0, 0, 1, 1, 0}, quantize.Reals{}
	type entry struct {
		to   graph.NodeID
		from graph.NodeID
	}
	bc := func(from graph.NodeID) entry { return entry{shard.Broadcast, from} }
	cases := []struct {
		name   string
		chunks [][]entry // absorbed in order, as the chunks of one round's flow 0→1
		count  int       // announced for the last chunk; 0 means its true count
		want   string    // "" means accepted
	}{
		{"broadcast then unicast", [][]entry{{bc(1), {2, 1}}}, 0, ""},
		{"unicast only", [][]entry{{{2, 1}, {2, 1}}}, 0, ""},
		{"broadcast twice", [][]entry{{bc(1), bc(1)}}, 0, "broadcast of sender 1 is not the first send of its round"},
		{"broadcast twice across chunks", [][]entry{{bc(1)}, {bc(1)}}, 0, "broadcast of sender 1 is not the first send of its round"},
		{"broadcast behind unicast", [][]entry{{{2, 1}, bc(1)}}, 0, "broadcast of sender 1 is not the first send of its round"},
		{"broadcast with no peer here", [][]entry{{bc(0)}}, 0, "sender 0 has no neighbor among this driver's nodes"},
		{"unicast with no peer here", [][]entry{{{2, 4}}}, 0, "sender 4 has no neighbor among this driver's nodes"},
		{"broadcast from this shard's own node", [][]entry{{bc(2)}}, 0, "sender 2 not owned by shard 0"},
		{"broadcast from a node out of range", [][]entry{{bc(5)}}, 0, "sender 5 not owned by shard 0"},
		{"unicast from this shard's own node", [][]entry{{{3, 2}}}, 0, "sender 2 not owned by shard 0"},
		{"unicast outside this shard", [][]entry{{{0, 1}}}, 0, "addresses node 0 outside shard 1"},
		{"unicast out of range", [][]entry{{{5, 1}}}, 0, "addresses node 5 outside shard 1"},
		{"unicast to a non-neighbor here", [][]entry{{{3, 1}}}, 0, "node 3 is not a neighbor of sender 1"},
		{"count overstated", [][]entry{{bc(1)}}, 2, "decoded 1 messages, header says 2"},
	}
	for _, tc := range cases {
		r := &workerLoop{h: &codec.Hello{P: 2, Shard: 1}, lam: lam, assign: assign,
			d: dist.NewSubsetDriver(g, lam, []graph.NodeID{2, 3}, func(graph.NodeID) dist.Program { return emitProg{} })}
		var err error
		for i, chunk := range tc.chunks {
			var body []byte
			for _, e := range chunk {
				body = shard.AppendMessage(body, lam, e.to, dist.Message{From: e.from, F0: 1})
			}
			count := len(chunk)
			if i == len(tc.chunks)-1 && tc.count != 0 {
				count = tc.count
			}
			if err = r.absorb(0, 0, body, count); err != nil {
				break
			}
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), "net: flow 0→1 ") || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: %v, want a flow 0→1 error saying %q", tc.name, err, tc.want)
		}
	}
}
