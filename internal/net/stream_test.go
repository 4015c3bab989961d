package net

import (
	"bytes"
	"encoding/binary"
	"fmt"
	stdnet "net"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/net/faultnet"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// Streamed-mesh specific properties (DESIGN.md §14). Byte-identity of the
// streamed engine against seq is pinned by the equivalence and recovery
// sweeps; the tests here pin the *transport* claims — that no worker funnels
// the cluster's traffic at any P (the busiest one stays within 2× the mean)
// and forwards none of it, and that a P=64 mesh over pipes survives a full run
// without leaking goroutines.

func streamEngine(p int, part shard.Partitioner) *Engine {
	e := NewEngine(p, part)
	e.Stream = true
	e.ChunkBytes = 512 // force multi-chunk flows
	return e
}

// maxWorkerWire is the heaviest per-worker data-plane load: bytes a worker
// put on its mesh links.
func maxWorkerWire(e *Engine) int64 {
	var max int64
	for _, w := range e.StreamWire() {
		if w.Sent > max {
			max = w.Sent
		}
	}
	return max
}

func totalWorkerWire(e *Engine) int64 {
	var tot int64
	for _, w := range e.StreamWire() {
		tot += w.Sent
	}
	return tot
}

// No single endpoint may funnel the cluster's traffic — the whole point of
// the mesh — at any P, and every run stays byte-identical to seq.
func TestStreamWireFlatAcrossP(t *testing.T) {
	g := graph.BarabasiAlbert(800, 5, 9)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T, Lambda: quantize.NewPowerGrid(0.1)}
	ref, refMet := core.RunDistributed(g, opt, dist.SeqEngine{})

	for _, p := range []int{4, 8, 16} {
		e := streamEngine(p, shard.Hash{})
		res, met := core.RunDistributed(g, opt, e)
		if met != refMet {
			t.Fatalf("P=%d metrics %+v, want %+v", p, met, refMet)
		}
		if !reflect.DeepEqual(res.B, ref.B) {
			t.Fatalf("P=%d B vector diverges from seq", p)
		}
		t.Logf("P=%d max per-worker wire %d, total %d", p, maxWorkerWire(e), totalWorkerWire(e))
		checkNoFunnel(t, p, e)
	}
}

// checkNoFunnel holds the busiest worker's wire to twice the mean. Total
// cross traffic is NOT fixed by the protocol: a leading broadcast ships one
// entry per (sender, destination shard), so entries per sender grow with P
// until they reach the degree — the per-worker maximum need not fall as P
// grows. What the mesh promises is that the load stays spread, and that a
// worker carries its own flows only: a full mesh forwards nothing.
func checkNoFunnel(t *testing.T, p int, e *Engine) {
	t.Helper()
	for s, w := range e.StreamWire() {
		if w.Relayed != 0 {
			t.Fatalf("P=%d: worker %d forwarded %d bytes on a full mesh", p, s, w.Relayed)
		}
	}
	if max, tot := maxWorkerWire(e), totalWorkerWire(e); max*int64(p) > 2*tot {
		t.Fatalf("P=%d: busiest worker carries %d bytes, over 2× the mean of %d", p, max, tot/int64(p))
	}
}

// P=64 pipe soak, gated behind DKC_SCALE_SOAK=1: a full mesh (64 workers,
// 2 016 links, each with a reader goroutine per end, one writer goroutine a
// worker, plus the control conns) runs a full protocol byte-identical to seq,
// no worker funnels the traffic, and the whole apparatus drains without
// leaking a goroutine.
func TestStreamSoakP64(t *testing.T) {
	if os.Getenv("DKC_SCALE_SOAK") == "" {
		t.Skip("set DKC_SCALE_SOAK=1 to run the P=64 mesh soak")
	}
	g := graph.BarabasiAlbert(3000, 5, 17)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T, Lambda: quantize.NewPowerGrid(0.1)}
	ref, refMet := core.RunDistributed(g, opt, dist.SeqEngine{})

	before := runtime.NumGoroutine()
	for _, p := range []int{4, 64} {
		e := streamEngine(p, shard.Hash{})
		e.ChunkBytes = shard.DefaultChunkBytes
		res, met := core.RunDistributed(g, opt, e)
		if met != refMet {
			t.Fatalf("P=%d metrics %+v, want %+v", p, met, refMet)
		}
		if !reflect.DeepEqual(res.B, ref.B) {
			t.Fatalf("P=%d B vector diverges from seq", p)
		}
		t.Logf("P=%d max per-worker wire %d, total %d (name %s)",
			p, maxWorkerWire(e), totalWorkerWire(e), e.Name())
		checkNoFunnel(t, p, e)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked across the soak: %d before, %d after", before, got)
	}
}

// A streamed worker has one mesh writer, whatever P: one goroutine drains
// every link's retained log in turn, so a P = 8 run stands P writers up, not the
// P·(P − 1) a writer per link made. Holding one end marker parks its worker's
// writer — and with it every flow of that worker — while the dump is taken;
// released, the run ends byte-identical to seq. A held link is a delay, never
// a third outcome.
func TestOneMeshWriterPerWorker(t *testing.T) {
	const p, w, q = 8, 2, 5
	g := graph.BarabasiAlbert(400, 4, 7)
	opt := core.Options{Rounds: core.TForEpsilon(g.N(), 0.5), Lambda: quantize.NewPowerGrid(0.1)}
	ref, refMet := core.RunDistributed(g, opt, dist.SeqEngine{})
	faults := faultnet.New(faultnet.Fault{Shard: w, Peer: q, Type: recWindow,
		Body: opening(nil, w, q, 1), Action: faultnet.Hold})
	e := streamEngine(p, shard.Hash{})
	e.wrap = faults.Wrap
	var res *core.Result
	var met dist.Metrics
	writers := 0
	cell(t, func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			res, met = core.RunDistributed(g, opt, e)
		}()
		for !faults.Fired(0) {
			time.Sleep(time.Millisecond)
		}
		// Writers of an earlier test's closed meshes may still be on their way out.
		deadline := time.Now().Add(5 * time.Second)
		for writers = meshWriters(); writers != p && time.Now().Before(deadline); writers = meshWriters() {
			time.Sleep(5 * time.Millisecond)
		}
		faults.Release()
		<-done
	})
	if writers != p {
		t.Errorf("%d goroutines in a mesh writer while the run was parked, want %d (one a worker)", writers, p)
	}
	if n := e.Recoveries(); n != 0 {
		t.Errorf("a held link cost %d recoveries, want none", n)
	}
	if met != refMet || !reflect.DeepEqual(res.B, ref.B) {
		t.Errorf("metrics %+v, want %+v (values equal: %v)", met, refMet, reflect.DeepEqual(res.B, ref.B))
	}
}

// A sender never waits on its receiver: a round is the mesh's flow control,
// and a sender retains what it streams for the whole run anyway. At
// ChunkBytes 64 worker w's round-1 flow to q runs to 19 chunks. w's
// mesh writer is held at the first of them, so q reads nothing of that flow,
// and still w ends its send phase: the second hold catches its round-1 done
// record on the control link. Released, the run ends byte-identical to seq.
func TestSenderNeverWaitsOnItsReceiver(t *testing.T) {
	const p, w, q = 3, 0, 1
	g := graph.BarabasiAlbert(1000, 4, 7)
	opt := core.Options{Rounds: core.TForEpsilon(g.N(), 0.5), Lambda: quantize.NewPowerGrid(0.1)}
	ref, refMet := core.RunDistributed(g, opt, dist.SeqEngine{})
	faults := faultnet.New(
		faultnet.Fault{Shard: w, Peer: q, Type: recPeerFrame, Body: opening(nil, w, q, 1), Action: faultnet.Hold},
		faultnet.Fault{Shard: w, Peer: faultnet.Control, Type: recStreamDone, Body: opening(nil, 1), Action: faultnet.Hold})
	e := streamEngine(p, shard.Hash{})
	e.ChunkBytes = 64
	e.wrap = faults.Wrap
	var res *core.Result
	var met dist.Metrics
	sent := false
	cell(t, func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			res, met = core.RunDistributed(g, opt, e)
		}()
		deadline := time.Now().Add(10 * time.Second)
		for !faults.Fired(1) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		sent = faults.Fired(1)
		faults.Release()
		<-done
	})
	if !sent {
		t.Errorf("worker %d did not end its round-1 sends while its flow to %d was held", w, q)
	}
	if met != refMet || !reflect.DeepEqual(res.B, ref.B) {
		t.Errorf("metrics %+v, want %+v (values equal: %v)", met, refMet, reflect.DeepEqual(res.B, ref.B))
	}
}

// A link's cursor walks the retained log: a successor attached once the log
// has grown into several blocks is written every record from byte 0, in order,
// each once, and a record logged while that resend is under way follows them.
// Every block holds whole records.
func TestSuccessorIsWrittenTheWholeLog(t *testing.T) {
	emptyFreeList() // the log starts in new blocks, not in a released mesh's
	m := newMesh(meshConfig{Self: 0, P: 2})
	defer m.Close()
	go m.writeAll()
	if err := m.beginRound(0, func() {}); err != nil {
		t.Fatal(err)
	}
	chunk := func(i int) {
		t.Helper()
		if err := m.sendChunk(1, bytes.Repeat([]byte{byte(i)}, 100), 1); err != nil {
			t.Fatal(err)
		}
	}
	const n = 40 // 107-byte records: past three blocks of the log
	for i := range n {
		chunk(i)
	}
	if _, err := m.sendEnd(1, int64(n), 0, 0); err != nil {
		t.Fatal(err)
	}
	type rec struct {
		typ  byte
		body []byte
	}
	retained := func() (log []rec, blocks int) {
		t.Helper()
		m.mu.Lock()
		defer m.mu.Unlock()
		p := &m.peers[1]
		for _, b := range p.log[:p.nlog] {
			for len(b) > 0 {
				size, k := binary.Uvarint(b)
				if k <= 0 || size == 0 || k+int(size) > len(b) {
					t.Fatalf("block %d of the log does not end on a record", blocks)
				}
				log = append(log, rec{b[k], append([]byte(nil), b[k+1:k+int(size)]...)})
				b = b[k+int(size):]
			}
			blocks++
		}
		return log, blocks
	}
	log, blocks := retained()
	if blocks < 4 || len(log) != n+1 {
		t.Fatalf("log of %d records in %d blocks, want %d in 4 or more", len(log), blocks, n+1)
	}
	expect := func(c *Conn, i int, want rec) {
		t.Helper()
		typ, body, err := c.AwaitRecord()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if typ != want.typ || !bytes.Equal(body, want.body) {
			t.Fatalf("record %d is type %d %x, want type %d %x", i, typ, body, want.typ, want.body)
		}
	}
	// The first link takes part of the log, then a successor replaces it.
	a, b := stdnet.Pipe()
	m.attach(1, 0, NewConn(a))
	first := NewConn(b)
	for i := range 3 {
		expect(first, i, log[i])
	}
	a, b = stdnet.Pipe()
	m.attach(1, 1, NewConn(a))
	first.Close()
	next := NewConn(b)
	expect(next, 0, log[0])
	chunk(n) // logged mid-resend
	log, _ = retained()
	for i := 1; i < len(log); i++ {
		expect(next, i, log[i])
	}
	// Nothing was written twice: the next record on the link is the next one logged.
	chunk(n + 1)
	log, _ = retained()
	expect(next, len(log)-1, log[len(log)-1])
}

// The mesh's wire counters are pinned to one fixed run's:
// BarabasiAlbert(1 000, 4, 7) at P = 3 over pipes with ChunkBytes 256, each
// worker's StreamWire — the bytes (each record's type byte and payload, its
// length prefix not counted) and chunk records it sent, and the chunk bytes it
// processed. How the log holds a record must not move one counted byte.
func TestStreamWireCountersPinned(t *testing.T) {
	g := graph.BarabasiAlbert(1000, 4, 7)
	e := NewEngine(3, shard.Hash{})
	e.Stream, e.ChunkBytes = true, 256
	core.RunDistributed(g, core.Options{Rounds: core.TForEpsilon(g.N(), 0.5)}, e)
	want := []codec.StreamWire{
		{Sent: 17465, Recv: 16836, Chunks: 84},
		{Sent: 18623, Recv: 16750, Chunks: 86},
		{Sent: 16836, Recv: 17348, Chunks: 80},
	}
	if got := e.StreamWire(); !reflect.DeepEqual(got, want) {
		t.Errorf("StreamWire %+v, want %+v", got, want)
	}
}

// meshWriters counts the goroutines standing in a mesh writer function.
func meshWriters() int {
	buf := make([]byte, 1<<23)
	n := 0
	for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
		if bytes.Contains(g, []byte("net.(*mesh).write")) {
			n++
		}
	}
	return n
}

// The streamed ledger must price frames identically to the relay path: the
// ClusterMetrics of a streamed run and a relay run of the same execution
// are the same struct, chunking notwithstanding.
func TestStreamLedgerMatchesRelay(t *testing.T) {
	g := graph.BarabasiAlbert(300, 4, 13)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T, Lambda: quantize.NewPowerGrid(0.1)}

	relay := NewEngine(4, shard.Greedy{})
	_, relayMet := core.RunDistributed(g, opt, relay)

	e := streamEngine(4, shard.Greedy{})
	_, met := core.RunDistributed(g, opt, e)
	if met != relayMet {
		t.Fatalf("metrics %+v, want %+v", met, relayMet)
	}
	if lg, rl := e.ClusterMetrics(), relay.ClusterMetrics(); !reflect.DeepEqual(lg, rl) {
		t.Fatalf("streamed ledger %+v, relay ledger %+v", lg, rl)
	}
}

// Engine names must encode the streamed mode so benchmark rows and test
// failures identify the transport: suffix ordering is pinned here.
func TestStreamEngineName(t *testing.T) {
	e := streamEngine(4, shard.Hash{})
	if got, want := e.Name(), "net:4/hash/stream"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
}

func init() {
	// Guard against accidentally committing a soak-gated default.
	if os.Getenv("DKC_SCALE_SOAK") != "" {
		fmt.Fprintln(os.Stderr, "net: DKC_SCALE_SOAK armed — P=64 mesh soak enabled")
	}
}
