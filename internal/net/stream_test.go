package net

import (
	"bytes"
	"fmt"
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
	e.ChunkBytes = 512 // force multi-chunk flows and window refills
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
// every link's queue in turn, so a P = 8 run stands P writers up, not the
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
		Body: opening([]byte{codec.WindowEnd}, w, q, 1), Action: faultnet.Hold})
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
