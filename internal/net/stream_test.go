package net

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// Streamed-mesh specific properties (DESIGN.md §14). Byte-identity of the
// streamed engine against seq is pinned by the equivalence and recovery
// sweeps; the tests here pin the *transport* claims — that the hypercube
// topology actually relays, that no worker funnels the cluster's traffic at
// any P (the busiest one stays within 2× the mean), and that a P=64 mesh
// over pipes survives a full run without leaking goroutines.

func streamEngine(p int, part shard.Partitioner) *Engine {
	e := NewEngine(p, part)
	e.Stream = true
	e.ChunkBytes = 512 // force multi-chunk flows and window refills
	return e
}

// maxWorkerWire is the heaviest per-worker data-plane load: bytes a worker
// put on mesh links for any reason, own frames and relayed hops alike.
func maxWorkerWire(e *Engine) int64 {
	var max int64
	for _, w := range e.StreamWire() {
		if v := w.Sent + w.Relayed; v > max {
			max = v
		}
	}
	return max
}

func totalWorkerWire(e *Engine) int64 {
	var tot int64
	for _, w := range e.StreamWire() {
		tot += w.Sent + w.Relayed
	}
	return tot
}

// An eight-worker mesh below the threshold routes e-cube: frames between
// non-adjacent hypercube nodes must traverse intermediate workers, and the
// run must stay byte-identical to seq while doing so.
func TestStreamHypercubeRelays(t *testing.T) {
	g := graph.BarabasiAlbert(400, 5, 7)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T, Lambda: quantize.NewPowerGrid(0.1)}
	ref, refMet := core.RunDistributed(g, opt, dist.SeqEngine{})

	e := streamEngine(8, shard.Hash{})
	e.MeshThreshold = 8
	res, met := core.RunDistributed(g, opt, e)
	if met != refMet {
		t.Fatalf("cube metrics %+v, want %+v", met, refMet)
	}
	if !reflect.DeepEqual(res.B, ref.B) {
		t.Fatal("cube B vector diverges from seq")
	}
	wire := e.StreamWire()
	var relayed int64
	for _, w := range wire {
		relayed += w.Relayed
	}
	if relayed == 0 {
		t.Fatalf("hypercube mesh never relayed a byte: %+v", wire)
	}
	// A P=8 cube has diameter 3: workers 0 and 7 differ in every bit, so at
	// least one interior worker must have carried third-party traffic.
	interior := 0
	for s, w := range wire {
		if w.Relayed > 0 {
			interior++
			t.Logf("worker %d relayed %d bytes", s, w.Relayed)
		}
	}
	if interior == 0 {
		t.Fatal("no worker recorded relay traffic")
	}
}

// No single endpoint may funnel the cluster's traffic — the whole point of
// the mesh — at any P. At P=16 the default threshold flips the topology to
// the hypercube, so this also covers cube selection without a forced
// override.
func TestStreamWireFlatAcrossP(t *testing.T) {
	g := graph.BarabasiAlbert(800, 5, 9)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T, Lambda: quantize.NewPowerGrid(0.1)}
	ref, refMet := core.RunDistributed(g, opt, dist.SeqEngine{})

	for _, p := range []int{4, 16} {
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
// until they reach the degree, and the cube adds log P relay hops on top —
// the per-worker maximum need not fall as P grows. What the mesh promises is
// that the load stays spread.
func checkNoFunnel(t *testing.T, p int, e *Engine) {
	t.Helper()
	if max, tot := maxWorkerWire(e), totalWorkerWire(e); max*int64(p) > 2*tot {
		t.Fatalf("P=%d: busiest worker carries %d bytes, over 2× the mean of %d", p, max, tot/int64(p))
	}
}

// P=64 pipe soak, gated behind DKC_SCALE_SOAK=1: a 6-dimensional hypercube
// (64 workers, 384 goroutine-backed data links plus control conns) runs a
// full protocol byte-identical to seq, no worker funnels the traffic, and
// the whole apparatus drains without leaking a goroutine.
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

// The streamed ledger must price frames identically to the relay path: the
// ClusterMetrics of a streamed run and a relay run of the same execution
// are the same struct, chunking and topology notwithstanding.
func TestStreamLedgerMatchesRelay(t *testing.T) {
	g := graph.BarabasiAlbert(300, 4, 13)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T, Lambda: quantize.NewPowerGrid(0.1)}

	relay := NewEngine(4, shard.Greedy{})
	_, relayMet := core.RunDistributed(g, opt, relay)

	for _, threshold := range []int{0, 4} {
		e := streamEngine(4, shard.Greedy{})
		e.MeshThreshold = threshold
		_, met := core.RunDistributed(g, opt, e)
		if met != relayMet {
			t.Fatalf("threshold=%d metrics %+v, want %+v", threshold, met, relayMet)
		}
		if lg, rl := e.ClusterMetrics(), relay.ClusterMetrics(); !reflect.DeepEqual(lg, rl) {
			t.Fatalf("threshold=%d streamed ledger %+v, relay ledger %+v", threshold, lg, rl)
		}
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
