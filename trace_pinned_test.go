// Pinned-transcript regression tests for the observability layer (PR 7,
// DESIGN.md §11). Two properties are asserted:
//
//  1. The deterministic transcript of a traced run is a pure function of
//     the execution — the tiny run below is pinned byte for byte, so any
//     drift in what the tracer records (phases, counts, bytes, ordering)
//     shows up as a literal diff.
//  2. Tracing cannot perturb executions: every engine run with a live
//     tracer produces exactly the Metrics and bit-identical values of the
//     untraced run. This is the observability twin of the PR 3 pinned
//     captures — a tracer that changed a single byte would break the
//     engines' byte-identity contract.
package distkcore_test

import (
	"math"
	"testing"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	dnet "distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/session"
	"distkcore/internal/shard"
)

// TestPinnedSeqTranscript pins the full transcript of a 3-round coreness
// run on a 6-node cycle with one chord, traced on the sequential reference
// engine. The counts are deterministic protocol facts: 6 nodes stepped per
// round; a silent Init; round 1, in which every value moves from +∞ to the
// node's degree, delivered as 14 directed messages (2 per edge) at 9 wire
// bytes each; round 2, in which only the chord's endpoints move (3 → 2) and
// tell their 3 neighbors each (DESIGN.md §2); and a final empty deliver after
// the last step.
func TestPinnedSeqTranscript(t *testing.T) {
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}} {
		b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), 1)
	}
	g := b.Build()
	tr := obs.NewTracer()
	core.RunDistributed(g, core.Options{Rounds: 3}, dist.SeqEngine{Trace: tr})
	want := "span round=0 worker=-1 phase=step count=6\n" +
		"span round=0 worker=-1 phase=deliver\n" +
		"span round=1 worker=-1 phase=step count=6\n" +
		"span round=1 worker=-1 phase=deliver bytes=126 count=14\n" +
		"span round=2 worker=-1 phase=step count=6\n" +
		"span round=2 worker=-1 phase=deliver bytes=54 count=6\n" +
		"span round=3 worker=-1 phase=step count=6\n" +
		"span round=3 worker=-1 phase=deliver\n"
	if got := tr.Trace().Transcript(); got != want {
		t.Errorf("pinned transcript drifted:\n got:\n%s\n want:\n%s", got, want)
	}
}

// TestTranscriptRerunIdentical runs the same traced execution twice on
// fresh tracers: the transcripts must be byte-equal (the canonical order
// depends only on the execution, never on the clock or scheduler). The
// concurrent engines are the interesting cases: the shard engine records its
// spans from concurrent goroutines, and the pool's workers pull a round's
// nodes off one cursor, so how many hooks each of them ran is the scheduler's
// business — a step span of theirs carries no count, the round's total is on
// worker 0's.
func TestTranscriptRerunIdentical(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 2)
	for _, eng := range []struct {
		name string
		mk   func(tr *obs.Tracer) dist.Engine
	}{
		{"shard:3", func(tr *obs.Tracer) dist.Engine {
			e := shard.NewEngine(3, shard.Greedy{})
			e.SetTracer(tr)
			return e
		}},
		{"par:3", func(tr *obs.Tracer) dist.Engine { return dist.ParEngine{W: 3, Trace: tr} }},
		{"par:8", func(tr *obs.Tracer) dist.Engine { return dist.ParEngine{W: 8, Trace: tr} }},
	} {
		run := func() string {
			tr := obs.NewTracer()
			core.RunDistributed(g, core.Options{Rounds: 6}, eng.mk(tr))
			return tr.Trace().Transcript()
		}
		a, b := run(), run()
		if a != b {
			t.Errorf("%s: two runs of one execution produced different transcripts:\n--- first\n%s--- second\n%s", eng.name, a, b)
		}
		if a == "" {
			t.Errorf("%s: traced run produced an empty transcript", eng.name)
		}
	}
}

// TestTracingPreservesExecutions runs coreness on all four direct engines
// with and without a tracer and demands identical Metrics and bit-identical
// values — the zero-interference contract of DESIGN.md §11.
func TestTracingPreservesExecutions(t *testing.T) {
	g := graph.BarabasiAlbert(400, 3, 2)
	T := core.TForEpsilon(g.N(), 0.5)
	engines := []struct {
		name string
		mk   func(tr *obs.Tracer) dist.Engine
	}{
		{"seq", func(tr *obs.Tracer) dist.Engine { return dist.SeqEngine{Trace: tr} }},
		{"par", func(tr *obs.Tracer) dist.Engine { return dist.ParEngine{Trace: tr} }},
		{"par4", func(tr *obs.Tracer) dist.Engine { return dist.ParEngine{W: 4, Trace: tr} }},
		{"shard3", func(tr *obs.Tracer) dist.Engine {
			e := shard.NewEngine(3, shard.Greedy{})
			e.SetTracer(tr)
			return e
		}},
		{"net2", func(tr *obs.Tracer) dist.Engine {
			e := dnet.NewEngine(2, shard.Greedy{})
			e.SetTracer(tr)
			return e
		}},
	}
	for _, eng := range engines {
		plainRes, plainMet := core.RunDistributed(g, core.Options{Rounds: T}, eng.mk(nil))
		tr := obs.NewTracer()
		tracedRes, tracedMet := core.RunDistributed(g, core.Options{Rounds: T}, eng.mk(tr))
		if plainMet != tracedMet {
			t.Errorf("%s: tracing changed the Metrics:\n plain  %+v\n traced %+v", eng.name, plainMet, tracedMet)
		}
		for v := range plainRes.B {
			if math.Float64bits(plainRes.B[v]) != math.Float64bits(tracedRes.B[v]) {
				t.Fatalf("%s: tracing changed node %d's value: %v vs %v", eng.name, v, plainRes.B[v], tracedRes.B[v])
			}
		}
		if rt := tr.Trace(); len(rt.Spans) == 0 {
			t.Errorf("%s: traced run collected no spans", eng.name)
		}
	}
}

// TestTracingPreservesSessionEpochs is the fifth surface: a traced session
// seals the same digest chain as an untraced one over identical epochs.
func TestTracingPreservesSessionEpochs(t *testing.T) {
	g := graph.BarabasiAlbert(250, 3, 2)
	tr := obs.NewTracer()
	plain, err := session.Open(g, session.Options{P: 2, Rounds: 7, Part: shard.Greedy{}})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	traced, err := session.Open(g, session.Options{P: 2, Rounds: 7, Part: shard.Greedy{}, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()
	cur := g
	for e := 1; e <= 2; e++ {
		d := dist.RandomChurn(cur, 20, int64(e))
		rp, err1 := plain.Push(d, 0)
		rt, err2 := traced.Push(d, 0)
		if err1 != nil || err2 != nil {
			t.Fatalf("epoch %d: plain %v, traced %v", e, err1, err2)
		}
		if rp.ChainDigest != rt.ChainDigest {
			t.Fatalf("epoch %d: tracing changed the chain: %#x vs %#x", e, rp.ChainDigest, rt.ChainDigest)
		}
		if cur, err = d.Apply(cur); err != nil {
			t.Fatal(err)
		}
	}
}
