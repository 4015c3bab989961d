package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"distkcore/internal/dist"
	"distkcore/internal/exact"
	"distkcore/internal/graph"
	"distkcore/internal/net"
	"distkcore/internal/shard"
)

// asyncBudget is the budget RunAsyncElimination says always quiesces: (R+1)·D.
func asyncBudget(g *graph.Graph, d DelayModel) int {
	_, R := ExactCoreness(g)
	return (R + 1) * int(math.Round(d.Base+d.Jitter))
}

func runAsync(g *graph.Graph, d DelayModel) (*AsyncResult, dist.Metrics) {
	return RunAsyncElimination(g, d, asyncBudget(g, d), dist.SeqEngine{})
}

func TestAsyncConvergesToExactCoreness(t *testing.T) {
	for name, g := range testGraphs(31) {
		want := exactCorenessRef(g)
		res, _ := runAsync(g, DelayModel{Base: 1, Jitter: 0, Seed: 1})
		if !res.Quiesced {
			t.Fatalf("%s: the (R+1)·D budget did not quiesce", name)
		}
		for v := 0; v < g.N(); v++ {
			if math.Abs(res.B[v]-want[v]) > 1e-9 {
				t.Fatalf("%s: async b(%d)=%v, coreness %v", name, v, res.B[v], want[v])
			}
		}
	}
}

func TestAsyncOrderIndependence(t *testing.T) {
	// Wildly different delay schedules must reach the same fixpoint.
	g := graph.BarabasiAlbert(80, 3, 17)
	want := exactCorenessRef(g)
	for _, d := range []DelayModel{
		{Base: 1, Jitter: 0, Seed: 1},
		{Base: 1, Jitter: 10, Seed: 2},
		{Base: 3.5, Jitter: 100, Seed: 3},
	} {
		res, _ := runAsync(g, d)
		if !res.Quiesced {
			t.Fatalf("delay %+v: the (R+1)·D budget did not quiesce", d)
		}
		for v := 0; v < g.N(); v++ {
			if math.Abs(res.B[v]-want[v]) > 1e-9 {
				t.Fatalf("delay %+v: node %d got %v, want %v", d, v, res.B[v], want[v])
			}
		}
	}
}

func TestAsyncVirtualTimeTracksSyncRounds(t *testing.T) {
	// With unit delays the asynchronous run is the synchronous schedule: the
	// last value is sent in the last round the synchronous run moves.
	g := graph.Path(60)
	_, rounds := ExactCoreness(g)
	res, _ := runAsync(g, DelayModel{Base: 1, Jitter: 0, Seed: 4})
	if res.Makespan > rounds+1 || res.Makespan < rounds-1 {
		t.Fatalf("async makespan %d vs sync rounds %d", res.Makespan, rounds)
	}
	if res.Makespan < 2 {
		t.Fatalf("implausibly fast: %d", res.Makespan)
	}
}

func TestAsyncQuiescenceMessageCount(t *testing.T) {
	// A clique stabilizes immediately after the first exchange: everyone's
	// degree n-1 is already the coreness, so nobody re-announces.
	g := graph.Clique(10)
	res, met := runAsync(g, DelayModel{Base: 1, Seed: 5})
	for v := 0; v < 10; v++ {
		if res.B[v] != 9 {
			t.Fatalf("clique async b=%v", res.B[v])
		}
	}
	// exactly the first values: 10 nodes × 9 neighbors
	if met.Messages != 90 || !res.Quiesced {
		t.Fatalf("messages=%d quiesced=%v, want 90 and true", met.Messages, res.Quiesced)
	}
}

func TestAsyncRoundBudgetRespected(t *testing.T) {
	g := graph.BarabasiAlbert(100, 3, 6)
	res, met := RunAsyncElimination(g, DelayModel{Base: 1, Jitter: 1, Seed: 7}, 3, dist.SeqEngine{})
	if met.Rounds > 3 || res.Makespan > 3 {
		t.Fatalf("rounds=%d makespan=%d exceeded the budget 3", met.Rounds, res.Makespan)
	}
	if res.Quiesced {
		t.Fatal("a budget-cut run must not report quiescence")
	}
}

func TestAsyncJitterStretchesMakespan(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, 3)
	r0, _ := runAsync(g, DelayModel{Base: 1, Jitter: 0, Seed: 3})
	r1, _ := runAsync(g, DelayModel{Base: 1, Jitter: 10, Seed: 3})
	if !(r1.Makespan > r0.Makespan) {
		t.Fatalf("jitter did not stretch makespan: %d vs %d", r1.Makespan, r0.Makespan)
	}
}

// The old event-queue simulator accepted any delay and so could deliver a
// value before it was sent; a round network cannot, and says so.
func TestDelayModelRejectsNonRoundDelays(t *testing.T) {
	g := graph.Path(4)
	for _, d := range []DelayModel{
		{Base: 0.5},
		{Base: 0},
		{Base: math.NaN()},
		{Base: 1, Jitter: -1},
		{Base: 1, Jitter: math.NaN()},
		{Base: 1, Jitter: math.Inf(1)},
	} {
		mustPanic(t, fmt.Sprintf("DelayModel %+v", d), func() {
			RunAsyncElimination(g, d, 10, dist.SeqEngine{})
		})
	}
}

// After Init, the asynchronous hot path — Advance, the delay line, the sends —
// must not allocate per round or per value: a run's allocations are init-bound
// plus the growth of buffers to their high-water marks (a node's delay line,
// at its first move and again when its values overlap; the engine's
// per-sender send queues), a few per node however long the run goes on. A
// per-value allocation would add one for each of the full run's ~16 000 sends.
func TestAsyncRecomputeAllocationFree(t *testing.T) {
	g := graph.BarabasiAlbert(400, 4, 6)
	d := DelayModel{Base: 1, Jitter: 50, Seed: 2}
	full := asyncBudget(g, d)
	const short = 8
	cutMsgs, fullMsgs := 0, 0
	cut := testing.AllocsPerRun(3, func() {
		_, met := RunAsyncElimination(g, d, short, dist.SeqEngine{})
		cutMsgs = int(met.Messages)
	})
	whole := testing.AllocsPerRun(3, func() {
		_, met := RunAsyncElimination(g, d, full, dist.SeqEngine{})
		fullMsgs = int(met.Messages)
	})
	if fullMsgs < 4*max(cutMsgs, 1) {
		t.Fatalf("test premise broken: full run sent %d values, the cut one %d", fullMsgs, cutMsgs)
	}
	if whole > cut+3*float64(g.N()) {
		t.Errorf("allocations scale with the run: %.0f over %d rounds vs %.0f over %d", whole, full, cut, short)
	}
	if cut > float64(10*g.N()) {
		t.Errorf("async init allocates %.0f objects for %d nodes — per-node structures regressed", cut, g.N())
	}
}

// The asynchronous elimination is an ordinary Program: on every engine it
// computes the same values, sends the same messages and ends in the same
// round, and the values are the exact coreness — on weighted multigraphs with
// self-loops too.
func TestAsyncEliminationSameOnEveryEngine(t *testing.T) {
	stream := net.NewEngine(4, shard.Greedy{})
	stream.Stream = true
	engines := []struct {
		name string
		eng  dist.Engine
	}{
		{"par:3", dist.ParEngine{W: 3}},
		{"shard:4", shard.NewEngine(4, shard.Greedy{})},
		{"net:4 stream", stream},
	}
	graphs := testGraphs(5)
	graphs["loopy"] = LoopyMultigraph(90, 5)
	for name, g := range graphs {
		want := exact.CoresWeighted(g)
		for _, jitter := range []float64{0, 1, 10} {
			d := DelayModel{Base: 1, Jitter: jitter, Seed: 11}
			ref, refMet := runAsync(g, d)
			if !ref.Quiesced {
				t.Fatalf("%s jitter %v: the (R+1)·D budget did not quiesce", name, jitter)
			}
			for v, c := range want {
				if math.Abs(ref.B[v]-c) > 1e-9 {
					t.Fatalf("%s jitter %v: b(%d) = %v, coreness %v", name, jitter, v, ref.B[v], c)
				}
			}
			for _, e := range engines {
				res, met := RunAsyncElimination(g, d, asyncBudget(g, d), e.eng)
				if met != refMet || !reflect.DeepEqual(res, ref) {
					t.Fatalf("%s jitter %v on %s: %+v, makespan %d; seq %+v, makespan %d",
						name, jitter, e.name, met, res.Makespan, refMet, ref.Makespan)
				}
			}
		}
	}
}
