package dist

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"distkcore/internal/graph"
)

// --- worker-pool equivalence across W --------------------------------------

// TestParPoolMatchesSeqAcrossWorkerCounts drives the stateful trace protocol
// (it logs every round) through the pool at worker counts below, at and above
// GOMAXPROCS and the node count, demanding the byte-identical executions the
// engine contract promises: same Metrics, same per-node transcripts.
func TestParPoolMatchesSeqAcrossWorkerCounts(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ba":       graph.BarabasiAlbert(90, 3, 5),
		"er":       graph.ErdosRenyi(70, 0.06, 2),
		"sparse":   graph.ErdosRenyi(50, 0.02, 3), // has isolated nodes
		"star":     graph.Star(30),
		"twonodes": graph.Path(2),
	}
	for name, g := range graphs {
		seqSink, seqMet := runTrace(g, 5, SeqEngine{})
		for _, w := range []int{1, 2, 3, 4, 8, 64} {
			parSink, parMet := runTrace(g, 5, ParEngine{W: w})
			if seqMet != parMet {
				t.Fatalf("%s W=%d: metrics differ: seq %+v par %+v", name, w, seqMet, parMet)
			}
			for v := 0; v < g.N(); v++ {
				if !reflect.DeepEqual(seqSink.lines[v], parSink.lines[v]) {
					t.Fatalf("%s W=%d node %d: transcripts differ:\nseq: %v\npar: %v",
						name, w, v, seqSink.lines[v], parSink.lines[v])
				}
			}
		}
	}
}

// --- pool lifecycle --------------------------------------------------------

// TestParPoolShutdownNoLeakOnEarlyExit is the shutdown regression for the
// pool rewrite: a run whose nodes all halt in Init exits the round loop
// immediately, and the workers must still be torn down by the single
// deferred close — no goroutine may outlive Run. (The old engine allocated
// n channels per run and closed them only on the normal path.) Run under
// -race in CI.
func TestParPoolShutdownNoLeakOnEarlyExit(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 1)
	before := runtime.NumGoroutine()
	for i := 0; i < 25; i++ {
		ParEngine{W: 8}.Run(g, func(graph.NodeID) Program { return haltOnInit{} }, 50)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("worker goroutines leaked: %d before, %d after 25 early-exit runs", before, got)
	}
}

// --- the Driver range seam -------------------------------------------------

// TestDriverStepRange drives the trace protocol through Driver.StepRange in
// two uneven blocks and demands the execution equal seq's — the external
// form of the pool's scheduling contract (any range cover between barriers,
// then one Deliver).
func TestDriverStepRange(t *testing.T) {
	g := graph.BarabasiAlbert(120, 3, 4)
	const T = 6
	seqSink, seqMet := runTrace(g, T, SeqEngine{})

	sink := &traceSink{lines: make([][]string, g.N())}
	d := NewDriver(g, nil, func(v graph.NodeID) Program {
		return &traceProgram{id: v, T: T, sink: sink}
	})
	mid := g.N() / 3
	step := func(t int) int {
		s1 := d.StepRange(0, mid, t)
		s2 := d.StepRange(mid, g.N(), t)
		d.Deliver(nil)
		return s1 + s2
	}
	if got := step(0); got != g.N() {
		t.Fatalf("init wave stepped %d of %d nodes", got, g.N())
	}
	rounds := 0
	for t2 := 1; t2 <= T+2 && d.Alive() > 0; t2++ {
		rounds = t2
		step(t2)
	}
	met := d.Finish(rounds)
	if met != seqMet {
		t.Fatalf("StepRange execution metrics %+v, seq %+v", met, seqMet)
	}
	for v := 0; v < g.N(); v++ {
		if !reflect.DeepEqual(seqSink.lines[v], sink.lines[v]) {
			t.Fatalf("node %d: StepRange transcript %v, seq %v", v, sink.lines[v], seqSink.lines[v])
		}
	}
}

// TestDriverStepListAndTap drives the same protocol through Driver.StepList
// over two interleaved (non-contiguous) node lists, and at every barrier
// holds the transport tap to its definition: Sends is Slot expanded over the
// peers, then Queued — the trace protocol's Init leaves a slot and nothing
// queued, its Rounds a slot and one queued Send.
func TestDriverStepListAndTap(t *testing.T) {
	g := graph.BarabasiAlbert(120, 3, 4)
	const T = 6
	seqSink, seqMet := runTrace(g, T, SeqEngine{})

	sink := &traceSink{lines: make([][]string, g.N())}
	d := NewDriver(g, nil, func(v graph.NodeID) Program {
		return &traceProgram{id: v, T: T, sink: sink}
	})
	var lists [2][]graph.NodeID
	for v := 0; v < g.N(); v++ {
		lists[v%2] = append(lists[v%2], v)
	}
	type copyTo struct {
		to graph.NodeID
		m  Message
	}
	collect := func(dst *[]copyTo) func(graph.NodeID, Message) {
		return func(to graph.NodeID, m Message) { *dst = append(*dst, copyTo{to, m}) }
	}
	rounds := 0
	for t2 := 0; t2 == 0 || (t2 <= T+2 && d.Alive() > 0); t2++ {
		rounds = t2
		alive := d.Alive()
		if got := d.StepList(lists[1], t2) + d.StepList(lists[0], t2); got != alive {
			t.Fatalf("round %d stepped %d of %d live nodes", t2, got, alive)
		}
		for v := 0; v < g.N(); v++ {
			var want, queued, got []copyTo
			m, ok := d.Slot(v)
			if ok {
				for _, to := range g.Peers(v) {
					want = append(want, copyTo{to, m})
				}
			}
			d.Queued(v, collect(&queued))
			d.Sends(v, collect(&got))
			if want = append(want, queued...); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d node %d: Sends %v, Slot × Peers then Queued %v", t2, v, got, want)
			}
			sent := len(sink.lines[v]) == t2 && t2 < T // stepped this round and not halting in it
			wantQueued := 0
			if sent && t2 > 0 && len(g.Peers(v)) > 0 {
				wantQueued = 1
			}
			if ok != sent || len(queued) != wantQueued || (ok && (m.From != v || m.Kind != 1)) {
				t.Fatalf("round %d node %d: slot %+v (%v), %d queued; want slot %v, %d queued", t2, v, m, ok, len(queued), sent, wantQueued)
			}
		}
		d.Deliver(nil)
	}
	if met := d.Finish(rounds); met != seqMet {
		t.Fatalf("StepList execution metrics %+v, seq %+v", met, seqMet)
	}
	for v := 0; v < g.N(); v++ {
		if !reflect.DeepEqual(seqSink.lines[v], sink.lines[v]) {
			t.Fatalf("node %d: StepList transcript %v, seq %v", v, sink.lines[v], seqSink.lines[v])
		}
	}
}

// TestDriverInjectRefusals holds Inject to its contract on the path
// 0 — 1 — 2: what a hook could have sent lands where the hook would have put
// it — read back through the tap and priced by Deliver — and what no hook can
// have sent is an error that leaves the sender's cells as they were. A Vec
// handed to Inject is under the aliasing check like any other sent one.
func TestDriverInjectRefusals(t *testing.T) {
	const bcast = graph.NodeID(-1)
	d := NewDriver(graph.Path(3), nil, func(graph.NodeID) Program { return programFunc{} })
	for i, tc := range []struct {
		from, to graph.NodeID
		want     string // "" means accepted
	}{
		{1, bcast, ""}, {1, 0, ""}, {1, bcast, "not the first send"}, // a second broadcast
		{0, 1, ""}, {0, bcast, "not the first send"}, // a broadcast behind a send
		{2, bcast, ""}, {2, bcast, "not the first send"},
		{0, 2, "not a neighbor"}, {1, 1, "not a neighbor"}, {1, 3, "not a neighbor"},
		{3, bcast, "out of range"}, {-1, 0, "out of range"},
	} {
		err := d.Inject(tc.from, tc.to, Message{F0: float64(i)})
		if (tc.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Fatalf("Inject(%d, %d): %v, want %q", tc.from, tc.to, err, tc.want)
		}
	}
	for v, want := range []struct {
		slot   float64 // -1: none
		queued []graph.NodeID
	}{{-1, []graph.NodeID{1}}, {0, []graph.NodeID{0}}, {5, nil}} {
		m, ok := d.Slot(v)
		var queued []graph.NodeID
		d.Queued(v, func(to graph.NodeID, _ Message) { queued = append(queued, to) })
		if ok != (want.slot >= 0) || (ok && (m.F0 != want.slot || m.From != v)) || !reflect.DeepEqual(queued, want.queued) {
			t.Fatalf("node %d after the injects: slot %+v (%v), queued to %v; want slot %v, queued to %v", v, m, ok, queued, want.slot, want.queued)
		}
	}
	d.Deliver(nil)
	if met := d.Finish(0); met.Messages != 5 { // node 1's slot × 2 peers, node 2's × 1, two sends
		t.Fatalf("the accepted injects priced %d messages, want 5", met.Messages)
	}

	CheckVecAliasing = true
	defer func() {
		CheckVecAliasing = false
		if recover() == nil {
			t.Fatal("a Vec mutated after Inject passed the aliasing check")
		}
	}()
	d = NewDriver(graph.Path(3), nil, func(graph.NodeID) Program { return programFunc{} })
	vec := []float64{1, 2}
	if err := d.Inject(1, bcast, Message{Vec: vec}); err != nil {
		t.Fatal(err)
	}
	vec[0] = 99
	d.Deliver(nil)
}
