package dist

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"distkcore/internal/graph"
	"distkcore/internal/obs"
)

// --- worker-pool equivalence across W --------------------------------------

// TestParPoolMatchesSeqAcrossWorkerCounts drives the stateful trace protocol
// (which is NOT fusible — it logs every round) through the pool at worker
// counts below, at and above GOMAXPROCS and the node count, demanding the
// byte-identical executions the engine contract promises: same Metrics, same
// per-node transcripts.
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

// --- round fusion ----------------------------------------------------------

// fuseMin is a change-driven minimum flood that opts into round fusion: it
// broadcasts only when its minimum improves, never halts, never reads
// Ctx.Round() in Round, and touches nothing but its own state — so a Round
// call with an empty inbox is a pure no-op, exactly the Fusible contract.
// Once a region has converged its nodes receive nothing and send nothing,
// which is the workload fusion exists for.
type fuseMin struct {
	id  graph.NodeID
	min float64
}

func (p *fuseMin) RoundFusionSafe() bool { return true }

func (p *fuseMin) Init(c *Ctx) {
	p.min = float64(p.id)
	c.Broadcast(Message{F0: p.min})
}

func (p *fuseMin) Round(c *Ctx, inbox []Message) {
	changed := false
	for _, m := range inbox {
		if m.F0 < p.min {
			p.min = m.F0
			changed = true
		}
	}
	if changed {
		c.Broadcast(Message{F0: p.min})
	}
}

// runFuseMin executes the fusible flood on eng with a tracer and returns the
// final minima, the Metrics and the trace.
func runFuseMin(g *graph.Graph, budget int, eng Engine) ([]float64, Metrics, *obs.RunTrace) {
	tr := obs.NewTracer()
	switch e := eng.(type) {
	case SeqEngine:
		e.Trace = tr
		eng = e
	case ParEngine:
		e.Trace = tr
		eng = e
	}
	progs := make([]*fuseMin, g.N())
	met := eng.Run(g, func(v graph.NodeID) Program {
		progs[v] = &fuseMin{id: v}
		return progs[v]
	}, budget)
	vals := make([]float64, g.N())
	for v, p := range progs {
		vals[v] = p.min
	}
	return vals, met, tr.Trace()
}

// deliverSpans extracts the (round, bytes, count) sequence of the deliver
// spans in canonical order — the part of the trace the fused path must
// reproduce exactly (step spans legitimately differ: the pool skips no-op
// hooks seq still runs).
func deliverSpans(rt *obs.RunTrace) [][3]int64 {
	var out [][3]int64
	for _, s := range rt.Spans {
		if s.Phase == obs.PhaseDeliver {
			out = append(out, [3]int64{int64(s.Round), s.Bytes, s.Count})
		}
	}
	return out
}

// TestFusedRunsBitIdenticalToSeq is the fused-path equivalence sweep: on
// generator×seed graphs with long post-convergence tails, every worker count
// must reproduce seq's values, Metrics and deliver spans bit for bit even
// though the pool stops calling Round on converged regions.
func TestFusedRunsBitIdenticalToSeq(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ba/s2":    graph.BarabasiAlbert(120, 3, 2),
		"ba/s9":    graph.BarabasiAlbert(150, 2, 9),
		"ws/s5":    graph.WattsStrogatz(100, 6, 0.1, 5),
		"er/s3":    graph.ErdosRenyi(80, 0.05, 3),
		"caveman":  graph.Caveman(5, 6),
		"isolated": graph.ErdosRenyi(60, 0.015, 4),
	}
	const budget = 40 // far past convergence: a long fully-fused tail
	for name, g := range graphs {
		seqVals, seqMet, seqTr := runFuseMin(g, budget, SeqEngine{})
		for _, w := range []int{1, 2, 4, 8} {
			vals, met, tr := runFuseMin(g, budget, ParEngine{W: w})
			if met != seqMet {
				t.Fatalf("%s W=%d: metrics differ: seq %+v par %+v", name, w, seqMet, met)
			}
			for v := range vals {
				if math.Float64bits(vals[v]) != math.Float64bits(seqVals[v]) {
					t.Fatalf("%s W=%d node %d: value %v, seq %v", name, w, v, vals[v], seqVals[v])
				}
			}
			if !reflect.DeepEqual(deliverSpans(tr), deliverSpans(seqTr)) {
				t.Fatalf("%s W=%d: deliver spans diverged from seq:\npar: %v\nseq: %v",
					name, w, deliverSpans(tr), deliverSpans(seqTr))
			}
		}
	}
}

// TestFusionActuallySkips pins that fusion is not vacuous: on a clustered
// graph whose regions converge quickly, the pool must report skipped node
// rounds — including whole-range skips once a worker's entire slice of the
// arena goes quiet — while still matching seq bit for bit (checked above;
// here we assert the counters and the Stats ledger shape).
func TestFusionActuallySkips(t *testing.T) {
	g := graph.Caveman(4, 6)
	const budget = 30
	for _, w := range []int{1, 2, 4} {
		var st ParStats
		vals, _, _ := runFuseMin(g, budget, ParEngine{W: w, Stats: &st})
		_ = vals
		if st.Workers != w {
			t.Fatalf("W=%d: Stats.Workers = %d", w, st.Workers)
		}
		if st.FusedNodeRounds == 0 {
			t.Fatalf("W=%d: converged-region run fused no node rounds: %+v", w, st)
		}
		if st.FusedRanges == 0 {
			t.Fatalf("W=%d: no whole-range skips on a fully converged graph: %+v", w, st)
		}
		if st.SteppedNodes == 0 || st.SteppedNodes >= int64(budget+1)*int64(g.N()) {
			t.Fatalf("W=%d: implausible SteppedNodes %d", w, st.SteppedNodes)
		}
	}
	// A non-fusible program must never fuse, whatever the topology.
	var st ParStats
	e := ParEngine{W: 2, Stats: &st}
	runTrace(g, 6, e)
	if st.FusedNodeRounds != 0 || st.FusedRanges != 0 {
		t.Fatalf("non-fusible program was fused: %+v", st)
	}
}

// TestFusionStatsDeterministic reruns one fused workload and demands the
// identical ledger — the counters are functions of the execution, not of
// goroutine scheduling.
func TestFusionStatsDeterministic(t *testing.T) {
	g := graph.Caveman(4, 6)
	run := func() ParStats {
		var st ParStats
		runFuseMin(g, 25, ParEngine{W: 4, Stats: &st})
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical fused runs produced different stats:\n%+v\n%+v", a, b)
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
