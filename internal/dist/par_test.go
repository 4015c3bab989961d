package dist

import (
	"math"
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

// --- the barrier -----------------------------------------------------------

// relayProgram is the trace protocol's traffic — a Broadcast of the least ID
// heard of every round, a Send with a Vec to the smallest peer, so every round
// scatters — at a fraction of its cost under -race: instead of formatting a
// line a hook folds its inbox, in order, into one word of the node's row. Two
// engines agree iff the rows do. A node with a stall first waits it out,
// yielding: the worker that took its block holds the phase open while every
// other waiter — the coordinator in the join when a worker holds it, the
// workers on the next generation when the coordinator does — runs through its
// yields and parks. A stall changes nothing a row records.
type relayProgram struct {
	T     int
	min   float64
	row   []uint64 // row[t]: the inbox of round t, folded
	stall time.Duration
}

func (p *relayProgram) Init(c *Ctx) {
	p.min = float64(c.ID())
	c.Broadcast(Message{Kind: 1, F0: p.min})
	if len(c.Peers()) == 0 {
		c.Halt()
	}
}

func (p *relayProgram) Round(c *Ctx, inbox []Message) {
	for t0 := time.Now(); time.Since(t0) < p.stall; {
		runtime.Gosched()
	}
	h := uint64(len(inbox)) + 1
	for _, m := range inbox {
		h = (h*31+uint64(m.From))*31 + uint64(m.Kind)
		h = h*1099511628211 ^ math.Float64bits(m.F0) ^ vecHash(m.Vec)
		p.min = min(p.min, m.F0)
	}
	p.row[c.Round()] = h
	if c.Round() >= p.T {
		c.Halt()
		return
	}
	c.Broadcast(Message{Kind: 1, F0: p.min})
	c.Send(c.Peers()[0], Message{Kind: 2, Vec: []float64{p.min, float64(c.Round())}})
}

// relayFactory builds the relay protocol's programs, T rounds long, recording
// into rows; node stall (if any) stalls d a round.
func relayFactory(T int, rows [][]uint64, stall graph.NodeID, d time.Duration) Factory {
	return func(v graph.NodeID) Program {
		rows[v] = make([]uint64, T+1)
		p := &relayProgram{T: T, row: rows[v]}
		if v == stall {
			p.stall = d
		}
		return p
	}
}

// runRelay runs the relay protocol to its end on e and returns the rows.
func runRelay(g *graph.Graph, T int, e Engine, stall graph.NodeID, d time.Duration) ([][]uint64, Metrics) {
	rows := make([][]uint64, g.N())
	return rows, e.Run(g, relayFactory(T, rows, stall, d), T+2)
}

// TestParPoolBarrierStress runs the pool's hand-off and join through the
// schedules that can break them: more workers than Ps (GOMAXPROCS = 1, W = 8
// must not deadlock), fewer, and as many; every round a scatter (three phases
// a round, a serial prefix pass between two of them); runs with no round at
// all; workers that never get a block; and waits that end before, while and
// after the waiter parks — the stall is swept from nothing to several times
// what parSpin yields take, alternately on a node of the first block (the
// coordinator's, usually) and of the last. Every run is held to SeqEngine on
// Metrics and on the rows, which record each hook's inbox. A lost wake-up is
// a hang (the -timeout), a phase run twice or not at all a row diff. CI runs
// it under -race -count=20.
func TestParPoolBarrierStress(t *testing.T) {
	const T, runs = 3, 200
	relay := func(g *graph.Graph) func(int, Engine) ([][]uint64, Metrics) {
		return func(_ int, e Engine) ([][]uint64, Metrics) { return runRelay(g, T, e, -1, 0) }
	}
	small, twoBlocks := graph.BarabasiAlbert(24, 2, 5), graph.BarabasiAlbert(parChunk+8, 2, 3)
	scenarios := []struct {
		name string
		n    int
		run  func(i int, e Engine) ([][]uint64, Metrics)
	}{
		{"scatter", small.N(), relay(small)},
		{"halt-in-init", small.N(), func(_ int, e Engine) ([][]uint64, Metrics) {
			return nil, e.Run(small, func(graph.NodeID) Program { return haltOnInit{} }, T+2)
		}},
		{"parks", twoBlocks.N(), func(i int, e Engine) ([][]uint64, Metrics) {
			stall := graph.NodeID(1)
			if i%2 == 1 {
				stall = twoBlocks.N() - 1
			}
			return runRelay(twoBlocks, T, e, stall, time.Duration(i/2%50)*4*time.Microsecond)
		}},
		{"capped", 3, relay(graph.Path(3))},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sc := range scenarios {
		seqRows, seqMet := sc.run(0, SeqEngine{})
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for _, w := range []int{2, 3, 8} {
				var stats ParStats
				for i := 0; i < runs; i++ {
					rows, met := sc.run(i, ParEngine{W: w, Stats: &stats})
					if met != seqMet {
						t.Fatalf("%s GOMAXPROCS=%d W=%d run %d: metrics %+v, seq %+v", sc.name, procs, w, i, met, seqMet)
					}
					if !reflect.DeepEqual(rows, seqRows) {
						t.Fatalf("%s GOMAXPROCS=%d W=%d run %d: inboxes differ from seq's", sc.name, procs, w, i)
					}
				}
				if want := min(w, sc.n); stats.Workers != want {
					t.Fatalf("%s W=%d: pool ran %d workers, want %d", sc.name, w, stats.Workers, want)
				}
			}
		}
	}
}

// --- the cursor ------------------------------------------------------------

// coverProgram is the relay protocol counting its own hook invocations per
// round.
type coverProgram struct {
	relayProgram
	calls []int32 // calls[t]: invocations in round t (Init is round 0)
}

func (p *coverProgram) Init(c *Ctx) {
	p.calls[0]++
	p.relayProgram.Init(c)
}

func (p *coverProgram) Round(c *Ctx, inbox []Message) {
	p.calls[c.Round()]++
	p.relayProgram.Round(c, inbox)
}

// TestParChunkCoverMatchesSeq holds the step phase's cursor to its one
// obligation: whatever the node count does to the last block — one node, a
// block short by one, exact, over by one, one short of and one past a block
// per worker, many blocks and a ragged tail — and however many workers find the
// cursor already spent (W = 64 on three blocks), every hook seq runs in a
// round runs exactly once in that round, on the same inbox. Once with both
// integrity checks on — a block stepped twice poisons or re-reads an inbox
// before it double-counts — and once with them off, where the blocks' slots
// are priced block by block and the scatter is the pool's own.
func TestParChunkCoverMatchesSeq(t *testing.T) {
	defer func() { CheckInboxRetention, CheckVecAliasing = false, false }()
	for _, checks := range []bool{true, false} {
		CheckInboxRetention, CheckVecAliasing = checks, checks
		testParChunkCover(t)
	}
}

func testParChunkCover(t *testing.T) {
	const T = 3
	run := func(g *graph.Graph, e Engine) (rows [][]uint64, calls [][]int32, met Metrics) {
		rows, calls = make([][]uint64, g.N()), make([][]int32, g.N())
		met = e.Run(g, func(v graph.NodeID) Program {
			rows[v], calls[v] = make([]uint64, T+1), make([]int32, T+1)
			return &coverProgram{relayProgram{T: T, row: rows[v]}, calls[v]}
		}, T+2)
		return rows, calls, met
	}
	for _, w := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{1, parChunk - 1, parChunk, parChunk + 1, parChunk*w - 1, parChunk*w + 1, 10*parChunk + 7} {
			g := graph.Path(n)
			if n > 4 {
				g = graph.BarabasiAlbert(n, 2, int64(n))
			}
			seqRows, seqCalls, seqMet := run(g, SeqEngine{})
			parRows, parCalls, parMet := run(g, ParEngine{W: w})
			if parMet != seqMet {
				t.Fatalf("n=%d W=%d: metrics %+v, seq %+v", n, w, parMet, seqMet)
			}
			for v := 0; v < n; v++ {
				if !reflect.DeepEqual(parCalls[v], seqCalls[v]) {
					t.Fatalf("n=%d W=%d node %d: hooks run per round %v, seq %v", n, w, v, parCalls[v], seqCalls[v])
				}
				if !reflect.DeepEqual(parRows[v], seqRows[v]) {
					t.Fatalf("n=%d W=%d node %d: inboxes %x, seq %x", n, w, v, parRows[v], seqRows[v])
				}
			}
		}
	}
}

// --- pool lifecycle --------------------------------------------------------

// goid returns the calling goroutine's ID, off the first line of its stack
// trace ("goroutine 7 [running]:") — only to tell the goroutine that called
// Run from the pool's.
func goid() string {
	var buf [32]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestParPoolShutdownNoLeakOnEarlyExit is the shutdown regression for the
// pool: no goroutine may outlive Run, whichever way Run ends and wherever the
// workers are waiting when it does. All-halt-in-Init exits before any round;
// a budget cut-off and a normal end come a deliver after the last join, with
// the workers still yielding; a run whose last round holds one worker back
// (the stall) ends with the others parked; and a hook that panics on the
// calling goroutine unwinds through the coordinator's share of a step phase
// while the workers are in theirs. The one deferred teardown has to release
// all of them. Run under -race in CI.
func TestParPoolShutdownNoLeakOnEarlyExit(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 1)
	caller := goid()
	exits := []struct {
		name string
		run  func()
	}{
		{"all halt in Init", func() {
			ParEngine{W: 8}.Run(g, func(graph.NodeID) Program { return haltOnInit{} }, 50)
		}},
		{"budget exhausted, workers yielding", func() {
			rows := make([][]uint64, g.N())
			if met := (ParEngine{W: 8}).Run(g, relayFactory(50, rows, -1, 0), 3); met.Halted || met.Rounds != 3 {
				t.Fatalf("the budget did not cut the run off: %+v", met)
			}
		}},
		{"normal end, workers yielding", func() {
			if _, met := runRelay(g, 3, ParEngine{W: 8}, -1, 0); !met.Halted {
				t.Fatalf("the run did not end by itself: %+v", met)
			}
		}},
		{"normal end, workers parked", func() { runRelay(g, 2, ParEngine{W: 8}, g.N()-1, 2*time.Millisecond) }},
		{"panic in the coordinator's share", func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the hook's panic did not reach Run's caller")
				}
			}()
			ParEngine{W: 8}.Run(g, func(graph.NodeID) Program {
				return programFunc{round: func(*Ctx, []Message) {
					if goid() == caller {
						panic("a hook panics on the coordinator")
					}
				}}
			}, 1<<20) // until the coordinator wins a block
		}},
	}
	for _, exit := range exits {
		before := runtime.NumGoroutine()
		for i := 0; i < 25; i++ {
			exit.run()
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Fatalf("%s: worker goroutines leaked: %d before, %d after 25 runs", exit.name, before, got)
		}
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
