package dist

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// --- a deliberately stateful test protocol -------------------------------
//
// traceProgram exercises every Ctx facility: it floods minima (Broadcast),
// pushes a vector to its smallest neighbor every round (Send + Vec), halts
// after T rounds, and appends a line per round to a shared transcript
// describing exactly what it saw. Two engines agree iff the transcripts
// are byte-identical.

type traceSink struct {
	mu    sync.Mutex
	lines [][]string // per node
}

type traceProgram struct {
	id   graph.NodeID
	T    int
	min  float64
	sink *traceSink
}

func (p *traceProgram) Init(c *Ctx) {
	p.min = float64(p.id)
	c.Broadcast(Message{Kind: 1, F0: p.min})
	if len(c.Neighbors()) == 0 {
		c.Halt()
	}
}

func (p *traceProgram) Round(c *Ctx, inbox []Message) {
	line := fmt.Sprintf("t=%d", c.Round())
	for _, m := range inbox {
		line += fmt.Sprintf(" (%d:%g:%d)", m.From, m.F0, len(m.Vec))
		if m.F0 < p.min {
			p.min = m.F0
		}
	}
	mu := c.Mutex()
	mu.Lock()
	p.sink.lines[p.id] = append(p.sink.lines[p.id], line)
	mu.Unlock()
	if c.Round() >= p.T {
		c.Halt()
		return
	}
	c.Broadcast(Message{Kind: 1, F0: p.min})
	if peers := neighborsOf(c); len(peers) > 0 {
		c.Send(peers[0], Message{Kind: 2, Vec: []float64{p.min, float64(c.Round())}})
	}
}

func neighborsOf(c *Ctx) []graph.NodeID {
	seen := map[graph.NodeID]bool{c.ID(): true}
	var out []graph.NodeID
	for _, a := range c.Neighbors() {
		if !seen[a.To] {
			seen[a.To] = true
			out = append(out, a.To)
		}
	}
	// smallest first, deterministically
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func runTrace(g *graph.Graph, T int, eng Engine) (*traceSink, Metrics) {
	sink := &traceSink{lines: make([][]string, g.N())}
	met := eng.Run(g, func(v graph.NodeID) Program {
		return &traceProgram{id: v, T: T, sink: sink}
	}, T+2)
	return sink, met
}

func TestEnginesProduceIdenticalExecutions(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"er":       graph.ErdosRenyi(60, 0.08, 1),
		"ba":       graph.BarabasiAlbert(80, 3, 2),
		"grid":     graph.Grid(7, 8),
		"star":     graph.Star(25),
		"caveman":  graph.Caveman(4, 5),
		"sparse":   graph.ErdosRenyi(50, 0.02, 3), // has isolated nodes
		"twonodes": graph.Path(2),
	}
	for name, g := range graphs {
		for _, T := range []int{1, 3, 6} {
			seqSink, seqMet := runTrace(g, T, SeqEngine{})
			parSink, parMet := runTrace(g, T, ParEngine{})
			if seqMet != parMet {
				t.Fatalf("%s T=%d: metrics differ: seq %+v par %+v", name, T, seqMet, parMet)
			}
			for v := 0; v < g.N(); v++ {
				if !reflect.DeepEqual(seqSink.lines[v], parSink.lines[v]) {
					t.Fatalf("%s T=%d node %d: transcripts differ:\nseq: %v\npar: %v",
						name, T, v, seqSink.lines[v], parSink.lines[v])
				}
			}
		}
	}
}

func TestMinFloodConverges(t *testing.T) {
	// Sanity that the test protocol itself does something meaningful: after
	// T ≥ diameter rounds every node of a connected graph knows min = 0.
	g := graph.Grid(4, 4)
	d, _ := g.Diameter()
	sink := &traceSink{lines: make([][]string, g.N())}
	progs := make([]*traceProgram, g.N())
	SeqEngine{}.Run(g, func(v graph.NodeID) Program {
		progs[v] = &traceProgram{id: v, T: d + 1, sink: sink}
		return progs[v]
	}, d+3)
	for v, p := range progs {
		if p.min != 0 {
			t.Fatalf("node %d: min=%v after %d rounds", v, p.min, d+1)
		}
	}
}

// --- hand-computed metrics on a tiny graph -------------------------------

// twoRoundProgram broadcasts in Init and round 1, then halts in round 2.
type twoRoundProgram struct{}

func (twoRoundProgram) Init(c *Ctx) { c.Broadcast(Message{F0: 1}) }
func (twoRoundProgram) Round(c *Ctx, inbox []Message) {
	if c.Round() >= 2 {
		c.Halt()
		return
	}
	c.Broadcast(Message{F0: 2})
}

func TestMetricsHandComputedOnPath(t *testing.T) {
	// P3: 0-1-2. Degrees 1,2,1 ⇒ one full broadcast wave = 4 messages.
	// Init wave + round-1 wave = 8 messages, 8 words (no Vec). Every
	// message is sender varint (1 byte) + float64 (8 bytes) under Λ = ℝ,
	// so 72 wire bytes. All nodes halt in round 2 of the budget of 5.
	g := graph.Path(3)
	for _, eng := range []Engine{SeqEngine{}, ParEngine{}} {
		met := eng.Run(g, func(graph.NodeID) Program { return twoRoundProgram{} }, 5)
		want := Metrics{Rounds: 2, Messages: 8, Words: 8, WireBytes: 72, Halted: true}
		if met != want {
			t.Fatalf("%T: metrics %+v, want %+v", eng, met, want)
		}
	}
}

func TestWordsCountVectorPayloads(t *testing.T) {
	// A single exchange on P2 where node 0 sends a 3-vector to node 1:
	// 1 message, 1+3 = 4 words, 1 + 8 + 3·8 = 33 wire bytes.
	g := graph.Path(2)
	met := SeqEngine{}.Run(g, func(v graph.NodeID) Program {
		return programFunc{
			init: func(c *Ctx) {
				if v == 0 {
					c.Send(1, Message{Vec: []float64{1, 2, 3}})
				}
				c.Halt()
			},
		}
	}, 3)
	want := Metrics{Rounds: 0, Messages: 1, Words: 4, WireBytes: 33, Halted: true}
	if met != want {
		t.Fatalf("metrics %+v, want %+v", met, want)
	}
}

func TestWireBytesPriceKindAndI0(t *testing.T) {
	// Tagged fields follow the zero-elided convention: Kind=3 costs one tag
	// byte, I0=5 a one-byte signed varint. Sender varint (1) + F0 word (8)
	// + tag (1) + I0 (1) = 11 bytes for the single message.
	g := graph.Path(2)
	met := SeqEngine{}.Run(g, func(v graph.NodeID) Program {
		return programFunc{init: func(c *Ctx) {
			if v == 0 {
				c.Send(1, Message{Kind: 3, I0: 5, F0: 1})
			}
			c.Halt()
		}}
	}, 3)
	if met.WireBytes != 11 {
		t.Fatalf("wire bytes = %d, want 11", met.WireBytes)
	}
}

func TestWireBytesUseQuantizedSizing(t *testing.T) {
	// Under a PowerGrid the scalar ships as a varint grid index instead of
	// a full word: value 1 is grid point 0 → code 2 → 1 byte, so each P2
	// message is 1 (sender) + 1 (value) = 2 bytes.
	g := graph.Path(2)
	lam := quantize.NewPowerGrid(0.5)
	met := SeqEngine{}.Run(g, func(v graph.NodeID) Program {
		return programFunc{init: func(c *Ctx) { c.Broadcast(Message{F0: 1}); c.Halt() }}
	}, 3)
	metQ := SeqEngine{Lam: lam}.Run(g, func(v graph.NodeID) Program {
		return programFunc{init: func(c *Ctx) { c.Broadcast(Message{F0: 1}); c.Halt() }}
	}, 3)
	if met.WireBytes != 18 {
		t.Fatalf("Λ=ℝ wire bytes = %d, want 18", met.WireBytes)
	}
	if metQ.WireBytes != 4 {
		t.Fatalf("PowerGrid wire bytes = %d, want 4", metQ.WireBytes)
	}
	if met.Words != metQ.Words || met.Messages != metQ.Messages {
		t.Fatal("quantized sizing must not change Words/Messages")
	}
}

// programFunc adapts closures to Program for tiny tests.
type programFunc struct {
	init  func(*Ctx)
	round func(*Ctx, []Message)
}

func (p programFunc) Init(c *Ctx) {
	if p.init != nil {
		p.init(c)
	}
}
func (p programFunc) Round(c *Ctx, inbox []Message) {
	if p.round != nil {
		p.round(c, inbox)
	} else {
		c.Halt()
	}
}

func TestBroadcastSkipsSelfLoopsAndParallelEdges(t *testing.T) {
	// Node 0 has a self-loop and two parallel edges to node 1: Broadcast
	// must deliver exactly one copy to node 1 and none to itself, while
	// Neighbors still reports all three arcs.
	b := graph.NewBuilder(2)
	b.AddEdge(0, 0, 1).AddEdge(0, 1, 1).AddEdge(0, 1, 2)
	g := b.Build()
	var arcs0 int
	var inbox1 []Message
	met := SeqEngine{}.Run(g, func(v graph.NodeID) Program {
		return programFunc{
			init: func(c *Ctx) {
				if v == 0 {
					arcs0 = len(c.Neighbors())
					c.Broadcast(Message{F0: 7})
					c.Halt()
				}
			},
			round: func(c *Ctx, in []Message) {
				inbox1 = append(inbox1, in...)
				c.Halt()
			},
		}
	}, 3)
	if arcs0 != 3 {
		t.Fatalf("node 0 sees %d arcs, want 3", arcs0)
	}
	if met.Messages != 1 || len(inbox1) != 1 || inbox1[0].From != 0 {
		t.Fatalf("messages=%d inbox=%v", met.Messages, inbox1)
	}
}

func TestSendToNonNeighborPanics(t *testing.T) {
	g := graph.Path(3) // 0-1-2: 0 and 2 are not adjacent
	defer func() {
		if recover() == nil {
			t.Fatal("Send to a non-neighbor must panic")
		}
	}()
	SeqEngine{}.Run(g, func(v graph.NodeID) Program {
		return programFunc{init: func(c *Ctx) {
			if v == 0 {
				c.Send(2, Message{})
			}
		}}
	}, 1)
}

func TestMessagesToHaltedNodesAreDropped(t *testing.T) {
	// Node 1 halts in Init; node 0 broadcasts every round. Node 1's Round
	// must never run, but the sends still count in Messages.
	g := graph.Path(2)
	roundsSeen := 0
	met := SeqEngine{}.Run(g, func(v graph.NodeID) Program {
		if v == 1 {
			return programFunc{init: func(c *Ctx) { c.Halt() }}
		}
		return programFunc{
			init: func(c *Ctx) { c.Broadcast(Message{}) },
			round: func(c *Ctx, in []Message) {
				roundsSeen++
				if len(in) != 0 {
					t.Errorf("round %d: node 0 got %d messages from a halted peer", c.Round(), len(in))
				}
				c.Broadcast(Message{})
			},
		}
	}, 3)
	if roundsSeen != 3 {
		t.Fatalf("node 0 ran %d rounds, want 3", roundsSeen)
	}
	if met.Halted {
		t.Fatal("node 0 never halted; Halted must be false")
	}
	if met.Rounds != 3 || met.Messages != 4 {
		t.Fatalf("metrics %+v", met)
	}
}

// Silence is legal, and change-driven protocols make it common: a round in
// which nobody sends is delivered on the pull path, prices nothing, leaves
// every inbox of the next round empty — the stale slots are told from fresh
// ones by their stamp, nothing is cleared — and that round's hooks still run
// for every live node, after which traffic resumes as if nothing had happened.
// Every node broadcasts every round but the hushed one and halts in round 5.
func TestSilentRoundIsAPullDelivery(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, 8)
	const hush = 2
	lens := make([][]int, g.N())
	d := NewDriver(g, nil, func(v graph.NodeID) Program {
		return programFunc{
			init: func(c *Ctx) { c.Broadcast(Message{F0: 1}) },
			round: func(c *Ctx, in []Message) {
				lens[v] = append(lens[v], len(in))
				switch {
				case c.Round() >= 5:
					c.Halt()
				case c.Round() != hush:
					c.Broadcast(Message{F0: 1})
				}
			},
		}
	})
	var before Metrics
	for r := 0; r <= 5; r++ {
		if stepped := d.StepRange(0, g.N(), r); stepped != g.N() {
			t.Fatalf("round %d ran %d hooks, want one per node (%d)", r, stepped, g.N())
		}
		if r == hush {
			before = d.s.met
		}
		d.Deliver(nil)
		if r == hush && (!d.s.pull || d.s.met != before) {
			t.Fatalf("the silent round's delivery: pull %v, metrics %+v → %+v", d.s.pull, before, d.s.met)
		}
	}
	for v, got := range lens {
		fan := len(g.Peers(v))
		if want := []int{fan, fan, 0, fan, fan}; !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d was handed inboxes of %v messages, want %v", v, got, want)
		}
	}
	if met := d.Finish(5); !met.Halted || met.Messages != 2*before.Messages {
		t.Fatalf("run metrics %+v: want every node halted and twice the %d messages of the two rounds before the silence", met, before.Messages)
	}
}

// --- shared-Vec aliasing check -------------------------------------------

func expectAliasingPanic(t *testing.T, factory Factory) {
	t.Helper()
	CheckVecAliasing = true
	defer func() {
		CheckVecAliasing = false
		if recover() == nil {
			t.Fatal("expected the aliasing check to panic")
		}
	}()
	SeqEngine{}.Run(graph.Star(4), factory, 4)
}

func TestAliasingCheckCatchesSenderMutation(t *testing.T) {
	// Broadcast buffers the Vec by reference; mutating it afterwards (even
	// in the same hook) would corrupt what every receiver reads.
	expectAliasingPanic(t, func(v graph.NodeID) Program {
		return programFunc{init: func(c *Ctx) {
			if v == 0 {
				vec := []float64{1, 2}
				c.Broadcast(Message{Vec: vec})
				vec[0] = 99
			}
			c.Halt()
		}}
	})
}

func TestAliasingCheckCatchesReceiverMutation(t *testing.T) {
	// Broadcast hands the SAME Vec slice to every recipient; a receiver
	// writing through it corrupts its siblings' inboxes.
	expectAliasingPanic(t, func(v graph.NodeID) Program {
		return programFunc{
			init: func(c *Ctx) {
				if v == 0 {
					c.Broadcast(Message{Vec: []float64{1, 2}})
				}
			},
			round: func(c *Ctx, inbox []Message) {
				for _, m := range inbox {
					if len(m.Vec) > 0 {
						m.Vec[0] = -1
					}
				}
				c.Halt()
			},
		}
	})
}

func TestAliasingCheckAllowsWellBehavedPrograms(t *testing.T) {
	// The trace protocol sends and reads Vecs without mutating them; with
	// the check armed it must run exactly as before.
	CheckVecAliasing = true
	defer func() { CheckVecAliasing = false }()
	g := graph.BarabasiAlbert(40, 3, 4)
	seqSink, seqMet := runTrace(g, 4, SeqEngine{})
	parSink, parMet := runTrace(g, 4, ParEngine{})
	if seqMet != parMet || !reflect.DeepEqual(seqSink.lines, parSink.lines) {
		t.Fatal("engines diverge with the aliasing check armed")
	}
}

// --- inbox lifetime check -------------------------------------------------

// TestInboxRetentionCheckPoisonsKeptInbox publishes the last round's inbox
// slice to a sink read after the run — the Program contract forbids keeping
// it past the call — and demands that the check turns the violation into
// garbage on both delivery paths, rather than into data that happens to be
// intact after a scatter and overwritten after a pull.
func TestInboxRetentionCheckPoisonsKeptInbox(t *testing.T) {
	CheckInboxRetention = true
	defer func() { CheckInboxRetention = false }()
	g := graph.Cycle(6)
	for _, unicast := range []bool{false, true} { // pull rounds, scatter rounds
		for _, eng := range []Engine{SeqEngine{}, ParEngine{W: 2}} {
			kept := make([][]Message, g.N())
			eng.Run(g, func(v graph.NodeID) Program {
				say := func(c *Ctx) {
					if unicast {
						c.Send(c.Peers()[0], Message{F0: 1})
					} else {
						c.Broadcast(Message{F0: 1})
					}
				}
				return programFunc{init: say, round: func(c *Ctx, inbox []Message) {
					if c.Round() < 2 {
						say(c)
						return
					}
					kept[v] = inbox
					c.Halt()
				}}
			}, 4)
			seen := 0
			for _, inbox := range kept {
				for _, m := range inbox {
					seen++
					if m.Kind != 0xFF || m.From != -1 || !math.IsNaN(m.F0) {
						t.Fatalf("unicast=%v: a kept inbox still reads %+v after its hook returned", unicast, m)
					}
				}
			}
			if seen != g.N()*(2-btoi(unicast)) {
				t.Fatalf("unicast=%v: %d kept messages", unicast, seen)
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// --- asynchronous simulator ----------------------------------------------

// echoProgram broadcasts once at init; every first message from a neighbor
// is acknowledged back on the same link (then ignored), giving a bounded,
// easily countable event cascade.
type echoProgram struct {
	seen map[graph.NodeID]bool
}

func (p *echoProgram) InitAsync(c *AsyncCtx) {
	p.seen = make(map[graph.NodeID]bool)
	c.Broadcast(Message{Kind: 1, F0: c.WeightedDegree()})
}

func (p *echoProgram) OnMessage(c *AsyncCtx, m Message) {
	if m.Kind == 1 && !p.seen[m.From] {
		p.seen[m.From] = true
		c.Send(m.From, Message{Kind: 2})
	}
}

type asyncTraceProgram struct {
	id    graph.NodeID
	trace *[]string
}

func (p *asyncTraceProgram) InitAsync(c *AsyncCtx) {
	c.Broadcast(Message{F0: float64(p.id)})
}

func (p *asyncTraceProgram) OnMessage(c *AsyncCtx, m Message) {
	*p.trace = append(*p.trace, fmt.Sprintf("%d<-%d@%.6f", p.id, m.From, c.Now()))
	if m.F0 > 0 { // relay a damped copy once per message, bounded cascade
		c.Broadcast(Message{F0: 0})
	}
}

func asyncTrace(g *graph.Graph, d DelayModel) ([]string, AsyncMetrics) {
	var trace []string
	met := RunAsync(g, func(v graph.NodeID) AsyncProgram {
		return &asyncTraceProgram{id: v, trace: &trace}
	}, d, 1e6)
	return trace, met
}

func TestRunAsyncDeterministicForFixedSeed(t *testing.T) {
	g := graph.BarabasiAlbert(40, 3, 5)
	for _, d := range []DelayModel{
		{Base: 1, Jitter: 0, Seed: 9},
		{Base: 0.5, Jitter: 3, Seed: 9},
		{Base: 1, Jitter: 50, Seed: 123},
	} {
		t1, m1 := asyncTrace(g, d)
		t2, m2 := asyncTrace(g, d)
		if m1 != m2 {
			t.Fatalf("%+v: metrics differ across identical runs: %+v vs %+v", d, m1, m2)
		}
		if !reflect.DeepEqual(t1, t2) {
			t.Fatalf("%+v: delivery traces differ across identical runs", d)
		}
	}
}

func TestAsyncMetricsHandComputedOnTriangle(t *testing.T) {
	// K3 with echoProgram, Base=1, Jitter=0: 3 initial broadcasts of 2
	// messages each arrive at time 1; each of the 6 deliveries triggers one
	// ack, arriving at time 2. Total: 12 messages, 12 events, makespan 2.
	g := graph.Clique(3)
	met := RunAsync(g, func(graph.NodeID) AsyncProgram { return &echoProgram{} },
		DelayModel{Base: 1, Jitter: 0, Seed: 1}, 1e6)
	want := AsyncMetrics{Events: 12, Messages: 12, VirtualTime: 2, Quiesced: true}
	if met != want {
		t.Fatalf("metrics %+v, want %+v", met, want)
	}
}

func TestAsyncEventBudgetStopsDeliveries(t *testing.T) {
	g := graph.Clique(6)
	met := RunAsync(g, func(graph.NodeID) AsyncProgram { return &echoProgram{} },
		DelayModel{Base: 1, Jitter: 0.5, Seed: 2}, 7)
	if met.Events != 7 {
		t.Fatalf("events=%d, want exactly the budget 7", met.Events)
	}
	if met.Quiesced {
		t.Fatal("a budget-cut run must not report quiescence")
	}
}

func TestAsyncJitterStretchesMakespan(t *testing.T) {
	g := graph.Clique(4)
	_, m0 := asyncTrace(g, DelayModel{Base: 1, Jitter: 0, Seed: 3})
	_, m1 := asyncTrace(g, DelayModel{Base: 1, Jitter: 10, Seed: 3})
	if !(m1.VirtualTime > m0.VirtualTime) {
		t.Fatalf("jitter did not stretch makespan: %v vs %v", m1.VirtualTime, m0.VirtualTime)
	}
	if math.IsInf(m1.VirtualTime, 0) || m1.VirtualTime <= 0 {
		t.Fatalf("implausible makespan %v", m1.VirtualTime)
	}
}
