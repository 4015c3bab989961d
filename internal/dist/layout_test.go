package dist

import (
	"math"
	"testing"

	"distkcore/internal/graph"
)

// TestVecHashPinned pins the word-granular vecHash values so the
// CheckVecAliasing panics stay deterministic across builds and refactors of
// the hash. If this fails, the aliasing check changed behaviour — update the
// constants only if that was intentional.
func TestVecHashPinned(t *testing.T) {
	cases := []struct {
		in   []float64
		want uint64
	}{
		{nil, 0x14650fb0739d0383},
		{[]float64{0}, 0x44bd2bd473ccf799},
		{[]float64{1}, 0xab4d2bd473ccf799},
		{[]float64{-1}, 0x2b4d2bd473ccf799},
		{[]float64{1, 2, 3}, 0xb8bc454f3a925281},
		{[]float64{3, 2, 1}, 0x9b4c454f3a925281},
		{[]float64{math.Inf(1)}, 0x6b4d2bd473ccf799},
		{[]float64{math.Pi, math.E, math.Sqrt2, 0.5}, 0x6172bf9e849709d},
		{[]float64{0, 0, 0, 0, 0, 0, 0, 0}, 0x47fe0d7eaf8e51e3},
	}
	for _, c := range cases {
		if got := vecHash(c.in); got != c.want {
			t.Errorf("vecHash(%v) = %#x, want %#x", c.in, got, c.want)
		}
	}
	// Sanity: every single-bit flip of a word must change the hash (the
	// property the aliasing check relies on).
	base := []float64{1, 2, 3, 4}
	h0 := vecHash(base)
	for i := range base {
		for bit := 0; bit < 64; bit++ {
			mut := append([]float64(nil), base...)
			mut[i] = math.Float64frombits(math.Float64bits(mut[i]) ^ 1<<bit)
			if vecHash(mut) == h0 {
				t.Fatalf("flipping bit %d of word %d does not change vecHash", bit, i)
			}
		}
	}
}

// TestPeersMatchGraph checks that the contexts' peer lists (now shared with
// graph.Peers) are the distinct ascending neighbor sets the Broadcast
// contract promises, including under parallel edges and self-loops.
func TestPeersMatchGraph(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddUnitEdge(0, 1)
	b.AddUnitEdge(1, 0) // parallel
	b.AddUnitEdge(2, 2) // self-loop
	b.AddUnitEdge(3, 1)
	g := b.Build()
	s := newSim(g, nil, func(v graph.NodeID) Program { return haltOnInit{} })
	want := [][]graph.NodeID{{1}, {0, 3}, {}, {1}, {}}
	for v := 0; v < g.N(); v++ {
		p := s.ctxs[v].Peers()
		if len(p) != len(want[v]) {
			t.Fatalf("node %d: peers %v, want %v", v, p, want[v])
		}
		for i := range p {
			if p[i] != want[v][i] {
				t.Fatalf("node %d: peers %v, want %v", v, p, want[v])
			}
		}
	}
}

type haltOnInit struct{}

func (haltOnInit) Init(c *Ctx)           { c.Halt() }
func (haltOnInit) Round(*Ctx, []Message) {}

// floodProgram exercises the pull delivery path: every node broadcasts a
// scalar every round until round R.
type floodProgram struct{ R int }

func (f *floodProgram) Init(c *Ctx) { c.Broadcast(Message{F0: 1}) }
func (f *floodProgram) Round(c *Ctx, inbox []Message) {
	if c.Round() >= f.R {
		c.Halt()
		return
	}
	s := 0.0
	for _, m := range inbox {
		s += m.F0
	}
	c.Broadcast(Message{F0: s})
}

// BenchmarkDeliver measures the runtime's mailbox machinery in isolation: a
// broadcast flood whose hooks do next to nothing, so the per-round work is
// the slot write, the per-slot pricing and the gather from Peers(v).
// allocs/op is the run's one-time setup (contexts, slots, programs), not
// O(rounds·n).
func BenchmarkDeliver(b *testing.B) {
	g := graph.BarabasiAlbert(2_000, 4, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SeqEngine{}.Run(g, func(graph.NodeID) Program { return &floodProgram{R: 20} }, 25)
	}
}

// BenchmarkSimSetup isolates newSim — context construction over the CSR
// graph's shared peer lists and the 2n-slot array — which is
// allocation-constant; send queues are not part of it (they grow on a
// node's first queued send).
func BenchmarkSimSetup(b *testing.B) {
	g := graph.BarabasiAlbert(5_000, 4, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newSim(g, nil, func(v graph.NodeID) Program { return haltOnInit{} })
		if s.alive != g.N() {
			b.Fatal("bad sim")
		}
	}
}
