package dist

import (
	"math/rand"
	"slices"
	"testing"

	"distkcore/internal/graph"
)

// speakers is a broadcast-only protocol whose speakers are a pure function of
// (seed, node, round): node v opens round t with a Broadcast iff spoke(v, t),
// at a per-round density that puts the deliveries on either side of the
// listing threshold — nobody, a handful, just under and just over 1/listFactor
// of the nodes, most, everybody. Every Round hook holds the inbox it is handed
// to the one a walk over Peers(v) predicts, element for element.
type speakers struct {
	t    *testing.T
	g    *graph.Graph
	seed int64
}

// density64[t % len] of every 64 nodes speak in round t.
var density64 = []uint64{64, 0, 2, 64 / listFactor * 3 / 4, 64 / listFactor * 5 / 4, 48, 1, 64, 8}

const speakerRounds = 19

func (sp *speakers) spoke(v graph.NodeID, t int) bool {
	h := uint64(sp.seed)*0x9e3779b97f4a7c15 ^ uint64(v)<<20 ^ uint64(t)
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	return (h>>33)%64 < density64[t%len(density64)]
}

func (sp *speakers) msg(v graph.NodeID, t int) Message {
	m := Message{Kind: uint8(t % 3), I0: v*100 + t, F0: float64(v) + float64(t)/64}
	if v%2 == 1 {
		m.Vec = []float64{float64(v), float64(t)} // shared by every receiver: the aliasing check watches it
	}
	return m
}

// fanOut returns what round t's slots are priced at, and the share of
// Σ|Peers| that is.
func (sp *speakers) fanOut(t int) (fan, sum int64) {
	for v := 0; v < sp.g.N(); v++ {
		sum += int64(len(sp.g.Peers(v)))
		if sp.spoke(v, t) {
			fan += int64(len(sp.g.Peers(v)))
		}
	}
	return fan, sum
}

type speakerProg struct {
	sp *speakers
	id graph.NodeID
}

func (p speakerProg) Init(c *Ctx) { p.play(c) }

func (p speakerProg) Round(c *Ctx, inbox []Message) {
	t, k := c.Round(), 0
	for _, from := range c.Peers() {
		if !p.sp.spoke(from, t-1) {
			continue
		}
		want := p.sp.msg(from, t-1)
		if k == len(inbox) {
			p.sp.t.Errorf("seed %d node %d round %d: inbox ends after %d messages, the walk finds one from %d", p.sp.seed, p.id, t, k, from)
			return
		}
		got := inbox[k]
		if got.From != from || got.Kind != want.Kind || got.I0 != want.I0 || got.F0 != want.F0 || !slices.Equal(got.Vec, want.Vec) {
			p.sp.t.Errorf("seed %d node %d round %d: inbox[%d] = %+v, the walk finds %+v from %d", p.sp.seed, p.id, t, k, got, want, from)
		}
		k++
	}
	if k != len(inbox) {
		p.sp.t.Errorf("seed %d node %d round %d: %d messages beyond the %d the walk finds", p.sp.seed, p.id, t, len(inbox)-k, k)
	}
	if t == speakerRounds {
		c.Halt()
		return
	}
	p.play(c)
}

func (p speakerProg) play(c *Ctx) {
	if p.sp.spoke(p.id, c.Round()) {
		c.Broadcast(p.sp.msg(p.id, c.Round()))
	}
}

func TestSparseListMatchesPeerWalk(t *testing.T) {
	CheckVecAliasing, CheckInboxRetention = true, true
	defer func() { CheckVecAliasing, CheckInboxRetention = false, false }()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(60)
		b := graph.NewBuilder(n)
		for i, m := 0, 2*n+rng.Intn(3*n); i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if rng.Intn(6) == 0 {
				v = u // self-loop
			}
			b.AddUnitEdge(u, v)
			if rng.Intn(5) == 0 {
				b.AddUnitEdge(v, u) // parallel
			}
		}
		sp := &speakers{t: t, g: b.Build(), seed: seed}
		factory := func(v graph.NodeID) Program { return speakerProg{sp, v} }

		var wantMsgs int64
		for r := 0; r < speakerRounds; r++ {
			fan, _ := sp.fanOut(r)
			wantMsgs += fan
		}
		for _, eng := range []Engine{SeqEngine{}, ParEngine{W: 3}} {
			if met := eng.Run(sp.g, factory, speakerRounds); met.Messages != wantMsgs || !met.Halted || met.Rounds != speakerRounds {
				t.Errorf("seed %d: metrics %+v, want %d messages over %d rounds", seed, met, wantMsgs, speakerRounds)
			}
		}

		// A Driver that steps two nodes in three and is told what the third
		// said, as a cluster worker is; it also shows which deliveries listed.
		var local []graph.NodeID
		for v := 0; v < n; v++ {
			if v%3 != 0 {
				local = append(local, v)
			}
		}
		d := NewDriver(sp.g, nil, func(v graph.NodeID) Program {
			if v%3 == 0 {
				return nil // never stepped
			}
			return factory(v)
		})
		listed := map[bool]int{}
		for r := 0; r <= speakerRounds; r++ {
			d.StepList(local, r)
			for v := 0; v < n && r < speakerRounds; v += 3 {
				if sp.spoke(v, r) {
					if err := d.Inject(v, -1, sp.msg(v, r)); err != nil {
						t.Fatal(err)
					}
				}
			}
			d.Deliver(nil)
			fan, sum := sp.fanOut(r)
			if r == speakerRounds {
				fan = 0
			}
			if want := fan*listFactor < sum; !d.s.pull || d.s.listed != want {
				t.Fatalf("seed %d round %d: pull %v listed %v after a delivery of %d of %d, want a pull listed %v", seed, r, d.s.pull, d.s.listed, fan, sum, want)
			}
			listed[d.s.listed]++
		}
		if listed[true] < 4 || listed[false] < 4 {
			t.Fatalf("seed %d: %d listed and %d walked deliveries do not cover both paths", seed, listed[true], listed[false])
		}
		if met := d.Finish(speakerRounds); met.Messages != wantMsgs {
			t.Errorf("seed %d: the driver priced %d messages, want %d", seed, met.Messages, wantMsgs)
		}
	}
}
