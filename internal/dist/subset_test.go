package dist_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"distkcore/internal/core"
	"distkcore/internal/densest"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// subsetEngine is the cluster with nothing around it: one dist.NewSubsetDriver
// per shard of a partition, each stepping its own nodes and holding state for
// those and the ones they can hear, the round's cross-shard entries framed by
// a per-shard shard.Fanout and written straight into the destination's Driver
// with Inject — no codec, no sockets. What it returns is the sum of the
// Drivers' Metrics: each prices what its own nodes sent.
type subsetEngine struct {
	p    int
	part shard.Partitioner
	lam  quantize.Lambda
}

func (e subsetEngine) WithWireLambda(lam quantize.Lambda) dist.Engine {
	e.lam = lam
	return e
}

func (e subsetEngine) Run(g *graph.Graph, factory dist.Factory, maxRounds int) dist.Metrics {
	assign, err := shard.Place(e.part, g, e.p)
	if err != nil {
		panic(err)
	}
	own := make([][]graph.NodeID, e.p)
	for v, q := range assign {
		own[q] = append(own[q], v)
	}
	ds, fans := make([]*dist.Driver, e.p), make([]*shard.Fanout, e.p)
	for q := range ds {
		ds[q] = dist.NewSubsetDriver(g, e.lam, own[q], factory)
		fans[q] = shard.NewFanout(g, assign, e.p, own[q])
	}
	rounds, alive := 0, g.N()
	for t := 0; t == 0 || (t <= maxRounds && alive > 0); t++ {
		rounds = t
		for q, d := range ds {
			d.StepList(own[q], t)
		}
		alive = 0
		for q, d := range ds {
			fans[q].Emit(d, func(dst int, to graph.NodeID, m dist.Message) {
				if err := ds[dst].Inject(m.From, to, m); err != nil {
					panic(fmt.Sprintf("shard %d → %d: %v", q, dst, err))
				}
			})
			alive += d.Alive()
		}
		for _, d := range ds {
			d.Deliver(nil)
		}
	}
	met := dist.Metrics{Rounds: rounds, Halted: alive == 0}
	for _, d := range ds {
		share := d.Finish(rounds)
		met.Messages += share.Messages
		met.Words += share.Words
		met.WireBytes += share.WireBytes
	}
	return met
}

// recorder wraps an engine's factory so that every Round call leaves the
// round and a hash of its inbox — order included — in the node's row.
type recorder struct {
	eng  dist.Engine
	rows [][]uint64
}

type recProg struct {
	dist.Program
	row *[]uint64
}

func (p recProg) Round(c *dist.Ctx, inbox []dist.Message) {
	*p.row = append(*p.row, uint64(c.Round()), hashInbox(inbox))
	p.Program.Round(c, inbox)
}

func (r *recorder) WithWireLambda(lam quantize.Lambda) dist.Engine {
	return &recorder{eng: r.eng.WithWireLambda(lam), rows: r.rows}
}

func (r *recorder) Run(g *graph.Graph, factory dist.Factory, maxRounds int) dist.Metrics {
	return r.eng.Run(g, func(v graph.NodeID) dist.Program { return recProg{factory(v), &r.rows[v]} }, maxRounds)
}

// The subset Driver is the whole-graph Driver, restricted: P of them over a
// partition, fed each other's taps, run SeqEngine's execution — the values,
// every hook's inbox in order, the summed Metrics — for every partitioner and
// shard count, on graphs that put every kind of node in a shard (hubs heard by
// everyone, parallel edges and self-loops, isolated nodes, a shard with no
// remote peer at all, more shards than a clique has members), under the
// elimination protocol (pull rounds), weak densest (unicast, Vec payloads,
// scatter rounds) and the seeded script of the oracle test (every mix of slot
// and queue, halts, sleeps).
func TestSubsetDriverMatchesWholeGraph(t *testing.T) {
	dist.CheckInboxRetention, dist.CheckVecAliasing = true, true
	defer func() { dist.CheckInboxRetention, dist.CheckVecAliasing = false, false }()

	multi := graph.NewBuilder(30)
	for v := 0; v < 30; v++ {
		multi.AddUnitEdge(v, (v+1)%30)
		if v%3 == 0 {
			multi.AddUnitEdge((v+1)%30, v) // parallel
			multi.AddUnitEdge(v, v)        // self-loop
		}
		if v%5 == 0 {
			multi.AddUnitEdge(v, (v+11)%30)
		}
	}
	islands := graph.NewBuilder(28) // seven K4s: under Range at P = 7 a shard is one of them
	for c := 0; c < 28; c += 4 {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				islands.AddUnitEdge(c+i, c+j)
			}
		}
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", graph.BarabasiAlbert(90, 3, 7)},
		{"grid", graph.Grid(7, 8)},
		{"caveman", graph.Caveman(6, 5)},
		{"multi", multi.Build()},
		{"isolated", graph.ErdosRenyi(60, 0.02, 5)},
		{"islands", islands.Build()},
	}
	protocols := []struct {
		name string
		run  func(g *graph.Graph, eng dist.Engine) (any, dist.Metrics)
	}{
		{"elimination", func(g *graph.Graph, eng dist.Engine) (any, dist.Metrics) {
			res, met := core.RunDistributed(g, core.Options{Rounds: core.TForEpsilon(g.N(), 0.5), TrackAux: true}, eng)
			return res, met
		}},
		{"weak densest", func(g *graph.Graph, eng dist.Engine) (any, dist.Metrics) {
			res, met := densest.RunWeakDistributed(g, densest.Config{Gamma: 3}, eng)
			return res, met
		}},
		{"script", func(g *graph.Graph, eng dist.Engine) (any, dist.Metrics) {
			sc := &script{seed: 3, got: make([][]uint64, g.N())}
			met := eng.Run(g, func(v graph.NodeID) dist.Program { return &scriptProg{sc: sc, id: v} }, 40)
			return sc.got, met
		}},
	}
	for _, gr := range graphs {
		for _, pr := range protocols {
			seq := &recorder{eng: dist.SeqEngine{}, rows: make([][]uint64, gr.g.N())}
			want, wantMet := pr.run(gr.g, seq)
			for _, part := range []shard.Partitioner{shard.Hash{}, shard.Range{}, shard.Greedy{}} {
				for _, p := range []int{1, 2, 4, 7} {
					id := fmt.Sprintf("%s, %s, %s × %d", gr.name, pr.name, part.Name(), p)
					sub := &recorder{eng: subsetEngine{p: p, part: part}, rows: make([][]uint64, gr.g.N())}
					got, met := pr.run(gr.g, sub)
					if met != wantMet {
						t.Errorf("%s: summed metrics %+v, SeqEngine's %+v", id, met, wantMet)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: the result differs from SeqEngine's", id)
					}
					for v := range seq.rows {
						if !reflect.DeepEqual(sub.rows[v], seq.rows[v]) {
							t.Errorf("%s: node %d inbox transcript %x, SeqEngine's %x", id, v, sub.rows[v], seq.rows[v])
							break
						}
					}
				}
			}
		}
	}
}

// A subset Driver refuses what it has no state for with an error, like every
// other wire fault: a sender it cannot hear (in either entry form, in range or
// not), a unicast to a node it does not step. Line 0 — 1 — 2 — 3 — 4 with
// {2, 3} stepped: 1 and 4 are heard, 0 is not.
func TestSubsetDriverInjectRefusals(t *testing.T) {
	d := dist.NewSubsetDriver(graph.Path(5), nil, []graph.NodeID{2, 3}, func(graph.NodeID) dist.Program { return &scriptProg{} })
	for _, tc := range []struct {
		from, to graph.NodeID
		want     string // "" means accepted
	}{
		{1, -1, ""},
		{4, 3, ""},
		{1, 2, "broadcast of sender 1 is not"}, // fine as a send; the broadcast below it is not
		{0, -1, "sender 0 has no neighbor among this driver's nodes"},
		{0, 2, "sender 0 has no neighbor among this driver's nodes"},
		{5, -1, "sender 5 out of range"},
		{-1, 2, "sender -1 out of range"},
		{1, 0, "node 0 is not a neighbor of sender 1"}, // a real neighbor, stepped elsewhere
		{1, 3, "node 3 is not a neighbor of sender 1"},
		{4, 1 << 40, "is not a neighbor of sender 4"},
	} {
		err := d.Inject(tc.from, tc.to, dist.Message{F0: 1})
		if tc.from == 1 && tc.to == 2 {
			if err != nil {
				t.Errorf("inject(1 → 2): %v", err)
			}
			err = d.Inject(1, -1, dist.Message{})
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("inject(%d → %d): %v", tc.from, tc.to, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("inject(%d → %d): %v, want an error saying %q", tc.from, tc.to, err, tc.want)
		}
	}
	d.Deliver(nil) // whatever got in places without leaving the arrays
}
