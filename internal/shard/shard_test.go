package shard

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// --- partitioners ---------------------------------------------------------

func TestPartitionersAreValidAndDeterministic(t *testing.T) {
	graphs := []*graph.Graph{
		graph.BarabasiAlbert(200, 3, 1),
		graph.Grid(10, 12),
		graph.ErdosRenyi(150, 0.03, 2), // has isolated nodes
		graph.Path(1),
	}
	for _, g := range graphs {
		for _, part := range []Partitioner{Hash{}, Range{}, Greedy{}, Greedy{Slack: 1.0}} {
			for _, p := range []int{1, 2, 3, 7, 16} {
				a := part.Partition(g, p)
				if len(a) != g.N() {
					t.Fatalf("%s p=%d: %d assignments for %d nodes", part.Name(), p, len(a), g.N())
				}
				for v, s := range a {
					if s < 0 || s >= p {
						t.Fatalf("%s p=%d: node %d assigned to shard %d", part.Name(), p, v, s)
					}
				}
				if b := part.Partition(g, p); !reflect.DeepEqual(a, b) {
					t.Fatalf("%s p=%d: nondeterministic partition", part.Name(), p)
				}
			}
		}
	}
}

func TestGreedyRespectsCapacity(t *testing.T) {
	g := graph.BarabasiAlbert(300, 4, 3)
	for _, p := range []int{2, 4, 8} {
		a := Greedy{Slack: 1.1}.Partition(g, p)
		capacity := int(math.Ceil(1.1 * float64(g.N()) / float64(p)))
		load := make([]int, p)
		for _, s := range a {
			load[s]++
		}
		for s, l := range load {
			if l > capacity {
				t.Fatalf("p=%d: shard %d holds %d nodes > capacity %d", p, s, l, capacity)
			}
		}
	}
}

func TestGreedyCutsFewerEdgesThanHashOnPowerLaw(t *testing.T) {
	g := graph.BarabasiAlbert(1000, 4, 5)
	cutOf := func(part Partitioner, p int) float64 {
		a := part.Partition(g, p)
		cut, tot := 0, 0
		for _, e := range g.Edges() {
			if e.IsLoop() {
				continue
			}
			tot++
			if a[e.U] != a[e.V] {
				cut++
			}
		}
		return float64(cut) / float64(tot)
	}
	for _, p := range []int{4, 8, 16} {
		greedy, hash := cutOf(Greedy{}, p), cutOf(Hash{}, p)
		if greedy >= hash {
			t.Fatalf("p=%d: greedy cut %.3f not below hash cut %.3f", p, greedy, hash)
		}
	}
}

func TestRangeIsContiguousAndBalanced(t *testing.T) {
	g := graph.Path(10)
	a := Range{}.Partition(g, 3)
	want := []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 2}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("range partition %v, want %v", a, want)
	}
}

// --- frame codec ----------------------------------------------------------

func TestFrameMessageRoundTrip(t *testing.T) {
	lams := []quantize.Lambda{quantize.Reals{}, quantize.NewPowerGrid(0.1), quantize.NewPowerGrid(0.5)}
	msgs := []dist.Message{
		{From: 0, F0: 0},
		{From: 1, F0: math.Inf(1)},
		{From: 2, F0: quantize.NewPowerGrid(0.1).RoundDown(37.2)}, // canonical grid point of λ=0.1
		{From: 3, F0: 37.2}, // off-grid: raw escape
		{From: 4, F0: -1.5}, // negative: raw escape under grids
		{From: 70000, Kind: 5, I0: -12, F0: 2.25},
		{From: 6, Kind: 1, Vec: []float64{1.5, -2, math.Inf(1), 0}},
		{From: 7, I0: 1 << 40, F0: math.NaN()},
		{From: 8, F0: math.Copysign(0, -1)}, // -0.0: grids must take the raw escape
	}
	for _, lam := range lams {
		for _, m := range msgs {
			for _, want := range []graph.NodeID{123456, Broadcast} {
				buf := AppendMessage(nil, lam, want, m)
				to, got, n, err := DecodeMessage(buf, lam, nil)
				if err != nil {
					t.Fatalf("%s %+v: decode error %v", lam.Name(), m, err)
				}
				if n != len(buf) {
					t.Fatalf("%s %+v: consumed %d of %d bytes", lam.Name(), m, n, len(buf))
				}
				if to != want {
					t.Fatalf("%s: receiver %d, want %d", lam.Name(), to, want)
				}
				if got.From != m.From || got.Kind != m.Kind || got.I0 != m.I0 ||
					math.Float64bits(got.F0) != math.Float64bits(m.F0) {
					t.Fatalf("%s: round trip %+v -> %+v", lam.Name(), m, got)
				}
				if len(got.Vec) != len(m.Vec) {
					t.Fatalf("%s: vec length %d, want %d", lam.Name(), len(got.Vec), len(m.Vec))
				}
				for i := range m.Vec {
					if math.Float64bits(got.Vec[i]) != math.Float64bits(m.Vec[i]) {
						t.Fatalf("%s: vec[%d] %v, want %v", lam.Name(), i, got.Vec[i], m.Vec[i])
					}
				}
			}
		}
	}
}

// A broadcast entry is a unicast entry minus its receiver: one tag bit, no
// `to` on the wire. Nothing a peer can put in a unicast entry's receiver
// field may decode as one, and a broadcast entry cut short anywhere is a
// decode error.
func TestBroadcastEntryWireForm(t *testing.T) {
	lam := quantize.Reals{}
	m := dist.Message{From: 300, Kind: 2, I0: -7, F0: 3.5, Vec: []float64{1, 2}}
	uni, bc := AppendMessage(nil, lam, 70000, m), AppendMessage(nil, lam, Broadcast, m)
	if len(uni)-len(bc) != 3 { // uvarint(70000) is three bytes
		t.Fatalf("broadcast entry is %d bytes, unicast %d: want exactly the receiver's 3 apart", len(bc), len(uni))
	}
	if bc[2]&tagBcast == 0 || uni[2]&tagBcast != 0 { // from is two bytes, the tag follows
		t.Fatalf("tag bytes %#x (broadcast) / %#x (unicast): tagBcast not where it belongs", bc[2], uni[2])
	}
	for cut := 0; cut < len(bc); cut++ {
		if _, _, _, err := DecodeMessage(bc[:cut], lam, nil); err == nil {
			t.Fatalf("broadcast entry truncated to %d of %d bytes accepted", cut, len(bc))
		}
	}
	// Receivers 2⁶³ … 2⁶⁴−1 would wrap negative as a NodeID, the last one onto
	// Broadcast itself.
	for _, to := range []uint64{1 << 63, math.MaxUint64} {
		hostile := binary.AppendUvarint([]byte{1, 0}, to) // from 1, empty tag, receiver
		hostile = append(hostile, 0, 0, 0, 0, 0, 0, 0, 0) // F0
		if to, _, _, err := DecodeMessage(hostile, lam, nil); err == nil {
			t.Fatalf("receiver field wrapped to %d instead of failing", to)
		}
	}
}

// A hostile Vec-length field must produce a decode error, not overflow
// 8*l past the bounds check into a makeslice/arena panic — this decoder
// now also runs on bytes straight off a socket (internal/net).
func TestDecodeMessageRejectsHostileVecLength(t *testing.T) {
	lam := quantize.Reals{}
	enc := AppendMessage(nil, lam, 2, dist.Message{From: 1, Vec: []float64{1}})
	hostile := enc[:len(enc)-9]                                                     // drop the 1-entry vec (len uvarint + word)
	hostile = append(hostile, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x20) // uvarint ≈ 2^60
	for _, arena := range []*VecArena{nil, new(VecArena)} {
		if _, _, _, err := DecodeMessage(hostile, lam, arena); err == nil {
			t.Fatal("hostile vec length accepted")
		}
	}
}

func TestFrameGridValuesUseGridCode(t *testing.T) {
	// A canonical λ=0.5 grid point must ship as a 1–2 byte varint code, not
	// the 8-byte raw escape: from(1) + to(1) + tag(1) + value(1) = 4 bytes.
	lam := quantize.NewPowerGrid(0.5)
	m := dist.Message{From: 1, F0: 1} // (1+λ)^0
	if n := len(AppendMessage(nil, lam, 2, m)); n != 4 {
		t.Fatalf("grid-point message is %d bytes, want 4", n)
	}
	// An off-grid value pays the escape: 3 header bytes + 8 raw bytes.
	m.F0 = 1.1
	if n := len(AppendMessage(nil, lam, 2, m)); n != 11 {
		t.Fatalf("off-grid message is %d bytes, want 11", n)
	}
}

// --- foreign-shard table ----------------------------------------------------

// Fanout rows against the definition, read off the graph the slow way, one
// table per shard over that shard's nodes: multigraph edges and self-loops
// add nothing, an isolated node has an empty row, an empty shard an empty
// table, and P may exceed any machine word (no bitmask inside).
func TestFanoutMatchesDefinition(t *testing.T) {
	multi := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {2, 3}, {3, 4}, {4, 2}} {
		multi.AddUnitEdge(e[0], e[1]) // node 5 isolated
	}
	for _, g := range []*graph.Graph{multi.Build(), graph.BarabasiAlbert(300, 4, 3), graph.ErdosRenyi(80, 0.02, 5)} {
		for _, p := range []int{1, 2, 5, 70} {
			assign := Hash{}.Partition(g, p)
			rows := 0
			for s := 0; s < p; s++ {
				var own []graph.NodeID
				for v, q := range assign {
					if q == s {
						own = append(own, v)
					}
				}
				f := NewFanout(g, assign, p, own)
				for k, v := range own {
					holds := make([]bool, p)
					for _, u := range g.Peers(v) {
						holds[assign[u]] = true
					}
					var want []int32
					for q := 0; q < p; q++ {
						if holds[q] && q != s {
							want = append(want, int32(q))
						}
					}
					if got := f.Of(k); !reflect.DeepEqual(append([]int32(nil), got...), want) {
						t.Fatalf("n=%d p=%d shard %d: Of(%d) = %v for node %d, want %v", g.N(), p, s, k, got, v, want)
					}
					rows++
				}
			}
			if rows != g.N() {
				t.Fatalf("n=%d p=%d: the shards' tables hold %d rows", g.N(), p, rows)
			}
		}
	}
}

// --- hand-computed ShardMetrics on a 2-shard toy graph --------------------

// twoWaveProgram broadcasts F0=1 in Init and F0=2 in round 1, then halts in
// round 2 — the same shape dist's hand-computed metrics test uses.
type twoWaveProgram struct{}

func (twoWaveProgram) Init(c *dist.Ctx) { c.Broadcast(dist.Message{F0: 1}) }
func (twoWaveProgram) Round(c *dist.Ctx, inbox []dist.Message) {
	if c.Round() >= 2 {
		c.Halt()
		return
	}
	c.Broadcast(dist.Message{F0: 2})
}

func TestShardMetricsHandComputedOnPath(t *testing.T) {
	// P4 path 0-1-2-3 under Range with p=2: shards {0,1} | {2,3}; the only
	// cut edge is {1,2}, so EdgeCutFraction = 1/3.
	//
	// Each broadcast wave crosses the cut twice (1→2 and 2→1): one frame
	// entry per direction per wave, two waves (after Init, after round 1), so
	// CrossMessages = 4. Both waves are leading broadcasts, so every entry is
	// a broadcast entry — one per (sender, destination shard), no `to` — of
	// 10 bytes (from varint 1 + tag 1 + Λ=ℝ float64 8) behind a 4-byte
	// header (four one-byte uvarints), 14 bytes per frame; four frames total
	// = 56 bytes, 28 per shard.
	g := graph.Path(4)
	eng := NewEngine(2, Range{})
	factory := func(graph.NodeID) dist.Program { return twoWaveProgram{} }
	met := eng.Run(g, factory, 5)

	seqMet := dist.SeqEngine{}.Run(g, factory, 5)
	if met != seqMet {
		t.Fatalf("dist metrics %+v differ from SeqEngine's %+v", met, seqMet)
	}

	sm := eng.ShardMetrics()
	want := ShardMetrics{
		P:               2,
		CrossMessages:   4,
		CrossFrameBytes: 56,
		PerShardBytes:   []int64{28, 28},
		MaxShardBytes:   28,
		EdgeCutFraction: 1.0 / 3.0,
	}
	if !reflect.DeepEqual(sm, want) {
		t.Fatalf("shard metrics %+v, want %+v", sm, want)
	}
}

func TestShardMetricsSurviveWithWireLambda(t *testing.T) {
	// Protocol drivers re-wrap engines via WithWireLambda; the caller's
	// handle must still see the run's ShardMetrics.
	g := graph.Path(4)
	eng := NewEngine(2, Range{})
	wrapped := eng.WithWireLambda(quantize.NewPowerGrid(0.5))
	wrapped.Run(g, func(graph.NodeID) dist.Program { return twoWaveProgram{} }, 5)
	if sm := eng.ShardMetrics(); sm.CrossMessages != 4 {
		t.Fatalf("metrics not visible through original handle: %+v", sm)
	}
}

func TestSingleShardHasNoCrossTraffic(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, 1)
	eng := NewEngine(1, Hash{})
	eng.Run(g, func(graph.NodeID) dist.Program { return twoWaveProgram{} }, 5)
	sm := eng.ShardMetrics()
	if sm.CrossMessages != 0 || sm.CrossFrameBytes != 0 || sm.EdgeCutFraction != 0 {
		t.Fatalf("p=1 run reports cross traffic: %+v", sm)
	}
}
