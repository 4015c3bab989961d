package shard

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"distkcore/internal/codec"
	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

func TestDeltaCodecRoundTrip(t *testing.T) {
	d := dist.GraphDelta{Ops: []dist.EdgeOp{
		{U: 0, V: 1, W: 1},
		{Del: true, U: 300, V: 7},
		{U: 5, V: 5, W: 0.25},
		{Del: true, U: 0, V: 0},
		{U: 1 << 20, V: 2, W: math.Inf(1)}, // codec is value-agnostic; validation is Apply's job
	}}
	enc := AppendDelta(nil, 17, d)
	dec := codec.NewDecoder(enc)
	budget, got := DecodeDelta(dec)
	if err := dec.Finish("delta"); err != nil {
		t.Fatal(err)
	}
	if budget != 17 {
		t.Fatalf("budget %d, want 17", budget)
	}
	if !reflect.DeepEqual(got.Ops, d.Ops) {
		t.Fatalf("ops diverge:\n got  %+v\n want %+v", got.Ops, d.Ops)
	}
	if got.Digest() != d.Digest() {
		t.Fatal("digest changed across the round trip")
	}
	// Trailing bytes are left for the caller (the decoder stops where the
	// delta ends).
	dec = codec.NewDecoder(append(enc, 0xAA, 0xBB))
	budget2, got2 := DecodeDelta(dec)
	if budget2 != 17 || dec.Rest() != 2 || !reflect.DeepEqual(got2.Ops, d.Ops) {
		t.Fatalf("decode with trailing bytes: budget=%d rest=%d", budget2, dec.Rest())
	}
}

// The delta decoder runs on bytes straight off a socket: every truncation
// point, hostile count and unknown tag must come back as an error — never
// a panic, never a huge allocation.
func TestDeltaDecodeHostileInputs(t *testing.T) {
	decodeErr := func(src []byte) error {
		d := codec.NewDecoder(src)
		DecodeDelta(d)
		return d.Finish("delta")
	}
	good := AppendDelta(nil, 3, dist.GraphDelta{Ops: []dist.EdgeOp{
		{U: 200, V: 1, W: 2.5}, {Del: true, U: 1, V: 200},
	}})
	// Every strict prefix is truncated somewhere.
	for cut := 0; cut < len(good); cut++ {
		if err := decodeErr(good[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(good))
		}
	}
	hostile := map[string][]byte{
		"empty":                  {},
		"count exceeds payload":  {3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		"huge count small body":  append([]byte{0}, append([]byte{0xFF, 0xFF, 0x7F}, make([]byte, 16)...)...),
		"unknown tag bits":       {0, 1, 0x80, 1, 2},
		"non-terminated uvarint": {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
	}
	for name, src := range hostile {
		if err := decodeErr(src); err == nil {
			t.Errorf("%s: hostile input decoded without error", name)
		}
	}
	// A lying count must error before allocating count-sized memory: the
	// guard caps at len/3, so this must not OOM regardless of the claimed
	// 2^28 ops.
	lying := []byte{0, 0x80, 0x80, 0x80, 0x80, 0x01, 0, 1, 2}
	if err := decodeErr(lying); err == nil {
		t.Error("lying count decoded without error")
	}
}

func TestFrontier(t *testing.T) {
	d := dist.GraphDelta{Ops: []dist.EdgeOp{
		{U: 9, V: 2, W: 1}, {Del: true, U: 2, V: 9}, {U: 4, V: 4, W: 1},
	}}
	got := Frontier(d)
	if want := []graph.NodeID{2, 4, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("frontier %v, want %v", got, want)
	}
	if f := Frontier(dist.GraphDelta{}); len(f) != 0 {
		t.Fatalf("empty delta has frontier %v", f)
	}
}

func TestRebalanceProperties(t *testing.T) {
	g := graph.BarabasiAlbert(400, 4, 3)
	delta := dist.RandomChurn(g, 120, 5)
	g2, err := delta.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	frontier := Frontier(delta)
	for _, p := range []int{2, 4, 8} {
		for _, part := range []Partitioner{Hash{}, Range{}, Greedy{}} {
			assign := part.Partition(g, p)
			before := append([]int(nil), assign...)
			next := rebalanceCopy(part, g2, p, assign, frontier, len(frontier))
			if !reflect.DeepEqual(assign, before) {
				t.Fatalf("%s/P=%d: Rebalance mutated the input assignment", part.Name(), p)
			}
			again := rebalanceCopy(part, g2, p, assign, frontier, len(frontier))
			if !reflect.DeepEqual(next, again) {
				t.Fatalf("%s/P=%d: Rebalance is nondeterministic", part.Name(), p)
			}
			moved := 0
			for v := range next {
				if next[v] != assign[v] {
					moved++
					if !containsNode(frontier, v) {
						t.Fatalf("%s/P=%d: node %d moved but is not on the frontier", part.Name(), p, v)
					}
				}
			}
			switch part.(type) {
			case Hash, Range:
				if moved != 0 {
					t.Fatalf("%s/P=%d: ID-pure placement moved %d nodes", part.Name(), p, moved)
				}
			case Greedy:
				if CutFraction(g2, next) > CutFraction(g2, assign) {
					t.Fatalf("greedy/P=%d: rebalance worsened the cut", p)
				}
				// The budget is a hard cap.
				capped := rebalanceCopy(part, g2, p, assign, frontier, 1)
				cm := 0
				for v := range capped {
					if capped[v] != assign[v] {
						cm++
					}
				}
				if cm > 1 {
					t.Fatalf("greedy/P=%d: budget 1 but %d nodes moved", p, cm)
				}
			}
		}
	}
}

// rebalanceCopy is part's rebalance as a whole array: a copy of assign with
// the returned moves applied.
func rebalanceCopy(part Partitioner, g Topology, p int, assign []int, frontier []graph.NodeID, moveBudget int) []int {
	next := append([]int(nil), assign...)
	ApplyMoves(next, part.Rebalance(g, p, assign, frontier, moveBudget, nil))
	return next
}

func containsNode(sorted []graph.NodeID, v graph.NodeID) bool {
	for _, x := range sorted {
		if x == v {
			return true
		}
	}
	return false
}

// placed is a Partitioner that hands out one fixed assignment: how a test
// runs an engine on a placement no Partition call produced.
type placed []int

func (a placed) Partition(*graph.Graph, int) []int { return a }
func (a placed) Rebalance(_ Topology, _ int, _ []int, _ []graph.NodeID, _ int, moves []Move) []Move {
	return moves[:0]
}
func (placed) Name() string { return "placed" }

// What retiring the one-shot churned run gave up is a run whose placement
// was rebalanced off a stale assignment rather than partitioned fresh
// (DESIGN.md §9). Nothing else depended on it: on the mutated graph, a
// sharded run under the rebalanced assignment produces Metrics and surviving
// numbers byte-identical to a fresh SeqEngine run, over generators × seeds ×
// P × partitioner.
func TestChurnedShardEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		graphs := map[string]*graph.Graph{
			"ba": graph.BarabasiAlbert(150, 3, seed),
			"er": graph.ErdosRenyi(120, 0.05, seed+1),
			"ws": graph.WattsStrogatz(100, 4, 0.2, seed+2),
		}
		for name, g := range graphs {
			delta := dist.RandomChurn(g, 60, seed+3)
			g2, err := delta.Apply(g)
			if err != nil {
				t.Fatal(err)
			}
			T := core.TForEpsilon(g.N(), 0.5)
			for _, lam := range []quantize.Lambda{nil, quantize.NewPowerGrid(0.1)} {
				opt := core.Options{Rounds: T, Lambda: lam}
				ref, refMet := core.RunDistributed(g2, opt, dist.SeqEngine{})
				for _, p := range []int{1, 2, 4} {
					for _, part := range []Partitioner{Hash{}, Range{}, Greedy{}} {
						next := RebalanceAssign(part, g2, p, part.Partition(g, p), delta, 0)
						res, met := core.RunDistributed(g2, opt, NewEngine(p, placed(next)))
						tag := fmt.Sprintf("seed %d %s λ=%v shard:%d/%s", seed, name, lam, p, part.Name())
						if met != refMet || !reflect.DeepEqual(res.B, ref.B) {
							t.Fatalf("%s: run under the rebalanced placement diverges from a fresh seq run (metrics %+v, want %+v)", tag, met, refMet)
						}
					}
				}
			}
		}
	}
}
