package dynamic

import (
	"math"
	"testing"

	"distkcore/internal/core"
	"distkcore/internal/dist"
)

// fuzzWeights are exactly summable in any order, the contract the repair is
// exact under.
var fuzzWeights = [4]float64{0.25, 0.5, 1, 2}

// fuzzBatches decodes two bytes per op against an 8-node graph: byte one is
// U (bits 0–2), V (bits 3–5), delete (bit 6) and "this op closes its batch"
// (bit 7); byte two picks the insert weight. At most three batches of at most
// 48 ops in all; whether a delete names a live edge is up to the graph.
func fuzzBatches(data []byte) [][]dist.EdgeOp {
	batches := [][]dist.EdgeOp{nil}
	for i := 0; i+1 < len(data) && i < 96; i += 2 {
		a, last := data[i], len(batches)-1
		op := dist.EdgeOp{U: int(a & 7), V: int(a >> 3 & 7), Del: a&64 != 0}
		if !op.Del {
			op.W = fuzzWeights[data[i+1]&3]
		}
		batches[last] = append(batches[last], op)
		if a&128 != 0 && len(batches) < 3 {
			batches = append(batches, nil)
		}
	}
	return batches
}

// fuzzSeed is fuzzBatches' inverse for one batch, to seed the corpus from the
// hand-built cases.
func fuzzSeed(ops []dist.EdgeOp) []byte {
	var data []byte
	for i, op := range ops {
		a, w := byte(op.U)|byte(op.V)<<3, byte(0)
		if op.Del {
			a |= 64
		}
		if i == len(ops)-1 {
			a |= 128
		}
		for j, fw := range fuzzWeights {
			if fw == op.W {
				w = byte(j)
			}
		}
		data = append(data, a, w)
	}
	return data
}

// FuzzRepairMatchesScratch applies fuzzer-chosen batches — inserts, loops,
// parallels, deletes of live and of missing edges — to the oracle multigraph
// and holds the maintainer, after every batch, to a fresh core.Run on the
// canonically applied graph: every level of the history bit for bit, the
// rolling hash against a from-scratch one, and the prefix contract of a batch
// that fails mid-way.
func FuzzRepairMatchesScratch(f *testing.F) {
	ins := func(u, v int, w float64) dist.EdgeOp { return dist.EdgeOp{U: u, V: v, W: w} }
	del := func(u, v int) dist.EdgeOp { return dist.EdgeOp{Del: true, U: u, V: v} }
	for _, ops := range [][]dist.EdgeOp{
		{ins(5, 6, 2), del(6, 5)},                                   // insert then delete one pair
		{del(0, 1), ins(0, 1, 0.5)},                                 // delete then reinsert
		{ins(7, 7, 2), del(3, 3), ins(3, 3, 0.5), del(7, 7)},        // self-loops in and out
		{ins(0, 1, 0.25), ins(0, 1, 2), del(1, 0), del(0, 1)},       // parallel copies of different weight
		{del(4, 5), del(2, 4), ins(4, 6, 1)},                        // a far end that moves in the batch that cuts it off
		{ins(6, 7, 2), ins(1, 6, 1), ins(1, 7, 1), ins(6, 6, 0.25)}, // a far end that rises in the batch that attaches it
		{ins(1, 2, 1), del(6, 7), ins(2, 3, 1)},                     // fails at op 1
	} {
		f.Add(fuzzSeed(ops))
		f.Add(append(fuzzSeed(ops), fuzzSeed([]dist.EdgeOp{del(0, 2), ins(2, 5, 1)})...))
	}
	base := oracleGraphs()["multi"]
	f.Fuzz(func(t *testing.T, data []byte) {
		T := 1 + len(data)%5
		g, m := base, New(base, T)
		for bi, ops := range fuzzBatches(data) {
			// The canonical prefix: ops apply in slice order until one cannot.
			prefix := 0
			for ; prefix < len(ops); prefix++ {
				g2, err := dist.GraphDelta{Ops: ops[prefix : prefix+1]}.Apply(g)
				if err != nil {
					break
				}
				g = g2
			}
			before := m.Stats
			if err := m.ApplyDelta(dist.GraphDelta{Ops: ops}); (err != nil) != (prefix < len(ops)) {
				t.Fatalf("batch %d: ApplyDelta said %v, canonical Apply stops at op %d of %d", bi, err, prefix, len(ops))
			}
			if got := m.Stats.Updates - before.Updates; got != prefix {
				t.Fatalf("batch %d: %d ops applied, canonical Apply %d", bi, got, prefix)
			}
			if m.Stats.Verified-before.Verified > m.Stats.Reevaluated-before.Reevaluated {
				t.Fatalf("batch %d: more evaluations verified than made: %+v after %+v", bi, m.Stats, before)
			}
			if m.Adjacency().Hash() != g.EdgeSetHash() {
				t.Fatalf("batch %d: rolling hash %#x, from-scratch %#x", bi, m.Adjacency().Hash(), g.EdgeSetHash())
			}
			fresh := core.Run(g, core.Options{Rounds: T, RecordHistory: true})
			for tt := 1; tt <= T; tt++ {
				for v := 0; v < g.N(); v++ {
					if got, want := m.History(tt)[v], fresh.History[tt-1][v]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("batch %d: β_%d(%d) = %v, fresh core.Run %v", bi, tt, v, got, want)
					}
				}
			}
		}
	})
}
