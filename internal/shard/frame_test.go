package shard_test

import (
	"testing"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// TestFrameVecDecodePooled pins the PR 3 follow-up fix: decoding a frame
// full of Vec-carrying messages through a VecArena must not allocate per
// message (the arena hands out blocks that are recycled every round),
// while the arena-less path — what a correctness test that retains decoded
// messages uses — allocates one slice per Vec. The absolute bound is the
// allocs/op assertion guarding the regression.
func TestFrameVecDecodePooled(t *testing.T) {
	lam := quantize.NewPowerGrid(0.1)
	const msgs = 1000
	var buf []byte
	for i := 0; i < msgs; i++ {
		buf = shard.AppendMessage(buf, lam, graph.NodeID(i+1), dist.Message{
			From: graph.NodeID(i),
			F0:   float64(i),
			Vec:  []float64{1, 2, 3, float64(i)},
		})
	}
	decodeAll := func(arena *shard.VecArena) {
		rest := buf
		for len(rest) > 0 {
			_, m, n, err := shard.DecodeMessage(rest, lam, arena)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Vec) != 4 {
				t.Fatalf("vec length %d", len(m.Vec))
			}
			rest = rest[n:]
		}
	}
	arena := new(shard.VecArena)
	pooled := testing.AllocsPerRun(10, func() {
		arena.Reset()
		decodeAll(arena)
	})
	if pooled > 4 {
		t.Fatalf("pooled decode allocates %.0f per %d-message frame, want ≈0", pooled, msgs)
	}
	plain := testing.AllocsPerRun(5, func() { decodeAll(nil) })
	if plain < msgs {
		t.Fatalf("arena-less decode allocates %.0f, expected ≥ %d — the assertion above is not measuring Vec allocations", plain, msgs)
	}
}
