package shard

import (
	"strings"
	"testing"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// What a flow may carry is narrower than what the entry codec can express
// (DESIGN.md §8.4 step 3): every sender owned by the flow's source shard,
// every unicast recipient by this one, and at most one broadcast entry per
// sender per round — first among that sender's entries — every sender one
// with a peer here (the shard's Driver holds no state for any other), and
// every unicast recipient a neighbor of its sender. Each violation aborts
// with a flow error: a repeated broadcast would otherwise fall through
// Ctx.Broadcast into the queue and deliver twice, a send to a non-neighbor
// panic inside Ctx.Send.
func TestAbsorbRefusesMalformedFlows(t *testing.T) {
	// 4 — 0 — 1 — 2 — 3 with shard 0 = {0, 1, 4} and shard 1 = {2, 3}: seen
	// from shard 1, sender 1 has a peer here, senders 0 and 4 do not.
	b := graph.NewBuilder(5)
	for _, e := range [][2]int{{4, 0}, {0, 1}, {1, 2}, {2, 3}} {
		b.AddUnitEdge(e[0], e[1])
	}
	g, assign, lam := b.Build(), []int{0, 0, 1, 1, 0}, quantize.Reals{}
	type entry struct {
		to   graph.NodeID
		from graph.NodeID
	}
	bc := func(from graph.NodeID) entry { return entry{Broadcast, from} }
	cases := []struct {
		name   string
		chunks [][]entry // absorbed in order, as the chunks of one round's flow 0→1
		count  int       // announced for the last chunk; 0 means its true count
		want   string    // "" means accepted
	}{
		{"broadcast then unicast", [][]entry{{bc(1), {2, 1}}}, 0, ""},
		{"unicast only", [][]entry{{{2, 1}, {2, 1}}}, 0, ""},
		{"broadcast twice", [][]entry{{bc(1), bc(1)}}, 0, "broadcast of sender 1 is not the first send of its round"},
		{"broadcast twice across chunks", [][]entry{{bc(1)}, {bc(1)}}, 0, "broadcast of sender 1 is not the first send of its round"},
		{"broadcast behind unicast", [][]entry{{{2, 1}, bc(1)}}, 0, "broadcast of sender 1 is not the first send of its round"},
		{"broadcast with no peer here", [][]entry{{bc(0)}}, 0, "sender 0 has no neighbor among this driver's nodes"},
		{"unicast with no peer here", [][]entry{{{2, 4}}}, 0, "sender 4 has no neighbor among this driver's nodes"},
		{"broadcast from this shard's own node", [][]entry{{bc(2)}}, 0, "sender 2 not owned by shard 0"},
		{"broadcast from a node out of range", [][]entry{{bc(5)}}, 0, "sender 5 not owned by shard 0"},
		{"unicast from this shard's own node", [][]entry{{{3, 2}}}, 0, "sender 2 not owned by shard 0"},
		{"unicast outside this shard", [][]entry{{{0, 1}}}, 0, "addresses node 0 outside shard 1"},
		{"unicast out of range", [][]entry{{{5, 1}}}, 0, "addresses node 5 outside shard 1"},
		{"unicast to a non-neighbor here", [][]entry{{{3, 1}}}, 0, "node 3 is not a neighbor of sender 1"},
		{"count overstated", [][]entry{{bc(1)}}, 2, "decoded 1 messages, header says 2"},
	}
	for _, tc := range cases {
		l := NewLocal(g, assign, 2, 1, lam, func(graph.NodeID) dist.Program { return emitProg{} })
		var err error
		for i, chunk := range tc.chunks {
			var body []byte
			for _, e := range chunk {
				body = AppendMessage(body, lam, e.to, dist.Message{From: e.from, F0: 1})
			}
			count := len(chunk)
			if i == len(tc.chunks)-1 && tc.count != 0 {
				count = tc.count
			}
			if err = l.Absorb(0, 0, body, count); err != nil {
				break
			}
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), "shard: flow 0→1 ") || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: %v, want a flow 0→1 error saying %q", tc.name, err, tc.want)
		}
	}
}
