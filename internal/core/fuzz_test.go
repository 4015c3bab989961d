package core

import (
	"bytes"
	"testing"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// FuzzRestoreSnapshot feeds arbitrary bytes to the checkpoint restore a
// respawned worker runs on state that has crossed two sockets (worker →
// coordinator → new incarnation): dist.Driver.RestoreSnapshot and, under it,
// every elimination program's RestoreState. No input may panic. Whatever is
// accepted is a state the driver can snapshot again, and that snapshot is
// canonical: restoring it reproduces it byte for byte. The seeds that are real
// snapshots are held to the stronger form — restore then snapshot gives the
// seed itself back — and between them carry the owed flag both ways, so a
// RestoreState that drops the flag fails before any fuzzing starts.
func FuzzRestoreSnapshot(f *testing.F) {
	b := graph.NewBuilder(8)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 2}, {2, 3}, {3, 4}, {4, 0}, {4, 5}, {5, 6}, {6, 4}} {
		b.AddUnitEdge(e[0], e[1]) // parallel edges, a self-loop, node 7 isolated
	}
	g := b.Build()
	nodes := []graph.NodeID{0, 2, 3, 5, 7} // one worker's share
	const T = 6
	build := func() (*dist.Driver, *eliminationRun) {
		run := &eliminationRun{T: T, lam: quantize.Reals{}, sink: &DistResult{B: make([]float64, g.N())}}
		return dist.NewDriver(g, nil, run.program), run
	}
	// Real snapshots: one at a pull barrier, one at a barrier a transport hook
	// turned into a scatter.
	identity := func(_, _ graph.NodeID, m dist.Message) dist.Message { return m }
	var owed [2]int // listed nodes snapshotted with the flag clear / set
	for _, seed := range []struct {
		rounds int
		route  dist.RouteFunc
	}{{2, nil}, {4, identity}} {
		d, run := build()
		for t := 0; t <= seed.rounds; t++ {
			d.StepRange(0, g.N(), t)
			d.Deliver(seed.route)
		}
		for _, v := range nodes {
			if run.progs[v].owed { // one chunk holds all eight programs, in node order
				owed[1]++
			} else {
				owed[0]++
			}
		}
		snap, err := d.AppendSnapshot(nil, nodes)
		if err != nil {
			f.Fatal(err)
		}
		d2, _ := build()
		if err := d2.RestoreSnapshot(snap, nodes); err != nil {
			f.Fatal(err)
		}
		if again, err := d2.AppendSnapshot(nil, nodes); err != nil || !bytes.Equal(again, snap) {
			f.Fatalf("snapshot at round %d is not reproduced by restoring it (err %v):\n took     %x\n restored %x", seed.rounds, err, snap, again)
		}
		f.Add(snap)
	}
	if owed[0] == 0 || owed[1] == 0 {
		f.Fatalf("the seed snapshots carry the owed flag one way only (%d clear, %d set)", owed[0], owed[1])
	}
	f.Add([]byte{5, 2})                                                                // bad halted flag
	f.Add([]byte{5, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})    // hostile inbox count
	f.Add([]byte{5, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // hostile state length
	f.Fuzz(func(t *testing.T, data []byte) {
		d, _ := build()
		if d.RestoreSnapshot(data, nodes) != nil {
			return
		}
		snap, err := d.AppendSnapshot(nil, nodes)
		if err != nil {
			t.Fatalf("accepted snapshot %x cannot be taken again: %v", data, err)
		}
		d2, _ := build()
		if err := d2.RestoreSnapshot(snap, nodes); err != nil {
			t.Fatalf("re-taken snapshot %x refused: %v", snap, err)
		}
		if again, err := d2.AppendSnapshot(nil, nodes); err != nil || !bytes.Equal(again, snap) {
			t.Fatalf("snapshot %x is not a fixed point of restore (err %v): %x", snap, err, again)
		}
	})
}
