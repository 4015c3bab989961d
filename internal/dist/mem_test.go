package dist

import (
	"runtime"
	"runtime/debug"
	"testing"

	"distkcore/internal/graph"
)

// Released Driver memory goes to the next Driver of its own shape, in
// whichever order Drivers of unlike shapes are built — the hub shard of a
// partition and a small one each find their own arrays — and a memory nobody
// takes again is let go after two collections.
func TestReleasedMemoryGoesToItsShape(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // nothing collected until the last step
	runtime.GC()
	runtime.GC() // the free list is empty
	g := graph.BarabasiAlbert(400, 3, 2)
	idle := func(graph.NodeID) Program { return programFunc{} }
	speak := func(graph.NodeID) Program { // leaves a stamped slot and a halted context behind
		return programFunc{init: func(c *Ctx) { c.Broadcast(Message{F0: 1}); c.Halt() }}
	}
	hub, leaf := []graph.NodeID{0, 1, 2, 3}, []graph.NodeID{397, 398, 399}
	h, l, w := NewSubsetDriver(g, nil, hub, speak), NewSubsetDriver(g, nil, leaf, speak), NewDriver(g, nil, speak)
	hm, lm, wm := h.s.mem, l.s.mem, w.s.mem
	if hm == lm || lm == wm || hm == wm {
		t.Fatal("two Drivers built in one memory")
	}
	h.StepList(hub, 0)
	l.StepList(leaf, 0)
	w.StepRange(0, g.N(), 0)
	h.Release()
	l.Release()
	w.Release()

	l2 := NewSubsetDriver(g, nil, leaf, idle) // the smallest shape first: it must not take the hub's
	w2 := NewDriver(g, nil, idle)
	h2 := NewSubsetDriver(g, nil, hub, idle)
	if h2.s.mem != hm || l2.s.mem != lm || w2.s.mem != wm {
		t.Fatalf("built again, the hub, leaf and whole-graph Drivers took memory %p, %p, %p; they released %p, %p, %p",
			h2.s.mem, l2.s.mem, w2.s.mem, hm, lm, wm)
	}
	for _, d := range []*Driver{h2, l2, w2} {
		if d.Alive() != len(d.s.ctxs) {
			t.Fatalf("a reused Driver counts %d of its %d nodes alive", d.Alive(), len(d.s.ctxs))
		}
		for r := range d.s.ctxs {
			if c := &d.s.ctxs[r]; c.halted || c.sim != d.s {
				t.Fatalf("a reused context is not the new run's: %+v", *c)
			}
		}
		for i := range d.s.slots {
			if d.s.slots[i].seq != 0 {
				t.Fatalf("reused slot %d holds round stamp %d", i, d.s.slots[i].seq)
			}
		}
	}

	h2.Release()
	hm = nil
	runtime.GC()
	runtime.GC()
	freeMems.mu.Lock()
	defer freeMems.mu.Unlock()
	for _, wp := range freeMems.list {
		if wp.Value() != nil {
			t.Fatal("memory released before two collections is still on the free list")
		}
	}
}
