package core

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"weak"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// A released slab's chunks go to the next slab that carves, which gets them
// zero — programs, ElimState arrays and a carve of every kind alike. They hold
// nothing of the run they served: the programs' chunks are zeroed at release,
// so the run is collected while the chunks are in use again. A carve larger
// than a chunk is served whole, and chunks no slab takes again are let go
// after two collections.
func TestReleasedSlabComesBackZeroed(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // nothing collected until asked
	runtime.GC()
	runtime.GC() // the free list is empty
	g := graph.BarabasiAlbert(400, 3, 2)
	er := &eliminationRun{T: 5, lam: quantize.Reals{}, sink: &DistResult{B: make([]float64, g.N())}}
	dist.SeqEngine{}.Run(g, er.program, er.T)
	ints, floats, ranks, flags := er.slab.Carve(3, 3, 3, 3)
	for i := range 3 {
		ints[i], floats[i], ranks[i], flags[i] = 1, 1, 1, true
	}
	big := slabChunkBytes/8 + 1
	if _, f, _, _ := er.slab.Carve(0, big, 0, 0); len(f) != big || cap(f) != big || f[big-1] != 0 {
		t.Fatalf("a carve of %d floats, more than a chunk holds, returned len %d cap %d", big, len(f), cap(f))
	}
	mem := er.slab.mem
	progs := mem.progs.(*chunks[eliminationProgram])
	first, firstInt := &progs.all[0][0], &mem.ints.all[0][0]
	if first.run != er {
		t.Fatal("the first program carved is not the run's")
	}
	run := weak.Make(er)
	er.slab.Release()
	er = nil

	if !allZero(progs.all) {
		t.Fatal("a released program chunk is not zero")
	}
	var sl Slab
	p := Alloc[eliminationProgram](&sl)
	in, fl, rk, fg := sl.Carve(1, 1, 1, 1)
	if sl.mem != mem || p != first || &in[0] != firstInt {
		t.Fatal("the next slab did not carve from the released chunks")
	}
	if !reflect.ValueOf(*p).IsZero() || in[0] != 0 || fl[0] != 0 || rk[0] != 0 || fg[0] {
		t.Fatal("a reused chunk is not zero")
	}
	if !allZero(mem.ints.all[:1]) || !allZero(mem.floats.all[:1]) || !allZero(mem.ranks.all[:1]) || !allZero(mem.flags.all[:1]) {
		t.Fatal("a reused chunk is not zero past what was carved from it")
	}
	runtime.GC()
	if run.Value() != nil {
		t.Fatal("the released chunks keep the run they served alive")
	}

	held := weak.Make(mem)
	sl.Release()
	mem, progs, first, firstInt, p, in, fl = nil, nil, nil, nil, nil, nil, nil
	runtime.GC()
	runtime.GC()
	if held.Value() != nil {
		t.Fatal("chunks released before two collections are still held")
	}
}

// allZero reports whether every element of every chunk is its zero value.
func allZero[T any](all [][]T) bool {
	for _, ch := range all {
		for i := range ch {
			if !reflect.ValueOf(&ch[i]).Elem().IsZero() {
				return false
			}
		}
	}
	return true
}

// A second coreness run on SeqEngine takes the first one's memory — its sim's
// arrays and round buffers, its slab's chunks — and allocates what a run's
// result and a few headers take. No collection runs between the two: under the
// race detector sync.Pool drops a random quarter of what it is handed, and a
// collection would then free that memory.
func TestSecondSeqRunReusesItsMemory(t *testing.T) {
	g := graph.BarabasiAlbert(1000, 4, 1)
	opt := Options{Rounds: TForEpsilon(g.N(), 0.5)}
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	RunDistributed(g, opt, dist.SeqEngine{})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	RunDistributed(g, opt, dist.SeqEngine{})
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 64<<10 {
		t.Errorf("the second run allocated %d bytes, want < 64 KiB", got)
	} else {
		t.Logf("the second run allocated %d bytes", got)
	}
}
