package core

import (
	"sync"
	"unsafe"

	"distkcore/internal/dist"
)

// Slab carves the per-node arrays of a run's ElimStates — and whatever else a
// protocol keeps one of per node, its programs included (Alloc) — out of a
// few shared chunks, so a run costs a handful of allocations instead of
// several per node, and only the nodes that actually initialise on this engine
// pay (a cluster worker steps a quarter of the graph). Chunks have a fixed
// byte size, so the unused tail is bounded whatever the run's size. Once the
// engine's Run has returned, the protocol driver releases the slab and its
// chunks go to the next slab that carves (DESIGN.md §7); a run that panicked
// drops them. What a slab returns is zero either way. The zero value is ready
// to use; a nil *Slab allocates every array on its own. Safe for concurrent
// use — the parallel engines run Init hooks concurrently.
type Slab struct {
	mu  sync.Mutex
	mem *slabMem // taken off the free list by the first carve
}

// slabMem is a slab's chunks, the unit the free list holds.
type slabMem struct {
	ints   chunks[int]
	floats chunks[float64]
	ranks  chunks[int32]
	flags  chunks[bool]
	progs  interface{ scrub() } // *chunks[P] of the last run's program type P
}

// freeSlabs is the free list of released slab chunks. They have one size, so
// any released slabMem serves.
var freeSlabs dist.FreeList[slabMem]

// slabChunkBytes is the size of one chunk: small enough that a 1 000-node
// run wastes a few per cent in tails, large enough that a 10⁶-node run makes
// tens of thousands of allocations, not millions.
const slabChunkBytes = 16 << 10

// Carve returns zeroed arrays of the given lengths.
func (sl *Slab) Carve(ints, floats, ranks, flags int) ([]int, []float64, []int32, []bool) {
	if sl == nil {
		return make([]int, ints), make([]float64, floats), make([]int32, ranks), make([]bool, flags)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	m := sl.take()
	return m.ints.carve(ints), m.floats.carve(floats), m.ranks.carve(ranks), m.flags.carve(flags)
}

// Alloc returns a zero T carved from sl: a protocol's program, one a node. A
// run allocates values of one type this way; a released slab keeps the chunks
// of the last type it held.
func Alloc[T any](sl *Slab) *T {
	if sl == nil {
		return new(T)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	m := sl.take()
	c, ok := m.progs.(*chunks[T])
	if !ok {
		c = new(chunks[T])
		m.progs = c
	}
	return &c.carve(1)[0]
}

// take returns the slab's chunks, off the free list on the first call.
func (sl *Slab) take() *slabMem {
	if sl.mem == nil {
		sl.mem = freeSlabs.Take(func(*slabMem) (int, int) { return 0, 0 })
		if sl.mem == nil {
			sl.mem = new(slabMem)
		}
	}
	return sl.mem
}

// Release hands the slab's chunks to the next slab that carves, the
// programs' zeroed first so that the free list holds nothing of the run. Call
// it once the engine's Run has returned (no hook of the run can still execute,
// dist.Engine) and nothing carved is read again: the results are copied out.
// The slab is empty afterwards. Not releasing is always safe.
func (sl *Slab) Release() {
	sl.mu.Lock()
	m := sl.mem
	sl.mem = nil
	sl.mu.Unlock()
	if m == nil {
		return
	}
	m.ints.rewind()
	m.floats.rewind()
	m.ranks.rewind()
	m.flags.rewind()
	if m.progs != nil {
		m.progs.scrub()
	}
	freeSlabs.Put(m)
}

// chunks is one kind of a slab's memory: fixed-size chunks of T, of which the
// run carves from the first used, in order.
type chunks[T any] struct {
	all  [][]T // every chunk held, each whole
	used int   // the chunks carved from in this run: all[:used]
	rest []T   // the part of all[used-1] not carved yet
	// scrubbed says the held chunks are zero: the last run's release zeroed
	// what it carved, which it does for the programs alone. Otherwise carve
	// zeroes a held chunk as it enters it — right before the run writes it,
	// where a fresh chunk's zeroing would be. Zeroing every chunk at release
	// instead read 8.9–9.4 ms of CPU a coreness run on ParEngine against
	// 7.8–8.3 this way (BarabasiAlbert(2 000, 4, 1), 2 vCPUs, DESIGN.md §7).
	scrubbed bool
}

// carve cuts n zero elements off the current chunk, moving to the next one —
// held, or new — when it is spent. A request larger than a chunk gets an array
// of its own, which is not kept.
func (c *chunks[T]) carve(n int) []T {
	if n > len(c.rest) {
		var zero T
		per := slabChunkBytes / int(unsafe.Sizeof(zero))
		if n > per {
			return make([]T, n)
		}
		if c.used == len(c.all) {
			c.all = append(c.all, make([]T, per))
		} else if !c.scrubbed {
			clear(c.all[c.used])
		}
		c.rest = c.all[c.used]
		c.used++
	}
	a := c.rest[:n:n]
	c.rest = c.rest[n:]
	return a
}

// rewind opens the chunks for the next run, which zeroes each as it enters it.
func (c *chunks[T]) rewind() { c.used, c.rest, c.scrubbed = 0, nil, false }

// scrub zeroes what the run carved — so the chunks point at nothing of it —
// and opens them for the next run.
func (c *chunks[T]) scrub() {
	for i, ch := range c.all[:c.used] {
		if i == c.used-1 {
			ch = ch[:len(ch)-len(c.rest)]
		}
		clear(ch)
	}
	c.used, c.rest, c.scrubbed = 0, nil, true
}
