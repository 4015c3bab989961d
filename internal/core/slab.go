package core

import (
	"sync"
	"unsafe"
)

// Slab carves the per-node arrays of a run's ElimStates — and
// whatever else a protocol keeps one of per node — out of a few shared
// chunks, so a run costs a handful of allocations instead of several per
// node, and only the nodes that actually initialise on this engine pay (a
// cluster worker steps a quarter of the graph). Chunks have a fixed byte
// size, so the unused tail is bounded whatever the run's size. The zero
// value is ready to use; a nil *Slab allocates every array on its own. Safe
// for concurrent use — the parallel engines run Init hooks concurrently.
type Slab struct {
	mu     sync.Mutex
	ints   []int
	floats []float64
	ranks  []int32
}

// slabChunkBytes is the size of one chunk: small enough that a 1 000-node
// run wastes a few per cent in tails, large enough that a 10⁶-node run makes
// tens of thousands of allocations, not millions.
const slabChunkBytes = 16 << 10

// carve returns zeroed arrays of the given lengths.
func (sl *Slab) carve(ints, floats, ranks int) ([]int, []float64, []int32) {
	if sl == nil {
		return make([]int, ints), make([]float64, floats), make([]int32, ranks)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return carve(&sl.ints, ints), carve(&sl.floats, floats), carve(&sl.ranks, ranks)
}

// carve cuts n elements off the chunk, starting a new one when it is spent
// (a request larger than a chunk gets one of its own size). Chunks are never
// reused, so what it returns is zero.
func carve[T any](chunk *[]T, n int) []T {
	if cap(*chunk)-len(*chunk) < n {
		var zero T
		*chunk = make([]T, 0, max(n, slabChunkBytes/int(unsafe.Sizeof(zero))))
	}
	lo := len(*chunk)
	*chunk = (*chunk)[:lo+n]
	return (*chunk)[lo : lo+n : lo+n]
}
