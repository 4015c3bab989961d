package dist

import (
	"sync"
	"unsafe"
	"weak"

	"distkcore/internal/graph"
)

// This file is the free list of Driver memory (DESIGN.md §7, "What a streamed
// op allocates"): the per-node arrays a sim sizes by its node counts, handed
// from a run that is over to the next sim built, which clears what it takes.
// Every sim draws on it: SeqEngine and ParEngine release theirs when a run
// returns, an engine on a Driver by Driver.Release.

// simMem is the memory of one sim's per-node arrays: alloc's, and a subset
// sim's own index and rows. A whole-graph sim takes none of the latter — its
// rows are the graph's own — and leaves them for the next subset sim.
type simMem struct {
	progs              []Program
	ctxs               []Ctx
	inboxOff, cnt      []int32
	slots              []slot
	outs               [][]envelope
	ix, stepOf, rowOff []int32
	hear, rows         []graph.NodeID
}

// simShape is what a sim sizes its arrays by: its receivers and senders, and
// for a subset sim (nodes > 0) the graph's node count and the links from its
// receivers to its senders.
type simShape struct{ receivers, senders, links, nodes int }

// The bytes a sim's arrays take per unit of its shape.
const (
	bytesPerReceiver = int(unsafe.Sizeof(Program(nil))+unsafe.Sizeof(Ctx{})) + 8 // + inboxOff, cnt
	bytesPerSender   = int(2*unsafe.Sizeof(slot{}) + unsafe.Sizeof([]envelope(nil)))
	bytesPerHeard    = 8  // stepOf, rowOff
	bytesPerLink     = 16 // hear, rows
	bytesPerNode     = 4  // ix
)

// fit returns what building a sim of shape sh in m costs: the bytes of its
// arrays too short for sh, which must be allocated anew, and the bytes m
// holds. Arrays sized by the same count grow together, so one of each group
// speaks for it.
func (m *simMem) fit(sh simShape) (short, held int) {
	heard := 0
	if sh.nodes > 0 {
		heard = sh.senders
	}
	for _, a := range [...]struct{ have, need, size int }{
		{cap(m.ctxs), sh.receivers, bytesPerReceiver},
		{cap(m.slots) / 2, sh.senders, bytesPerSender},
		{cap(m.stepOf), heard, bytesPerHeard},
		{cap(m.rows), sh.links, bytesPerLink},
		{cap(m.ix), sh.nodes, bytesPerNode},
	} {
		if a.have < a.need {
			short += a.need * a.size
		}
		held += a.have * a.size
	}
	return short, held
}

// freeMems lists the released memory, weakly. What keeps a released memory
// alive is agingMems, a sync.Pool each release also puts it in: the pool's
// victim cache holds it through the next collection and lets it go at the
// one after, unless a release put it back in between. So a run after a forced
// collection still finds the last run's arrays, and memory no Driver takes
// again is not kept for good; its entry then reads nil and is pruned.
var (
	freeMems struct {
		sync.Mutex
		list []weak.Pointer[simMem]
	}
	agingMems sync.Pool
)

// takeMem returns the released memory that fits a sim of shape sh best — the
// least to allocate anew, then the least held, so that Drivers of unlike
// shapes built at once each find the memory of their own shape — or new
// memory when none is free.
func takeMem(sh simShape) *simMem {
	freeMems.Lock()
	defer freeMems.Unlock()
	var best *simMem
	at, bestShort, bestHeld := 0, 0, 0
	live := freeMems.list[:0]
	for _, wp := range freeMems.list {
		m := wp.Value()
		if m == nil {
			continue
		}
		if short, held := m.fit(sh); best == nil || short < bestShort || short == bestShort && held < bestHeld {
			best, at, bestShort, bestHeld = m, len(live), short, held
		}
		live = append(live, wp)
	}
	clear(freeMems.list[len(live):])
	if best == nil {
		freeMems.list = live
		return new(simMem)
	}
	last := len(live) - 1
	live[at], live[last] = live[last], weak.Pointer[simMem]{}
	freeMems.list = live[:last]
	return best
}

// take returns *buf resized to n zero elements, reusing its array when it is
// large enough, and keeps the result in *buf.
func take[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}

// release hands the sim's memory to the free list. The arrays that point into
// the run — programs, contexts, slots, queues — are cleared first, so the
// list keeps nothing of it alive.
func (s *sim) release() {
	m := s.mem
	clear(m.progs)
	clear(m.ctxs)
	clear(m.slots)
	clear(m.outs)
	agingMems.Put(m)
	freeMems.Lock()
	freeMems.list = append(freeMems.list, weak.Make(m))
	freeMems.Unlock()
}
