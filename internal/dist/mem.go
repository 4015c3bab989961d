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
// rows are the graph's own — and leaves them for the next subset sim. The
// round buffers a sim sizes by its traffic ride along: the scatter's arena,
// the speaker lists and the capacity of every sender's queue.
type simMem struct {
	progs              []Program
	ctxs               []Ctx
	inboxOff, cnt      []int32
	slots              []slot
	outs               [][]envelope
	ix, stepOf, rowOff []int32
	hear, rows         []graph.NodeID
	arena              []Message
	speakers           []int32
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

// FreeList holds released run memory of type M until a later run takes it.
// It is the one lifetime rule for memory that outlives its run — a Driver's
// arrays here, core.Slab's chunks — and it holds its entries weakly. What
// keeps a released memory alive is an aging sync.Pool each Put also puts it
// in: the pool's victim cache holds it through the next collection and lets
// it go at the one after, unless a Put released it again in between. So a run
// after a forced collection still finds the last run's memory, and memory no
// run takes again is not kept for good; its entry then reads nil and is
// pruned. The zero value is empty and ready to use.
type FreeList[M any] struct {
	mu    sync.Mutex
	list  []weak.Pointer[M]
	aging sync.Pool
}

// Put releases m: nothing may touch it again until a Take returns it.
func (f *FreeList[M]) Put(m *M) {
	f.aging.Put(m)
	f.mu.Lock()
	f.list = append(f.list, weak.Make(m))
	f.mu.Unlock()
}

// Take removes and returns the released memory whose cost is least — its two
// numbers compared in order, the earlier release winning a tie — or nil when
// none is free.
func (f *FreeList[M]) Take(cost func(*M) (int, int)) *M {
	f.mu.Lock()
	defer f.mu.Unlock()
	var best *M
	at, best0, best1 := 0, 0, 0
	live := f.list[:0]
	for _, wp := range f.list {
		m := wp.Value()
		if m == nil {
			continue
		}
		if c0, c1 := cost(m); best == nil || c0 < best0 || c0 == best0 && c1 < best1 {
			best, at, best0, best1 = m, len(live), c0, c1
		}
		live = append(live, wp)
	}
	clear(f.list[len(live):])
	if best == nil {
		f.list = live
		return nil
	}
	last := len(live) - 1
	copy(live[at:], live[at+1:])
	live[last] = weak.Pointer[M]{}
	f.list = live[:last]
	return best
}

// freeMems is the free list of sim memory.
var freeMems FreeList[simMem]

// takeMem returns the released memory that fits a sim of shape sh best — the
// least to allocate anew, then the least held, so that Drivers of unlike
// shapes built at once each find the memory of their own shape — or new
// memory when none is free.
func takeMem(sh simShape) *simMem {
	if m := freeMems.Take(func(m *simMem) (int, int) { return m.fit(sh) }); m != nil {
		return m
	}
	return new(simMem)
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

// keep returns *buf resized to n elements, keeping what its array holds —
// the queues release emptied, with their capacity — and keeps the result in
// *buf.
func keep[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = append(make([]T, 0, n), (*buf)[:cap(*buf)]...)
	}
	*buf = (*buf)[:n]
	return *buf
}

// release hands the sim's memory to the free list. What points into the run —
// programs, contexts, slots, queued messages, the arena's Vecs — is cleared
// first, so the list keeps nothing of it alive; the queues keep their
// capacity. The arena keeps the rest of its messages: an inbox a program kept
// against the contract reads what CheckInboxRetention left there until the
// next run writes over it.
func (s *sim) release() {
	m := s.mem
	m.arena, m.speakers = s.inboxArena, s.speakers
	clear(m.progs)
	clear(m.ctxs)
	clear(m.slots)
	for i, q := range m.outs {
		clear(q[:cap(q)])
		m.outs[i] = q[:0]
	}
	arena := m.arena[:cap(m.arena)]
	for i := range arena {
		arena[i].Vec = nil
	}
	freeMems.Put(m)
}
