package shard

import (
	"fmt"
	"unsafe"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// Local is one shard's run state, the half of a cluster worker no transport
// touches: a dist.Driver over the nodes the shard owns and the nodes they can
// hear (dist.NewSubsetDriver), the Fanout rows of its nodes, one outbound
// PeerStream per other shard and the arenas inbound Vecs are decoded into. A
// transport sets each stream's Limit and Flush hook, runs the rounds, and
// hands every inbound flow to Absorb: Engine runs P Locals in memory,
// internal/net one a worker over its frame plane. Either way the decoded
// entries are what the receiving shard runs on, so its delivery is the global
// execution's (dist.NewSubsetDriver).
//
// A Local's memory outlives its run when the run ends well: Release hands the
// Driver's arrays and the Local's own — step list, fan-out rows, streams with
// their encode buffers, arenas — to the next Local built, which takes the
// memory that fits it best (DESIGN.md §7). A run that failed drops its Local.
type Local struct {
	// D is the shard's Driver. It prices the shard's share of the protocol
	// Metrics: what its own nodes sent.
	D *dist.Driver
	// Own lists the shard's nodes, ascending: its step order.
	Own []graph.NodeID
	// Fan says which shards a local node's leading broadcast is framed for.
	Fan *Fanout
	// Out[q] encodes the round's entries toward shard q (nil for this shard)
	// and hands them to the transport through its Flush hook.
	Out []*PeerStream

	self   int
	assign []int
	lam    quantize.Lambda
	mem    *localMem
	// arenas[src] holds the Vec payloads decoded from src's flows. They live
	// exactly one round, but round t's flows can arrive while round t-1's
	// vectors are still feeding local hooks — so the arenas double-buffer by
	// round parity: slot t%2 is reset when round t opens, when its round t-2
	// tenants are provably dead. One pair per source keeps concurrent
	// decodes (one per inbound flow) disjoint. Under dist.CheckVecAliasing
	// the Driver re-hashes the Vecs delivered at the close of round t-1 when
	// it closes round t, and round t+1 opens only after that close — the mesh
	// holds back a flow of round t+1 until then — so the re-hash reads slot
	// (t-1)%2 before its reset: the check guards this lifetime too.
	arenas [][2]VecArena
}

// localMem is the memory a Local holds past its Driver's: what NewLocal
// builds and Release hands on.
type localMem struct {
	own     []graph.NodeID
	fan     Fanout
	streams []PeerStream
	out     []*PeerStream
	arenas  [][2]VecArena
}

// freeLocals is the free list of Local memory.
var freeLocals dist.FreeList[localMem]

// fit returns what building a Local of own nodes over p shards in m costs, as
// dist's free list of Driver memory prices it: the bytes of its arrays too
// short, then the bytes m holds. The fan-out rows and the encode buffers grow
// with the nodes and the streams, so those two speak for them.
func (m *localMem) fit(own, p int) (short, held int) {
	for _, a := range [...]struct{ have, need, size int }{
		{cap(m.own), own, int(unsafe.Sizeof(graph.NodeID(0)))},
		{cap(m.fan.off), own + 1, 4},
		{cap(m.streams), p, int(unsafe.Sizeof(PeerStream{}))},
	} {
		if a.have < a.need {
			short += a.need * a.size
		}
		held += a.have * a.size
	}
	held += 4 * cap(m.fan.dst)
	streams := m.streams[:cap(m.streams)]
	for i := range streams {
		held += cap(streams[i].buf)
	}
	for _, a := range m.arenas[:cap(m.arenas)] {
		held += 8 * (cap(a[0].buf) + cap(a[1].buf))
	}
	return short, held
}

// resize returns s at length n, keeping its elements — and, past its length,
// what its array holds — when its capacity allows.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// NewLocal builds the run state of shard self of p for a run of factory on g
// placed by assign, under the threshold set lam (not nil). What it holds
// follows the shard, not the graph: the step list, sized by one counting pass
// over the assignment; the fan-out rows of its nodes; a Driver over them and
// the nodes they can hear. Its memory is a released Local's when one fits.
func NewLocal(g *graph.Graph, assign []int, p, self int, lam quantize.Lambda, factory dist.Factory) *Local {
	cnt := 0
	for _, q := range assign {
		if q == self {
			cnt++
		}
	}
	m := freeLocals.Take(func(m *localMem) (int, int) { return m.fit(cnt, p) })
	if m == nil {
		m = new(localMem)
	}
	if m.own = m.own[:0]; cap(m.own) < cnt {
		m.own = make([]graph.NodeID, 0, cnt)
	}
	for v, q := range assign {
		if q == self {
			m.own = append(m.own, v)
		}
	}
	m.fan.build(g, assign, p, m.own)
	m.streams, m.out, m.arenas = resize(m.streams, p), resize(m.out, p), resize(m.arenas, p)
	for q := range m.out {
		m.out[q] = nil
		if ps := &m.streams[q]; q != self {
			*ps = PeerStream{Lam: lam, buf: ps.buf[:0]}
			m.out[q] = ps
		}
		m.arenas[q][0].Reset()
		m.arenas[q][1].Reset()
	}
	l := &Local{Own: m.own, Fan: &m.fan, Out: m.out, self: self, assign: assign, lam: lam, mem: m, arenas: m.arenas}
	l.D = dist.NewSubsetDriver(g, lam, m.own, factory)
	return l
}

// Release hands the Local's memory to the next Local built: its Driver's
// (dist.Driver.Release) and its own. Call it once the run is over and nothing
// can touch the Local again — no hook runs, no Flush hook is called, no flow
// is absorbed; a run that failed drops its Local instead. What points into the
// run — the streams' hooks and threshold sets, the assignment — is cleared
// first, so the free list pins nothing of it.
func (l *Local) Release() {
	l.D.Release()
	m := l.mem
	for i := range m.streams {
		ps := &m.streams[i]
		*ps = PeerStream{buf: ps.buf[:0]}
	}
	clear(m.out)
	m.fan.assign, m.fan.own = nil, nil
	*l = Local{}
	freeLocals.Put(m)
}

// Emit frames the cross-shard part of what the shard's nodes sent this round
// into Out, in Fanout.Emit's order, each stream flushing a chunk whenever it
// crosses its Limit. Call it after the round's steps and before Deliver; it
// stops at the first Flush error and returns it.
func (l *Local) Emit() error {
	var err error
	l.Fan.Emit(l.D, func(q int, to graph.NodeID, m dist.Message) {
		if err == nil {
			err = l.Out[q].Append(to, m)
		}
	})
	return err
}

// ResetArenas recycles the arena slot round t decodes into. Call it as round
// t opens, before any of its flows is absorbed.
func (l *Local) ResetArenas(t int) {
	for i := range l.arenas {
		l.arenas[i][t&1].Reset()
	}
}

// Absorb decodes count entries shard src sent this one in the given round and
// injects each into the Driver as a send of its remote sender, validating
// that every sender belongs to src and every unicast recipient to this shard
// before Inject refuses what the sender's hook cannot have produced — an entry
// of a sender with no peer here among it: the Driver holds no state for one,
// and who receives a broadcast is read off this shard's own graph, never off
// the wire. Flows of distinct sources may be absorbed concurrently with each
// other and with the steps of the round's local nodes (see Inject); the
// transport orders them all before Deliver.
func (l *Local) Absorb(src, round int, body []byte, count int) error {
	ar := &l.arenas[src][round&1]
	assign, self, cnt := l.assign, l.self, 0
	n := len(assign)
	for len(body) > 0 {
		to, m, used, err := DecodeMessage(body, l.lam, ar)
		if err != nil {
			return err
		}
		body = body[used:]
		u := m.From
		switch {
		case u < 0 || u >= n || assign[u] != src:
			return fmt.Errorf("shard: flow %d→%d carries sender %d not owned by shard %d", src, self, u, src)
		case to != Broadcast && (to >= n || assign[to] != self):
			return fmt.Errorf("shard: flow %d→%d addresses node %d outside shard %d", src, self, to, self)
		}
		if err := l.D.Inject(u, to, m); err != nil {
			return fmt.Errorf("shard: flow %d→%d carries an entry its sender cannot have sent: %w", src, self, err)
		}
		cnt++
	}
	if cnt != count {
		return fmt.Errorf("shard: flow %d→%d decoded %d messages, header says %d", src, self, cnt, count)
	}
	return nil
}
