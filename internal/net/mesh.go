package net

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
)

// This file is the mesh data plane of streamed delivery (DESIGN.md §14):
// the worker↔worker connections that carry peer-frame chunks and the
// end-of-flow markers a round closes on, leaving the coordinator connection to
// the records it verifies behind the workers. One mesh lives inside each
// streamed Worker.
//
// The mesh is full: every worker holds one link to every other, and a record
// on the link to j is j's own, addressed to this worker — nothing is
// forwarded, so a record claiming another sender or destination is refused.
//
// Concurrency shape: per link, one reader goroutine (decode, link check,
// round-gate) and a cursor into the log retained toward its peer; per mesh,
// one writer goroutine that writes every link's log past its cursor in turn.
// Nothing waits on a receiver: a sender retains a record and moves on, a
// round is the mesh's flow control (no sender runs more than one round
// ahead of any receiver, DESIGN.md §14), and a reader never writes — it only
// decodes — so the cycle "A blocked writing to B, B's reader blocked locking
// A" cannot form, on synchronous transports (net.Pipe) included. All shared
// state sits under one mutex; the condition variable carries retained
// records, a round's close and the control connection's verdicts
// (streamWorker.control).

// peerFrameHeaderMax bounds codec.AppendPeerFrame's output (five uvarints): the
// header is encoded on the stack first, so the record's size is known before
// it is written — length, type byte, header, bodies — straight into the
// retained log, the one copy a chunk's bytes make on the way out.
const peerFrameHeaderMax = 5 * binary.MaxVarintLen64

// logBlockMin is the smallest block a retained log or an ahead-of-round buffer
// allocates. A log's next block is as large as what the log already holds, so
// a log of b bytes sits in about log₂(b/logBlockMin) blocks, and a later run's
// log takes them back in order.
const logBlockMin = 1 << 10

// meshLink is one attached peer connection plus its cursor into the log
// retained toward that peer: the writer has taken every byte before block
// blk's byte off. A fresh link's cursor is byte 0 of block 0.
type meshLink struct {
	c        *Conn
	gen      int  // the peer's generation from its mesh hello; -1 dialed, older than any
	down     bool // reader saw death / writer saw a write error
	blk, off int
}

// take returns the bytes of log past the link's cursor, up to the end of the
// block they start in, and moves the cursor past them; nil when the writer has
// taken them all. Only the last block grows, so the cursor steps to the next
// block once it reaches a block's end and a later one exists. A block holds
// whole records, so what take returns is whole records too.
func (l *meshLink) take(log [][]byte) []byte {
	for l.blk < len(log)-1 && l.off == len(log[l.blk]) {
		l.blk, l.off = l.blk+1, 0
	}
	if l.blk >= len(log) {
		return nil
	}
	b := log[l.blk][l.off:]
	l.off += len(b)
	return b
}

// meshConfig is everything a Worker hands its mesh.
type meshConfig struct {
	Self int
	P    int
	Gen  int // this incarnation's generation (0 initial, +1 per respawn)
	// Timeout bounds formation and each write to a link; 0 waits forever.
	Timeout time.Duration
	// Dial opens a raw connection to worker dst's mesh endpoint.
	Dial func(dst int) (net.Conn, error)
	// Accept blocks for the next inbound mesh connection; it must return an
	// error once Close() runs so the accept loop exits.
	Accept func() (net.Conn, error)
	// CloseAccept stops Accept.
	CloseAccept func()
	// Deliver hands one accepted chunk's message bodies up to the worker.
	// Called with the mesh mutex held, serially per src, only for chunks of
	// the mesh's current round.
	Deliver func(src, round int, body []byte, count int) error
}

// futRec is one inbound flow record buffered because it is ahead of the
// mesh's current round: a peer that closed its round first is already
// streaming the next one, and a respawned worker running the run again is sent
// every retained round at once. Readers never park on the round gate — they
// buffer and move on, which keeps every link draining and the mesh
// deadlock-free. Buffered records are drained, in arrival order, when
// beginRound reaches their round, and decoded again then: a record is its
// round and a copy of its body, so a run far ahead costs its peers 40 bytes a
// record on top of the copies.
type futRec struct {
	typ   byte // recPeerFrame | recWindow
	round int
	body  []byte // the record's body, a copy in meshPeer.ahead
}

// meshPeer is the mesh's state toward one other worker: the current round's
// two flows, and every record of the run sent toward it.
type meshPeer struct {
	// The flow toward the peer: chunks sent and their digest (beginRound resets).
	sent int
	sDig uint64
	// The flow from the peer: rx.Chunks is the next sequence number the gate
	// admits, rx.Digest folds what it admitted, and the end marker — ended —
	// fills in the rest and the peer's alive count.
	rx    codec.PeerDigest
	alive int
	ended bool
	// future buffers the peer's records ahead of the current round, and ahead
	// holds the copies of their bytes: it only grows while records are
	// buffered — a copy never moves once made — and beginRound empties it once
	// it has drained them all.
	future []futRec
	ahead  []byte
	// log holds every record sent toward the peer in its wire form — uvarint
	// length, type byte, payload — in order and for the whole run: the bytes
	// the link's writer works through, and what a respawned peer runs again
	// from Init on (attach re-sends it). Its blocks are log[:nlog]; those past
	// nlog are an earlier run's, emptied, which the log takes in order as it
	// grows (record). A record never straddles two blocks.
	log  [][]byte
	nlog int
	// logged and chunks total what the log holds: the bytes wire.Sent counts
	// for it (each record's type byte and payload) and its chunk records.
	logged, chunks int64
}

// record appends one record of type typ with a payload of size bytes to the
// peer's log, in its wire form, and returns the payload's bytes for the
// caller to fill. A record that does not fit the last block opens the next
// (open).
func (p *meshPeer) record(typ byte, size int) []byte {
	var pre [binary.MaxVarintLen64 + 1]byte
	k := binary.PutUvarint(pre[:], uint64(size+1))
	pre[k] = typ
	k++
	if p.nlog == 0 || cap(p.log[p.nlog-1])-len(p.log[p.nlog-1]) < k+size {
		p.open(k + size)
	}
	b := append(p.log[p.nlog-1], pre[:k]...)
	p.log[p.nlog-1] = b[:len(b)+size]
	p.logged += int64(size + 1)
	return b[len(b) : len(b)+size]
}

// open adds a block that holds a record of n bytes to the log: the first of
// an earlier run's blocks it fits, in their order — a run like the last one
// takes them back as they were — else a new block as large as the log already
// holds, and never smaller than the record, so a record larger than a block
// gets a block of its own.
func (p *meshPeer) open(n int) {
	spare := p.log[p.nlog:]
	i := 0
	for i < len(spare) && cap(spare[i]) < n {
		i++
	}
	if i == len(spare) {
		held := 0
		for _, b := range p.log[:p.nlog] {
			held += cap(b)
		}
		p.log = append(p.log, make([]byte, 0, max(n, held, logBlockMin)))
		spare = p.log[p.nlog:]
	}
	spare[0], spare[i] = spare[i], spare[0]
	p.nlog++
}

// keepAhead copies b, a record ahead of the current round, into the peer's
// ahead buffer and returns the copy. A copy that does not fit goes to a new
// buffer twice as large, the full one left to the copies already in it.
func (p *meshPeer) keepAhead(b []byte) []byte {
	if cap(p.ahead)-len(p.ahead) < len(b) {
		p.ahead = make([]byte, 0, max(2*cap(p.ahead), len(b), logBlockMin))
	}
	at := len(p.ahead)
	p.ahead = append(p.ahead, b...)
	return p.ahead[at:len(p.ahead):len(p.ahead)]
}

// empty resets the peer's state for another run, keeping its memory: the
// log's blocks, emptied, the ahead buffer and the future list's capacity.
func (p *meshPeer) empty() {
	for i := range p.log[:p.nlog] {
		p.log[i] = p.log[i][:0]
	}
	clear(p.future[:cap(p.future)])
	*p = meshPeer{log: p.log, ahead: p.ahead[:0], future: p.future[:0]}
}

// meshMem is the memory a mesh holds for its run: its per-peer state, whose
// logs, ahead buffers and future lists are all of the mesh that grows with
// its traffic. A mesh takes one at newMesh and, once a run that ended well is
// over and nothing the mesh started can reach it, hands it to the next mesh
// built (Release) — a dist.FreeList, the one retention rule of run memory
// (DESIGN.md §7). The mesh struct, its mutex, flags and links stay out of it:
// a late handleAccepted may still read them.
type meshMem struct {
	self  int
	peers []meshPeer
}

// meshMems is the free list of mesh memory.
var meshMems dist.FreeList[meshMem]

// takeMeshMem returns the released mesh memory that fits worker self of p
// best — one a mesh of that worker of that many released, since a worker's
// flows follow its shard; else the earliest released — or new memory when
// none is free, with one emptied peer state per worker.
func takeMeshMem(self, p int) *meshMem {
	mm := meshMems.Take(func(mm *meshMem) (int, int) {
		if mm.self == self && len(mm.peers) == p {
			return 0, 0
		}
		return 1, 0
	})
	if mm == nil {
		mm = new(meshMem)
	}
	if cap(mm.peers) < p {
		mm.peers = append(mm.peers[:cap(mm.peers)], make([]meshPeer, p-cap(mm.peers))...)
	}
	mm.self, mm.peers = self, mm.peers[:p]
	return mm
}

// mesh is the per-worker data plane: links, per-peer flow state and the
// run's retained flows.
type mesh struct {
	cfg  meshConfig
	mu   sync.Mutex
	cond *sync.Cond
	// running counts the goroutines that reach the mesh's memory on their own —
	// the writer form starts and every attached link's reader — so Release
	// hands it on only once they have all returned.
	running sync.WaitGroup

	mem   *meshMem
	links []*meshLink // by worker id; nil until attached, the own entry unused
	peers []meshPeer  // mem.peers: by worker id, the own entry unused
	round int         // current receive/send round; -1 before the first
	// pending counts the inbound flows of the round not yet ended.
	pending int
	err     error
	closed  bool
	wire    codec.StreamWire
}

func newMesh(cfg meshConfig) *mesh {
	mem := takeMeshMem(cfg.Self, cfg.P)
	m := &mesh{cfg: cfg, mem: mem, links: make([]*meshLink, cfg.P), peers: mem.peers, round: -1}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// failLocked latches the first fatal mesh error and wakes every waiter.
func (m *mesh) failLocked(err error) {
	if m.err == nil {
		m.err = err
	}
	m.cond.Broadcast()
}

func (m *mesh) fail(err error) {
	m.mu.Lock()
	m.failLocked(err)
	m.mu.Unlock()
}

// Close tears the mesh down once its worker is done with it: the accept loop
// stops, every link's connection closes (its reader unblocks), the writer exits.
// It waits for none of them, and the mesh's memory is dropped with it: this is
// how a run that failed, or a dead incarnation, ends its mesh — its hooks, and
// so its sendChunk, may still be running.
func (m *mesh) Close() {
	m.mu.Lock()
	m.closed = true
	for _, l := range m.links {
		if l != nil {
			l.c.Close()
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	if m.cfg.CloseAccept != nil {
		m.cfg.CloseAccept()
	}
}

// Release ends the mesh of a run that ended well: Close, then — once the
// writer and every reader have returned, so nothing the mesh started can reach
// its memory — the memory goes to the next mesh built. None of them can park
// once its link is closed; a handleAccepted still reading a hello is not
// waited for, and it touches nothing pooled (attach sees closed).
func (m *mesh) Release() {
	m.Close()
	m.running.Wait()
	for j := range m.peers {
		m.peers[j].empty()
	}
	meshMems.Put(m.mem)
}

// form establishes the links: this worker dials every worker with a lower id
// (a respawned incarnation dials all of them — its peers hold dead
// connections), accepts the rest, and returns once every other worker is
// attached. The accept loop and the writer run for the whole run, so respawned
// peers can re-dial at any time.
func (m *mesh) form() error {
	go m.acceptLoop()
	m.running.Add(1)
	go func() {
		defer m.running.Done()
		m.writeAll()
	}()
	for j := 0; j < m.cfg.P; j++ {
		if j != m.cfg.Self && (m.cfg.Gen > 0 || j < m.cfg.Self) {
			if err := m.dial(j); err != nil {
				m.fail(err)
				return err
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wait(m.cfg.Timeout, "mesh formation timed out", func() bool {
		for j, l := range m.links {
			if l == nil && j != m.cfg.Self {
				return false
			}
		}
		return true
	})
}

func (m *mesh) dial(dst int) error {
	var nc net.Conn
	var err error
	// The peer's accept side may not be up yet (workers start concurrently);
	// retry briefly instead of failing the run on a start-order race.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if nc, err = m.cfg.Dial(dst); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("net: mesh dial %d→%d: %w", m.cfg.Self, dst, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	c := NewConn(nc)
	c.SetIOTimeout(m.cfg.Timeout)
	hello := codec.AppendMeshHello([]byte{recMeshHello}, codec.MeshHello{Src: m.cfg.Self, Gen: m.cfg.Gen})
	if err := c.writeRecords(codec.AppendRecord(nil, hello)); err != nil {
		c.Close()
		return fmt.Errorf("net: mesh hello %d→%d: %w", m.cfg.Self, dst, err)
	}
	m.attach(dst, -1, c) // the peer's generation is not known here
	return nil
}

func (m *mesh) acceptLoop() {
	for {
		nc, err := m.cfg.Accept()
		if err != nil {
			return // Close ran (or the listener died with the process)
		}
		go m.handleAccepted(nc)
	}
}

// handleAccepted reads the inbound mesh hello and attaches the link. The
// link's read buffer is taken here, its first read; a link refused before it
// attaches drops it.
func (m *mesh) handleAccepted(nc net.Conn) {
	c := NewConn(nc)
	c.SetIOTimeout(m.cfg.Timeout)
	c.takeReadBuf()
	typ, body, err := c.AwaitRecord()
	if err != nil || typ != recMeshHello {
		c.Close()
		return
	}
	mh, err := codec.DecodeMeshHello(body)
	if err != nil || mh.Src >= m.cfg.P || mh.Src == m.cfg.Self {
		c.Close()
		return
	}
	m.attach(mh.Src, mh.Gen, c)
}

// attach installs (or swaps in) the link to worker j and spawns its
// reader. A link from a newer peer incarnation replaces an older
// one; an older or duplicate hello is refused. The new link's cursor starts at
// byte 0, so the writer re-sends it every record retained toward j, ahead of
// anything retained later: the incarnation runs the run again from Init and
// these are its inbound flows, byte for byte (DESIGN.md §13). Retention and
// cursor move under the one mutex, so j reads the flows of rounds 0.. in order
// with no gap, whenever it attached; what is ahead of its round it buffers.
func (m *mesh) attach(j, gen int, c *Conn) {
	m.mu.Lock()
	if m.closed || m.err != nil {
		m.mu.Unlock()
		c.Close()
		return
	}
	old := m.links[j]
	if old != nil && !old.down && old.gen >= gen {
		m.mu.Unlock()
		c.Close()
		return
	}
	if old != nil {
		m.linkDownLocked(old)
	}
	l := &meshLink{c: c, gen: gen}
	m.links[j] = l
	m.wire.Chunks += m.peers[j].chunks
	m.wire.Sent += m.peers[j].logged
	m.running.Add(1)
	m.cond.Broadcast()
	m.mu.Unlock()
	go func() {
		defer m.running.Done()
		m.readLoop(j, l)
	}()
}

// wait is the mesh's one wait discipline. Called with m.mu held, it parks on
// the condition variable until ready reports true and otherwise ends on, in
// this order: the latched mesh error — a violation a reader found, or the
// run's abort as streamWorker.control read it off the coordinator connection,
// which ends every wait of an incarnation whose run is over; timeout elapsing
// (0 waits forever), reported as "worker N <stalled>". The timer only
// broadcasts; the deadline is read off the clock.
func (m *mesh) wait(timeout time.Duration, stalled string, ready func() bool) error {
	var deadline time.Time
	for {
		switch {
		case m.err != nil:
			return m.err
		case ready():
			return nil
		case timeout > 0 && deadline.IsZero():
			deadline = time.Now().Add(timeout)
			timer := time.AfterFunc(timeout, func() {
				m.mu.Lock()
				m.cond.Broadcast()
				m.mu.Unlock()
			})
			defer timer.Stop()
		case timeout > 0 && !time.Now().Before(deadline):
			return fmt.Errorf("net: worker %d %s", m.cfg.Self, stalled)
		}
		m.cond.Wait()
	}
}

// writeAll is the mesh's one writer: it writes every link's retained log past
// its cursor in turn, one Write a block range — never one a record: on a
// net.Pipe every Write waits for its reader — and never holds m.mu while it
// writes: what it writes is the log's, which only ever appends past it. On a
// write error the link is marked down (linkDownLocked decides what that means
// for the run).
func (m *mesh) writeAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.closed && m.err == nil {
		idle := true
		for j, l := range m.links {
			if l == nil || l.down || m.closed || m.err != nil {
				continue
			}
			p := &m.peers[j]
			recs := l.take(p.log[:p.nlog])
			if len(recs) == 0 {
				continue
			}
			idle = false
			m.mu.Unlock()
			werr := l.c.writeRecords(recs)
			m.mu.Lock()
			if werr != nil {
				m.linkDownLocked(l)
			}
		}
		if idle {
			m.cond.Wait()
		}
	}
}

// linkDownLocked marks a link dead, and that is all a lost link is to this
// worker, recovery or not: what the peer did not get is re-sent once a
// successor attaches, and a round that cannot close waits — for that
// successor, or for the coordinator's verdict. Reporting the loss would race
// the peer's own death to the coordinator and take the blame for it; the
// coordinator sees every control connection and names the dead worker.
func (m *mesh) linkDownLocked(l *meshLink) {
	if l.down {
		return
	}
	l.down = true
	l.c.Close()
	m.cond.Broadcast()
}

// readLoop decodes one link's inbound records for as long as the link is
// current. The link's read buffer is the reader's: taken before its first read
// unless handleAccepted took it, released when the loop returns.
func (m *mesh) readLoop(j int, l *meshLink) {
	l.c.takeReadBuf()
	defer l.c.putReadBuf()
	for {
		typ, body, err := l.c.AwaitRecord()
		if err != nil {
			m.mu.Lock()
			if m.links[j] == l { // still current — not swapped by a respawn
				m.linkDownLocked(l)
			}
			m.mu.Unlock()
			return
		}
		if err := m.handleRecord(j, typ, body); err != nil {
			m.fail(err)
			return
		}
	}
}

// handleRecord decodes one record read off the link to worker j. The link is
// its identity: a chunk or window record must name j as its sender and this
// worker as its destination, whatever else its bytes say.
func (m *mesh) handleRecord(j int, typ byte, body []byte) error {
	switch typ {
	case recPeerFrame:
		pf, k, err := codec.DecodePeerFrame(body)
		if err != nil {
			return err
		}
		if pf.Src != j || pf.Dst != m.cfg.Self {
			return fmt.Errorf("net: mesh chunk %d→%d on the link from %d to %d", pf.Src, pf.Dst, j, m.cfg.Self)
		}
		return m.acceptChunk(pf, body, body[k:])
	case recWindow:
		wd, err := codec.DecodeWindow(body)
		if err != nil {
			return err
		}
		if wd.Src != j || wd.Dst != m.cfg.Self {
			return fmt.Errorf("net: mesh window %d→%d on the link from %d to %d", wd.Src, wd.Dst, j, m.cfg.Self)
		}
		return m.acceptWindow(wd, body)
	default:
		return fmt.Errorf("net: unexpected mesh record type %d", typ)
	}
}

// acceptChunk routes one inbound chunk addressed to this worker: process it
// against the current round, or buffer it when it is ahead (the arena it
// would decode into still holds live vectors, and readers never park).
func (m *mesh) acceptChunk(pf codec.PeerFrame, full, msgs []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil || m.closed {
		return nil // teardown; the latched error surfaces elsewhere
	}
	if pf.Round > m.round {
		p := &m.peers[pf.Src]
		p.future = append(p.future, futRec{recPeerFrame, pf.Round, p.keepAhead(full)})
		return nil
	}
	return m.processChunkLocked(pf, full, msgs)
}

// processChunkLocked sequence-checks and delivers one chunk of the current
// (or an older) round. Chunks behind the round, out of sequence, or past
// the flow's end are dropped — they are a respawned sender's repeats,
// byte-identical to what the sequence gate already admitted.
func (m *mesh) processChunkLocked(pf codec.PeerFrame, full, msgs []byte) error {
	// Counted here, not on arrival: what a fault-free worker has received by
	// the ack of round t is then the chunks of rounds 0..t, however far ahead
	// its peers stream.
	m.wire.Recv += int64(len(full) + 1)
	p := &m.peers[pf.Src]
	if pf.Round != m.round || pf.Seq != p.rx.Chunks || p.ended {
		return nil
	}
	if err := m.cfg.Deliver(pf.Src, pf.Round, msgs, pf.Count); err != nil {
		return err
	}
	p.rx.Chunks++
	p.rx.Digest = foldFrame(p.rx.Digest, full)
	return nil
}

// acceptWindow routes an end-of-flow marker, wd decoded from body: ahead of
// the current round it buffers like a chunk, otherwise it is verified in place.
func (m *mesh) acceptWindow(wd codec.Window, body []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil || m.closed {
		return nil
	}
	if wd.Round > m.round {
		p := &m.peers[wd.Src]
		p.future = append(p.future, futRec{recWindow, wd.Round, p.keepAhead(body)})
		return nil
	}
	return m.processEndLocked(wd)
}

// processEndLocked verifies one end marker against the current round. An
// accepted end proves the flow arrived whole: the chunk count matches what
// the sequence gate admitted and the digests agree fold for fold. Ends for
// older rounds or already-ended flows are a respawned sender's repeats and
// drop. A differing count is a protocol error, recovery or not: a link carries
// its flows from chunk 0 with no gap (attach), so every chunk before a marker
// was admitted or had been already.
func (m *mesh) processEndLocked(wd codec.Window) error {
	p := &m.peers[wd.Src]
	if wd.Round < m.round || p.ended {
		return nil
	}
	if p.rx.Chunks != wd.Chunks {
		return fmt.Errorf("net: worker %d flow %d→%d round %d ended at %d chunks, %d arrived",
			m.cfg.Self, wd.Src, wd.Dst, wd.Round, wd.Chunks, p.rx.Chunks)
	}
	if p.rx.Digest != wd.Digest {
		return fmt.Errorf("net: worker %d flow %d→%d round %d digest mismatch (sender %#x, receiver %#x)",
			m.cfg.Self, wd.Src, wd.Dst, wd.Round, wd.Digest, p.rx.Digest)
	}
	p.ended, p.alive = true, wd.Alive
	p.rx.Msgs, p.rx.Bytes = wd.Msgs, wd.Bytes
	if m.pending--; m.pending == 0 {
		m.cond.Broadcast()
	}
	return nil
}

// beginRound opens round t for both directions: send flows restart at
// sequence 0 with fresh digests, receive flows reset, and onNewRound (the
// worker's arena recycler) runs before the round number advances — no chunk of
// round t can decode into an arena that is still being reset, because
// ahead-of-round records sit buffered until this function drains them.
func (m *mesh) beginRound(t int, onNewRound func()) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	onNewRound()
	m.round, m.pending = t, m.cfg.P-1
	for j := range m.peers {
		p := &m.peers[j]
		p.sent, p.sDig = 0, frameChainSeed
		p.rx, p.alive, p.ended = codec.PeerDigest{Peer: j, Digest: frameChainSeed}, 0, false
	}
	// Drain the buffered ahead-of-round records that have become current:
	// in arrival order per source, keeping what is still ahead.
	for j := range m.peers {
		p := &m.peers[j]
		kept := p.future[:0]
		for _, fr := range p.future {
			if fr.round > t {
				kept = append(kept, fr)
				continue
			}
			if err := m.processBufferedLocked(fr); err != nil {
				m.failLocked(err)
				return err
			}
		}
		clear(p.future[len(kept):]) // drop the drained chunks' copies
		if p.future = kept; len(kept) == 0 {
			p.ahead = p.ahead[:0]
		}
	}
	return nil
}

// processBufferedLocked decodes a buffered record again — its bytes decoded
// once already, on arrival — and processes it against the current round.
func (m *mesh) processBufferedLocked(fr futRec) error {
	if fr.typ == recWindow {
		wd, err := codec.DecodeWindow(fr.body)
		if err != nil {
			return err
		}
		return m.processEndLocked(wd)
	}
	pf, k, err := codec.DecodePeerFrame(fr.body)
	if err != nil {
		return err
	}
	return m.processChunkLocked(pf, fr.body, fr.body[k:])
}

// sendChunk streams one chunk of the current round's flow toward dst: stamp
// the next sequence number, write the record into the log for the link's
// writer and fold the sender digest over it. It never waits on the receiver.
// Called from the worker goroutine only.
func (m *mesh) sendChunk(dst int, body []byte, count int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	p := &m.peers[dst]
	var hdr [peerFrameHeaderMax]byte
	h := codec.AppendPeerFrame(hdr[:0], codec.PeerFrame{Src: m.cfg.Self, Dst: dst, Round: m.round, Seq: p.sent, Count: count})
	payload := p.record(recPeerFrame, len(h)+len(body))
	copy(payload[copy(payload, h):], body)
	p.sent++
	p.chunks++
	p.sDig = foldFrame(p.sDig, payload)
	m.wire.Chunks++
	m.sentLocked(len(payload))
	return nil
}

// sendEnd closes the current round's flow toward dst with its end marker,
// carrying the flow's logical totals and sender digest and this worker's alive
// count, and returns the PeerDigest entry the done record reports for it.
func (m *mesh) sendEnd(dst int, msgs, logicalBytes int64, alive int) (codec.PeerDigest, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return codec.PeerDigest{}, m.err
	}
	p := &m.peers[dst]
	wd := codec.Window{
		Src: m.cfg.Self, Dst: dst, Round: m.round,
		Chunks: p.sent, Msgs: msgs, Bytes: logicalBytes, Digest: p.sDig, Alive: alive,
	}
	size := codec.WindowSize(wd)
	codec.AppendWindow(p.record(recWindow, size)[:0], wd)
	m.sentLocked(size)
	return codec.PeerDigest{Peer: dst, Chunks: wd.Chunks, Msgs: msgs, Bytes: logicalBytes, Digest: wd.Digest}, nil
}

// sentLocked counts one record of size payload bytes just logged toward a
// peer and wakes the writer (and at most the worker besides). The log's bytes
// are what the link's writer writes, now or to a successor rounds later, so a
// record is written into it once, in wire form, and never moves: the log's
// blocks only grow past what the writer has taken. A record logged toward a
// down link waits for its successor; with none the peer's death has already
// doomed the run (linkDownLocked).
func (m *mesh) sentLocked(size int) {
	m.wire.Sent += int64(size + 1)
	m.cond.Broadcast()
}

// waitComplete blocks until every inbound flow of the current round has ended
// — the round's close — then returns the receive-side PeerDigest entries
// (ascending source, appended to ents), the round digest (their digests'
// fold, which feeds the worker's frame chain) and the alive counts the end
// markers carried, summed. No deadline: a missing flow is a peer that is slow,
// being respawned, or dead, and the last is the coordinator's to say.
func (m *mesh) waitComplete(ents []codec.PeerDigest) ([]codec.PeerDigest, uint64, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.wait(0, "", func() bool { return m.pending == 0 }); err != nil {
		return nil, 0, 0, err
	}
	dig, alive := frameChainSeed, 0
	for j := range m.peers {
		if p := &m.peers[j]; j != m.cfg.Self {
			ents = append(ents, p.rx)
			dig = foldU64(dig, p.rx.Digest)
			alive += p.alive
		}
	}
	return ents, dig, alive, nil
}

// foldU64 folds one 64-bit digest into a chain, little-endian byte by byte,
// with the frame chain's FNV-1a step.
func foldU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * 1099511628211
		v >>= 8
	}
	return h
}
