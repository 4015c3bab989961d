package net

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"distkcore/internal/codec"
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
// round-gate) and a cursor into the records retained toward its peer; per
// mesh, one writer goroutine that writes every link's records past its cursor
// in turn. Nothing waits on a receiver: a sender retains a record and moves
// on, a round is the mesh's flow control (no sender runs more than one round
// ahead of any receiver, DESIGN.md §14), and a reader never writes — it only
// decodes — so the cycle "A blocked writing to B, B's reader blocked locking
// A" cannot form, on synchronous transports (net.Pipe) included. All shared
// state sits under one mutex; the condition variable carries retained
// records, a round's close and the control connection's verdicts
// (streamWorker.control).

// peerFrameHeaderMax bounds codec.AppendPeerFrame's output (five uvarints): the
// header is encoded on the stack first, so a chunk's payload — header, then
// bodies — is one allocation of exactly its size.
const peerFrameHeaderMax = 5 * binary.MaxVarintLen64

// maxReservedEnds caps the end markers each peer's retained list is reserved
// for at formation: a run with a larger round budget (an asynchronous one's
// may be 2³¹−1) adds blocks past it rather than reserving rounds it may never
// run.
const maxReservedEnds = 128

// retainBlock is the size of the blocks a retained list adds once its
// reservation is full: records are never copied to grow it.
const retainBlock = 16

// outRec is one retained mesh record: a record type and its payload (without
// the type byte; the writer passes both to Conn.WriteRecord).
type outRec struct {
	typ     byte
	payload []byte
}

// meshLink is one attached peer connection plus its cursor into the records
// retained toward that peer: the writer has taken every record before block
// blk's record off. A fresh link's cursor is record 0.
type meshLink struct {
	c        *Conn
	gen      int  // the peer's generation from its mesh hello; -1 dialed, older than any
	down     bool // reader saw death / writer saw a write error
	blk, off int
}

// take returns the records of retained past the link's cursor, up to the end
// of the block they start in, and moves the cursor past them; nil when the
// writer has taken them all. Every block but the last is full (retain), so the
// cursor steps to the next block once it reaches a block's end.
func (l *meshLink) take(retained [][]outRec) []outRec {
	for l.blk < len(retained)-1 && l.off == len(retained[l.blk]) {
		l.blk, l.off = l.blk+1, 0
	}
	if l.blk >= len(retained) {
		return nil
	}
	b := retained[l.blk][l.off:]
	l.off += len(b)
	return b
}

// meshConfig is everything a Worker hands its mesh.
type meshConfig struct {
	Self int
	P    int
	Gen  int // this incarnation's generation (0 initial, +1 per respawn)
	// Ends is how many end markers the run sends each peer at most (its
	// round budget + 1): each retained list is reserved for them up to
	// maxReservedEnds, so only chunks add blocks to it.
	Ends int
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
// beginRound reaches their round.
type futRec struct {
	typ  byte // recPeerFrame | recWindow
	pf   codec.PeerFrame
	wd   codec.Window
	msgs []byte // chunk message bodies (aliases full)
	full []byte // full record payload (digest fold input)
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
	// future buffers the peer's records ahead of the current round.
	future []futRec
	// retained holds every record sent toward the peer, verbatim, in order and
	// for the whole run: the log the link's writer works through, and what a
	// respawned peer runs again from Init on (attach re-sends it). Its first
	// block is reserved at formation for the run's end markers; chunks past
	// that add blocks (retain).
	retained [][]outRec
}

// retain appends r to the records retained toward the peer: to the last block
// while it has room, else to a new one of retainBlock records.
func (p *meshPeer) retain(r outRec) {
	if k := len(p.retained) - 1; k >= 0 && len(p.retained[k]) < cap(p.retained[k]) {
		p.retained[k] = append(p.retained[k], r)
		return
	}
	p.retained = append(p.retained, append(make([]outRec, 0, retainBlock), r))
}

// mesh is the per-worker data plane: links, per-peer flow state and the
// run's retained flows.
type mesh struct {
	cfg  meshConfig
	mu   sync.Mutex
	cond *sync.Cond

	links []*meshLink // by worker id; nil until attached, the own entry unused
	peers []meshPeer  // by worker id; the own entry is unused
	round int         // current receive/send round; -1 before the first
	// pending counts the inbound flows of the round not yet ended.
	pending int
	err     error
	closed  bool
	wire    codec.StreamWire
}

func newMesh(cfg meshConfig) *mesh {
	m := &mesh{cfg: cfg, links: make([]*meshLink, cfg.P), peers: make([]meshPeer, cfg.P), round: -1}
	m.cond = sync.NewCond(&m.mu)
	ends := max(0, min(cfg.Ends, maxReservedEnds))
	reserved := make([]outRec, cfg.P*ends)
	for j := range m.peers {
		if j != cfg.Self && ends > 0 {
			m.peers[j].retained = [][]outRec{reserved[j*ends : j*ends : (j+1)*ends]}
		}
	}
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

// form establishes the links: this worker dials every worker with a lower id
// (a respawned incarnation dials all of them — its peers hold dead
// connections), accepts the rest, and returns once every other worker is
// attached. The accept loop and the writer run for the whole run, so respawned
// peers can re-dial at any time.
func (m *mesh) form() error {
	go m.acceptLoop()
	go m.writeAll()
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
	if err := c.Send(recMeshHello, codec.AppendMeshHello(nil, codec.MeshHello{Src: m.cfg.Self, Gen: m.cfg.Gen})); err != nil {
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

// handleAccepted reads the inbound mesh hello and attaches the link.
func (m *mesh) handleAccepted(nc net.Conn) {
	c := NewConn(nc)
	c.SetIOTimeout(m.cfg.Timeout)
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
// record 0, so the writer re-sends it every record retained toward j, ahead of
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
	for _, b := range m.peers[j].retained {
		for _, r := range b {
			if r.typ == recPeerFrame {
				m.wire.Chunks++
			}
			m.wire.Sent += int64(len(r.payload) + 1)
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	go m.readLoop(j, l)
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

// writeAll is the mesh's one writer: it writes every link's retained records
// past its cursor in turn, a block at a time, and never holds m.mu while it
// writes — what it writes is the retention's, which only ever appends past it.
// On a write error the link is marked down (linkDownLocked decides what that
// means for the run).
func (m *mesh) writeAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.closed && m.err == nil {
		idle := true
		for j, l := range m.links {
			if l == nil || l.down || m.closed || m.err != nil {
				continue
			}
			batch := l.take(m.peers[j].retained)
			if len(batch) == 0 {
				continue
			}
			idle = false
			m.mu.Unlock()
			var werr error
			for _, r := range batch {
				if werr = l.c.WriteRecord(r.typ, r.payload); werr != nil {
					break
				}
			}
			if werr == nil {
				werr = l.c.Flush()
			}
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
// current.
func (m *mesh) readLoop(j int, l *meshLink) {
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
		return m.acceptWindow(wd)
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
		cp := make([]byte, len(full))
		copy(cp, full)
		p.future = append(p.future, futRec{typ: recPeerFrame, pf: pf, full: cp, msgs: cp[len(cp)-len(msgs):]})
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

// acceptWindow routes an end-of-flow marker: ahead of the current round it
// buffers like a chunk, otherwise it is verified in place.
func (m *mesh) acceptWindow(wd codec.Window) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil || m.closed {
		return nil
	}
	if wd.Round > m.round {
		p := &m.peers[wd.Src]
		p.future = append(p.future, futRec{typ: recWindow, wd: wd})
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
			var err error
			switch {
			case fr.typ == recPeerFrame && fr.pf.Round <= t:
				err = m.processChunkLocked(fr.pf, fr.full, fr.msgs)
			case fr.typ == recWindow && fr.wd.Round <= t:
				err = m.processEndLocked(fr.wd)
			default:
				kept = append(kept, fr)
			}
			if err != nil {
				m.failLocked(err)
				return err
			}
		}
		clear(p.future[len(kept):]) // drop the drained chunks' copies
		p.future = kept
	}
	return nil
}

// sendChunk streams one chunk of the current round's flow toward dst: stamp
// the next sequence number, fold the sender digest and retain it for the
// link's writer. It never waits on the receiver. Called from the worker
// goroutine only.
func (m *mesh) sendChunk(dst int, body []byte, count int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	p := &m.peers[dst]
	m.wire.Chunks++
	var hdr [peerFrameHeaderMax]byte
	h := codec.AppendPeerFrame(hdr[:0], codec.PeerFrame{Src: m.cfg.Self, Dst: dst, Round: m.round, Seq: p.sent, Count: count})
	payload := append(append(make([]byte, 0, len(h)+len(body)), h...), body...)
	p.sent++
	p.sDig = foldFrame(p.sDig, payload)
	m.sentLocked(dst, outRec{recPeerFrame, payload})
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
	m.sentLocked(dst, outRec{recWindow, codec.AppendWindow(make([]byte, 0, codec.WindowSize(wd)), wd)})
	return codec.PeerDigest{Peer: dst, Chunks: wd.Chunks, Msgs: msgs, Bytes: logicalBytes, Digest: wd.Digest}, nil
}

// sentLocked retains one record toward dst, counts it and wakes the writer
// (and at most the worker besides). The retained payload is what the link's
// writer writes, now or to a successor rounds later, so chunk payloads and
// end markers are each allocated for the one record at its exact size, never
// encoded in a reused scratch the way the control plane's bodies are
// (Conn.WriteRecord copies those before it returns; nothing here is copied
// again). A record retained toward a down link waits for its successor; with
// none the peer's death has already doomed the run (linkDownLocked).
func (m *mesh) sentLocked(dst int, r outRec) {
	m.peers[dst].retain(r)
	m.wire.Sent += int64(len(r.payload) + 1)
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
