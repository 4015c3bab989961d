package net

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net"
	"sync"
	"time"

	"distkcore/internal/codec"
)

// This file is the mesh data plane of streamed delivery (DESIGN.md §14):
// the worker↔worker connections that carry peer-frame chunks, flow-control
// credits and the end-of-flow markers a round closes on, leaving the
// coordinator connection to the records it verifies behind the workers. One
// mesh lives inside each streamed Worker.
//
// Concurrency shape: per link, one reader goroutine (decode, relay-forward,
// round-gate, credit) and one writer goroutine draining an ordered queue.
// The writer goroutines are what keep the mesh deadlock-free on synchronous
// transports (net.Pipe): a reader never writes a connection itself — it only
// enqueues — so the cycle "A blocked writing to B, B's reader blocked
// locking A" cannot form. All shared state sits under one mutex; the
// condition variable carries queued records, credit arrivals, a round's close
// and the control connection's verdicts (streamWorker.control).

// peerFrameHeaderMax bounds codec.AppendPeerFrame's output (five uvarints): the
// header is encoded on the stack first, so a chunk's payload — header, then
// bodies — is one allocation of exactly its size.
const peerFrameHeaderMax = 5 * binary.MaxVarintLen64

// defaultWindow is the per-peer flow-control window: how many
// unacknowledged chunks a sender may have in flight toward one destination.
// The receiver returns the credits on its next end marker toward the sender —
// every pair exchanges one every round — and in a record of their own only
// once it owes half a window, so a flow longer than the window never waits for
// the round to turn.
const defaultWindow = 8

// meshNeighbors returns the sorted neighbor set of self in the topology.
func meshNeighbors(kind byte, self, p int) []int {
	var nb []int
	if kind == codec.MeshCube {
		for b := 0; 1<<b < p; b++ {
			nb = append(nb, self^(1<<b))
		}
		return nb
	}
	for j := 0; j < p; j++ {
		if j != self {
			nb = append(nb, j)
		}
	}
	return nb
}

// meshHop returns the neighbor self forwards traffic for dst to: dst itself
// on a full mesh, the lowest-differing-bit neighbor (dimension-ordered
// e-cube routing) on a hypercube. Every worker applying the same rule is
// what makes each flow's path — and so its chunk order — deterministic.
func meshHop(kind byte, self, dst int) int {
	if kind == codec.MeshCube {
		d := uint(self ^ dst)
		return self ^ (1 << uint(bits.TrailingZeros(d)))
	}
	return dst
}

// outRec is one queued mesh write: a record type and its payload (without
// the type byte; the writer passes both to Conn.WriteRecord).
type outRec struct {
	typ     byte
	payload []byte
}

// meshLink is one attached neighbor connection plus its writer queue.
type meshLink struct {
	c    *Conn
	gen  int  // peer incarnation generation from its mesh hello
	down bool // reader saw death / writer saw a write error
	q    []outRec
	// spare is the batch before the one being written, emptied: the writer and
	// the enqueuers trade two queue arrays instead of growing one per batch.
	spare []outRec
}

// meshConfig is everything a Worker hands its mesh.
type meshConfig struct {
	Self    int
	P       int
	Kind    byte // codec.MeshFull | codec.MeshCube
	Gen     int  // this incarnation's generation (0 initial, +1 per respawn)
	Recover bool // retain every round sent, per destination, for a respawned peer
	// Timeout bounds formation and a wait for credits; 0 waits forever.
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

// meshPeer is the mesh's state toward one other worker: the credit window
// both ways, which lives across rounds, and the current round's two flows.
type meshPeer struct {
	tokens int // credit in hand toward the peer
	owed   int // chunks taken from the peer since the last grant to it
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
	// retained[t] holds the records of round t sent toward the peer, verbatim
	// and for the whole run: what a respawned peer runs again from Init on
	// (attach re-sends them). Rounds open one by one from 0, so the index is the
	// round. Recover only.
	retained [][]outRec
}

// mesh is the per-worker data plane: links, per-peer flow state and, under
// recovery, the run's retained flows.
type mesh struct {
	cfg  meshConfig
	mu   sync.Mutex
	cond *sync.Cond

	links []*meshLink // by neighbor id; nil until attached
	peers []meshPeer  // by worker id; the own entry is unused
	round int         // current receive/send round; -1 before the first
	// pending counts the inbound flows of the round not yet ended.
	pending int
	err     error
	closed  bool
	// timer wakes the worker's wait at its deadline; one a mesh, re-armed by each.
	timer *time.Timer
	wire  codec.StreamWire
}

func newMesh(cfg meshConfig) *mesh {
	m := &mesh{cfg: cfg, links: make([]*meshLink, cfg.P), peers: make([]meshPeer, cfg.P), round: -1}
	m.cond = sync.NewCond(&m.mu)
	for j := range m.peers {
		m.peers[j].tokens = defaultWindow
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

// Close tears the mesh down: the accept loop stops, every link's connection
// closes (unblocking its reader), writers exit, waiters wake. Idempotent;
// safe from any goroutine — the worker's kill hook uses it so a fault-
// injected death is visible to the peers as closed connections.
func (m *mesh) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
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

// form establishes the neighbor links: this worker dials every neighbor
// with a lower id (a respawned incarnation dials all of them — its peers
// hold dead connections), accepts the rest, and returns once every
// neighbor is attached. The accept loop keeps running for the whole run, so
// respawned peers can re-dial at any time.
func (m *mesh) form() error {
	go m.acceptLoop()
	nb := meshNeighbors(m.cfg.Kind, m.cfg.Self, m.cfg.P)
	for _, j := range nb {
		if m.cfg.Gen > 0 || j < m.cfg.Self {
			if err := m.dial(j); err != nil {
				m.fail(err)
				return err
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wait(m.cfg.Timeout, "mesh formation timed out", func() bool {
		for _, j := range nb {
			if m.links[j] == nil {
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
	hello := binary.AppendUvarint(nil, uint64(m.cfg.Self))
	hello = binary.AppendUvarint(hello, uint64(m.cfg.Gen))
	if err := c.Send(recMeshHello, hello); err != nil {
		c.Close()
		return fmt.Errorf("net: mesh hello %d→%d: %w", m.cfg.Self, dst, err)
	}
	m.attach(dst, m.cfg.Gen, c)
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
	var src, gen int
	if uvarints("mesh-hello", body, &src, &gen) != nil || src >= m.cfg.P || src == m.cfg.Self {
		c.Close()
		return
	}
	m.attach(src, gen, c)
}

// attach installs (or swaps in) the link to neighbor j and spawns its
// reader and writer. A link from a newer peer incarnation replaces an older
// one; an older or duplicate hello is refused. Swapping resets the credit
// window both ways and queues on the new link, ahead of anything live, every
// record retained toward j: the incarnation runs the run again from Init and
// these are its inbound flows, byte for byte (DESIGN.md §13). Retention and
// queue move under the one mutex, so j reads the flows of rounds 0.. in order
// with no gap, whenever it attached. Resent chunks draw no tokens: j buffers
// what is ahead of its round whatever the window says.
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
		old.down = true
		old.c.Close()
		old.q = nil
	}
	l := &meshLink{c: c, gen: gen}
	m.links[j] = l
	p := &m.peers[j]
	p.tokens, p.owed = defaultWindow, 0
	for _, recs := range p.retained {
		for _, r := range recs {
			if r.typ == recPeerFrame {
				m.wire.Chunks++
			}
			m.wire.Sent += int64(len(r.payload) + 1)
		}
		l.q = append(l.q, recs...)
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	go m.readLoop(j, l)
	go m.writeLoop(l)
}

// wait is the mesh's one wait discipline. Called with m.mu held, it parks on
// the condition variable until ready reports true and otherwise ends on, in
// this order: the latched mesh error — a violation a reader found, or the
// run's abort as streamWorker.control read it off the coordinator connection,
// which ends every wait of an incarnation whose run is over; the mesh having
// been closed (ErrKilled — only a fault-injected death closes a mesh somebody
// still waits on); timeout elapsing (0 waits forever), reported as "worker N
// <stalled>". The timer only broadcasts; the deadline is read off the clock.
func (m *mesh) wait(timeout time.Duration, stalled string, ready func() bool) error {
	var deadline time.Time
	for {
		switch {
		case m.err != nil:
			return m.err
		case m.closed:
			return ErrKilled
		case ready():
			return nil
		case timeout > 0 && deadline.IsZero():
			deadline = time.Now().Add(timeout)
			if m.timer == nil {
				m.timer = time.AfterFunc(timeout, func() {
					m.mu.Lock()
					m.cond.Broadcast()
					m.mu.Unlock()
				})
			} else {
				m.timer.Reset(timeout)
			}
			defer m.timer.Stop()
		case timeout > 0 && !time.Now().Before(deadline):
			return fmt.Errorf("net: worker %d %s", m.cfg.Self, stalled)
		}
		m.cond.Wait()
	}
}

// enqueueLocked queues one record on the link toward neighbor hop. Requires
// m.mu. Records queued to a down link are dropped — under recovery attach
// re-sends what was retained of them; without it the peer's death has already
// doomed the run (linkDownLocked).
func (m *mesh) enqueueLocked(hop int, typ byte, payload []byte) {
	l := m.links[hop]
	if l == nil || l.down {
		return
	}
	l.q = append(l.q, outRec{typ: typ, payload: payload})
	m.cond.Broadcast()
}

// writeLoop drains one link's queue. On a write error the link is marked
// down (linkDownLocked decides what that means for the run).
func (m *mesh) writeLoop(l *meshLink) {
	m.mu.Lock()
	for {
		for len(l.q) == 0 && !l.down && !m.closed && m.err == nil {
			m.cond.Wait()
		}
		if l.down || m.closed || m.err != nil {
			m.mu.Unlock()
			return
		}
		batch := l.q
		l.q, l.spare = l.spare, nil
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
		clear(batch) // the payloads are the retention's, or garbage
		m.mu.Lock()
		l.spare = batch[:0]
		if werr != nil {
			m.linkDownLocked(l)
			m.mu.Unlock()
			return
		}
	}
}

// linkDownLocked marks a link dead, and that is all a lost link is to this
// worker, recovery or not: the peer's tokens refill so a sender blocked on
// its credits finishes its round, what was dropped is re-sent once a successor
// attaches, and a round that cannot close waits — for that successor, or for
// the coordinator's verdict. Reporting the loss would race the peer's own
// death to the coordinator and take the blame for it; the coordinator sees
// every control connection and names the dead worker.
func (m *mesh) linkDownLocked(l *meshLink) {
	if l.down {
		return
	}
	l.down = true
	l.c.Close()
	l.q = nil
	for j, lk := range m.links {
		if lk == l {
			m.peers[j].tokens = defaultWindow
		}
	}
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
		if err := m.handleRecord(typ, body); err != nil {
			m.fail(err)
			return
		}
	}
}

func (m *mesh) handleRecord(typ byte, body []byte) error {
	switch typ {
	case recPeerFrame:
		pf, k, err := codec.DecodePeerFrame(body)
		if err != nil {
			return err
		}
		if pf.Src < 0 || pf.Src >= m.cfg.P || pf.Dst < 0 || pf.Dst >= m.cfg.P || pf.Src == pf.Dst {
			return fmt.Errorf("net: mesh chunk with bad shard pair %d→%d", pf.Src, pf.Dst)
		}
		if pf.Dst != m.cfg.Self {
			return m.relay(pf.Dst, typ, body)
		}
		return m.acceptChunk(pf, body, body[k:])
	case recWindow:
		wd, _, err := codec.DecodeWindow(body)
		if err != nil {
			return err
		}
		if wd.Src < 0 || wd.Src >= m.cfg.P || wd.Dst < 0 || wd.Dst >= m.cfg.P {
			return fmt.Errorf("net: mesh window with bad shard pair %d→%d", wd.Src, wd.Dst)
		}
		if wd.Dst != m.cfg.Self {
			return m.relay(wd.Dst, typ, body)
		}
		return m.acceptWindow(wd)
	default:
		return fmt.Errorf("net: unexpected mesh record type %d", typ)
	}
}

// relay forwards a record addressed to another worker one hop further along
// its e-cube path. The reader's buffer is reused, so the payload is copied.
func (m *mesh) relay(dst int, typ byte, body []byte) error {
	cp := make([]byte, len(body))
	copy(cp, body)
	m.mu.Lock()
	m.wire.Relayed += int64(len(body) + 1)
	m.enqueueLocked(meshHop(m.cfg.Kind, m.cfg.Self, dst), typ, cp)
	m.mu.Unlock()
	return nil
}

// acceptChunk routes one inbound chunk addressed to this worker: process it
// against the current round, or buffer it when it is ahead (the arena it
// would decode into still holds live vectors, and readers never park). The
// origin is owed a credit in every case — dropped duplicates included: a
// respawned sender re-streaming a received prefix must not stall on them —
// which goes back on this worker's next end marker toward it (sendEnd), or in
// a record of its own once half a window is owed.
func (m *mesh) acceptChunk(pf codec.PeerFrame, full, msgs []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil || m.closed {
		return nil // teardown; the latched error surfaces elsewhere
	}
	p := &m.peers[pf.Src]
	if pf.Round > m.round {
		cp := make([]byte, len(full))
		copy(cp, full)
		p.future = append(p.future, futRec{typ: recPeerFrame, pf: pf, full: cp, msgs: cp[len(cp)-len(msgs):]})
	} else if err := m.processChunkLocked(pf, full, msgs); err != nil {
		return err
	}
	if p.owed++; p.owed >= defaultWindow/2 {
		m.wire.Credits++
		m.queueLocked(pf.Src, recWindow, codec.AppendWindow(nil, codec.Window{
			Kind: codec.WindowCredit, Src: m.cfg.Self, Dst: pf.Src, Credits: p.owed,
		}))
		p.owed = 0
	}
	return nil
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

// acceptWindow takes the credits a window record returns — an end marker's
// too, whatever becomes of the marker — and routes an end-of-flow marker:
// ahead of the current round it buffers like a chunk, otherwise it is
// verified in place.
func (m *mesh) acceptWindow(wd codec.Window) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil || m.closed {
		return nil
	}
	p := &m.peers[wd.Src]
	if wd.Credits > 0 {
		p.tokens = min(p.tokens+wd.Credits, defaultWindow)
		m.cond.Broadcast()
	}
	if wd.Kind == codec.WindowCredit {
		return nil
	}
	if wd.Round > m.round {
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
// sequence 0 with fresh digests, receive flows reset, retention opens the
// round's entry, and onNewRound (the worker's arena recycler) runs before the
// round number advances — no chunk of round t can decode into an arena that is
// still being reset, because ahead-of-round records sit buffered until this
// function drains them.
func (m *mesh) beginRound(t int, onNewRound func()) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	onNewRound()
	m.round, m.pending = t, m.cfg.P-1
	for j := range m.peers {
		p := &m.peers[j]
		p.sent, p.sDig = 0, frameChainSeed
		p.rx, p.alive, p.ended = codec.PeerDigest{Peer: j, Digest: frameChainSeed}, 0, false
		if m.cfg.Recover {
			p.retained = append(p.retained, nil)
		}
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

// sendChunk streams one chunk of the current round's flow toward dst:
// acquire a token (blocking until the receiver credits a slot — the IOTimeout
// is the backstop against one that stays silent without dying), stamp the
// next sequence number, fold the sender digest, retain under recovery, and
// queue on the first hop. Called from the worker goroutine only.
func (m *mesh) sendChunk(dst int, body []byte, count int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := &m.peers[dst]
	if p.tokens == 0 || m.err != nil || m.closed { // else nothing to wait for, or to say
		if err := m.wait(m.cfg.Timeout, fmt.Sprintf("flow to %d stalled out of credits", dst),
			func() bool { return p.tokens > 0 }); err != nil {
			return err
		}
	}
	p.tokens--
	m.wire.Chunks++
	var hdr [peerFrameHeaderMax]byte
	h := codec.AppendPeerFrame(hdr[:0], codec.PeerFrame{Src: m.cfg.Self, Dst: dst, Round: m.round, Seq: p.sent, Count: count})
	payload := append(append(make([]byte, 0, len(h)+len(body)), h...), body...)
	p.sent++
	p.sDig = foldFrame(p.sDig, payload)
	if m.cfg.Recover {
		p.retained[m.round] = append(p.retained[m.round], outRec{recPeerFrame, payload})
	}
	m.queueLocked(dst, recPeerFrame, payload)
	return nil
}

// sendEnd closes the current round's flow toward dst with its end marker,
// carrying the flow's logical totals and sender digest, this worker's alive
// count and the credits it owes dst, and returns the PeerDigest entry the done
// record reports for it. What is retained of the marker grants nothing: a
// credit is owed to the incarnation whose chunk was taken.
func (m *mesh) sendEnd(dst int, msgs, logicalBytes int64, alive int) (codec.PeerDigest, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return codec.PeerDigest{}, m.err
	}
	p := &m.peers[dst]
	wd := codec.Window{
		Kind: codec.WindowEnd, Src: m.cfg.Self, Dst: dst, Round: m.round,
		Chunks: p.sent, Msgs: msgs, Bytes: logicalBytes, Digest: p.sDig, Alive: alive,
	}
	if m.cfg.Recover {
		p.retained[m.round] = append(p.retained[m.round], outRec{recWindow, codec.AppendWindow(nil, wd)})
	}
	wd.Credits, p.owed = p.owed, 0
	m.queueLocked(dst, recWindow, codec.AppendWindow(nil, wd))
	return codec.PeerDigest{Peer: dst, Chunks: wd.Chunks, Msgs: msgs, Bytes: logicalBytes, Digest: wd.Digest}, nil
}

// queueLocked queues one record of this worker's own toward dst on the first
// hop. The mesh keeps payload — a writer goroutine reads it after this
// returns, and retained it may be re-sent rounds later — so chunk payloads, end
// markers and credits are each allocated for the one record, never encoded in
// a reused scratch the way the control plane's bodies are (Conn.WriteRecord
// copies those before it returns; nothing here is copied again).
func (m *mesh) queueLocked(dst int, typ byte, payload []byte) {
	m.wire.Sent += int64(len(payload) + 1)
	m.enqueueLocked(meshHop(m.cfg.Kind, m.cfg.Self, dst), typ, payload)
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
