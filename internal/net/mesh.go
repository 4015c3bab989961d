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
// credits and end-of-flow markers, leaving the coordinator connection to the
// barrier records only. One mesh lives inside each streamed Worker.
//
// Concurrency shape: per link, one reader goroutine (decode, relay-forward,
// round-gate, credit) and one writer goroutine draining an ordered queue.
// The writer goroutines are what keep the mesh deadlock-free on synchronous
// transports (net.Pipe): a reader never writes a connection itself — it only
// enqueues — so the cycle "A blocked writing to B, B's reader blocked
// locking A" cannot form. All shared state sits under one mutex; the
// condition variable carries round advances, credit arrivals, flow ends and
// queue drains.

// peerFrameHeaderMax bounds codec.AppendPeerFrame's output (five uvarints): the
// header is encoded on the stack first, so a chunk's payload — header, then
// bodies — is one allocation of exactly its size.
const peerFrameHeaderMax = 5 * binary.MaxVarintLen64

// defaultWindow is the per-peer flow-control window: how many
// unacknowledged chunks a sender may have in flight toward one destination.
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
	busy  bool // writer is mid-write/flush (barrier waits for it)
}

// meshConfig is everything a Worker hands its mesh.
type meshConfig struct {
	Self    int
	P       int
	Kind    byte // codec.MeshFull | codec.MeshCube
	Gen     int  // this incarnation's generation (0 initial, +1 per respawn)
	Recover bool // retain every round sent, per destination, for resends
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
// mesh's current round: the live tail of the next round arriving before
// this worker has stepped it, or resent rounds arriving while a respawned
// worker is still replaying earlier ones. Readers never park on the round
// gate — they buffer and move on, which keeps every link draining and makes
// the mesh deadlock-free even when recovery interleaves live and resent
// traffic on one connection. Buffered records are drained, in arrival
// order, when beginRound reaches their round.
type futRec struct {
	typ  byte // recPeerFrame | recWindow
	pf   codec.PeerFrame
	wd   codec.Window
	msgs []byte // chunk message bodies (aliases full)
	full []byte // full record payload (digest fold input)
}

// mesh is the per-worker data plane: links, flow-control tokens, per-flow
// send/receive state and the retention rings recovery resends replay from.
type mesh struct {
	cfg  meshConfig
	mu   sync.Mutex
	cond *sync.Cond

	links []*meshLink // by neighbor id; nil until attached
	round int         // current receive/send round; -1 before the first
	// live is false while a respawned worker replays the current round: its
	// flows are sequenced, digested and retained as they were, and nothing is
	// queued — the peers hold the dead incarnation's identical bytes.
	live bool
	err  error
	// lost is the first link death of a full-mesh run without recovery (see
	// linkDownLocked): it fails the next receive barrier that cannot
	// complete.
	lost   error
	closed bool

	// Send state, per destination, reset by beginRound.
	tokens  []int
	sendSeq []int
	sChunks []int
	sDig    []uint64

	// Receive state, per source, reset by beginRound.
	nextSeq []int
	ended   []bool
	rxDig   []uint64
	rxMsgs  []int64
	rxBytes []int64

	// future[src] buffers inbound flow records ahead of the current round.
	future [][]futRec

	// retained[dst][t] holds the records of round t sent toward dst, verbatim
	// and for the whole run: what a respawned dst replays from Init out of.
	// Rounds open one by one from 0 (a respawned sender's own replay included),
	// so the index is the round. Nil when Recover is off.
	retained [][][]outRec

	wire codec.StreamWire
}

func newMesh(cfg meshConfig) *mesh {
	m := &mesh{
		cfg:     cfg,
		links:   make([]*meshLink, cfg.P),
		round:   -1,
		tokens:  make([]int, cfg.P),
		sendSeq: make([]int, cfg.P),
		sChunks: make([]int, cfg.P),
		sDig:    make([]uint64, cfg.P),
		nextSeq: make([]int, cfg.P),
		ended:   make([]bool, cfg.P),
		rxDig:   make([]uint64, cfg.P),
		rxMsgs:  make([]int64, cfg.P),
		rxBytes: make([]int64, cfg.P),
		future:  make([][]futRec, cfg.P),
	}
	m.cond = sync.NewCond(&m.mu)
	for j := range m.tokens {
		m.tokens[j] = defaultWindow
	}
	if cfg.Recover {
		m.retained = make([][][]outRec, cfg.P)
	}
	return m
}

// fail latches the first fatal mesh error and wakes every waiter.
func (m *mesh) failLocked(err error) {
	if m.err == nil {
		m.err = err
	}
	m.cond.Broadcast()
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
				m.mu.Lock()
				m.failLocked(err)
				m.mu.Unlock()
				return err
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wait(m.cfg.Timeout, "mesh formation timed out", func() (bool, error) {
		for _, j := range nb {
			if m.links[j] == nil {
				return false, nil
			}
		}
		return true, nil
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
// one; an older or duplicate hello is refused. Swapping resets j's credit
// state: the new incarnation grants credits from scratch, so the sender's
// tokens restart at a full window.
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
	m.tokens[j] = defaultWindow
	m.cond.Broadcast()
	m.mu.Unlock()
	go m.readLoop(j, l)
	go m.writeLoop(l)
}

// wait is the mesh's one wait discipline. Called with m.mu held, it parks on
// the condition variable until ready reports true (nil) or an error of its
// own, and otherwise ends on, in this order: the latched mesh error; the
// mesh having been closed (ErrKilled — only a fault-injected death closes a
// mesh somebody still waits on); timeout elapsing (0 waits forever), reported
// as "worker N <stalled>". The timer only broadcasts; fired is read and
// written under m.mu like everything else here.
func (m *mesh) wait(timeout time.Duration, stalled string, ready func() (bool, error)) error {
	fired := false
	if timeout > 0 {
		t := time.AfterFunc(timeout, func() {
			m.mu.Lock()
			fired = true
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		defer t.Stop()
	}
	for {
		if m.err != nil {
			return m.err
		}
		if m.closed {
			return ErrKilled
		}
		if ok, err := ready(); ok || err != nil {
			return err
		}
		if fired {
			return fmt.Errorf("net: worker %d %s", m.cfg.Self, stalled)
		}
		m.cond.Wait()
	}
}

// awaitToken blocks until a credit toward dst is in hand. The slow path arms
// the IOTimeout as a backstop — a receiver that stays silent past it (dead,
// with recovery unable to respawn it in time) fails this worker instead of
// hanging it; stalled is the timeout message's format, taking dst.
func (m *mesh) awaitToken(dst int, stalled string) error {
	if m.tokens[dst] > 0 {
		return nil
	}
	return m.wait(m.cfg.Timeout, fmt.Sprintf(stalled, dst), func() (bool, error) { return m.tokens[dst] > 0, nil })
}

// drained reports whether link l's writer has nothing queued or in flight.
func (l *meshLink) drained() bool { return len(l.q) == 0 && !l.busy }

// enqueueLocked queues one record on the link toward neighbor hop. Requires
// m.mu. Records queued to a down link are dropped — under recovery the
// resend protocol re-covers them; without it the link death has already
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
			l.busy = false
			m.mu.Unlock()
			return
		}
		batch := l.q
		l.q, l.spare = l.spare, nil
		l.busy = true
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
		l.busy, l.spare = false, batch[:0]
		if werr != nil {
			m.linkDownLocked(l, werr)
			m.mu.Unlock()
			return
		}
		m.cond.Broadcast() // barrier() waits for drained queues
	}
}

// linkDownLocked marks a link dead. On the full mesh that is not fatal on
// the spot: the tokens of the destination behind it refill so a sender
// blocked on credits from the dead peer finishes its round, and what was
// dropped is re-covered by the resend protocol once the peer respawns —
// or, without recovery, the loss is latched for the receive barrier. This
// worker cannot tell a dead peer from a broken link, and aborting mid-step
// would race the peer's own death to the coordinator and take the blame
// for it; its done record still goes out, and the coordinator, which sees
// every control connection, names the dead worker. On a hypercube (never
// under recovery) the link also carried flows this worker only relays, so
// nothing downstream can complete: fail at once.
func (m *mesh) linkDownLocked(l *meshLink, err error) {
	if l.down {
		return
	}
	l.down = true
	l.c.Close()
	l.q = nil
	err = fmt.Errorf("net: worker %d mesh link: %w", m.cfg.Self, err)
	if m.cfg.Kind == codec.MeshCube {
		m.failLocked(err)
		return
	}
	if !m.cfg.Recover && m.lost == nil {
		m.lost = err
	}
	for j, lk := range m.links {
		if lk == l {
			m.tokens[j] = defaultWindow
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
				m.linkDownLocked(l, err)
			}
			m.mu.Unlock()
			return
		}
		if err := m.handleRecord(typ, body); err != nil {
			m.mu.Lock()
			m.failLocked(err)
			m.mu.Unlock()
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
		if wd.Kind == codec.WindowCredit {
			m.mu.Lock()
			if m.tokens[wd.Src] += wd.Credits; m.tokens[wd.Src] > defaultWindow {
				m.tokens[wd.Src] = defaultWindow
			}
			m.cond.Broadcast()
			m.mu.Unlock()
			return nil
		}
		return m.acceptEnd(wd)
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
// against the current round, or buffer it when it is ahead (the live tail
// of the next round, or a resent later round during catch-up — the arena it
// would decode into still holds live vectors, and readers never park, so
// ahead records wait in memory instead of stalling the link). A credit is
// granted back to the origin in every case — dropped duplicates included: a
// respawned sender re-streaming an already-received prefix must not stall
// on tokens its dead incarnation consumed.
func (m *mesh) acceptChunk(pf codec.PeerFrame, full, msgs []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil || m.closed {
		return nil // teardown; the latched error surfaces elsewhere
	}
	m.wire.Recv += int64(len(full) + 1)
	if pf.Round > m.round {
		cp := make([]byte, len(full))
		copy(cp, full)
		m.future[pf.Src] = append(m.future[pf.Src], futRec{
			typ: recPeerFrame, pf: pf, full: cp, msgs: cp[len(cp)-len(msgs):],
		})
	} else if err := m.processChunkLocked(pf, full, msgs); err != nil {
		return err
	}
	credit := codec.AppendWindow(nil, codec.Window{
		Kind: codec.WindowCredit, Src: m.cfg.Self, Dst: pf.Src, Credits: 1,
	})
	m.wire.Credits++
	m.enqueueLocked(meshHop(m.cfg.Kind, m.cfg.Self, pf.Src), recWindow, credit)
	return nil
}

// processChunkLocked sequence-checks and delivers one chunk of the current
// (or an older) round. Chunks behind the round, out of sequence, or past
// the flow's end are dropped — they are recovery-resend duplicates,
// byte-identical to what the sequence gate already admitted.
func (m *mesh) processChunkLocked(pf codec.PeerFrame, full, msgs []byte) error {
	if pf.Round != m.round || pf.Seq != m.nextSeq[pf.Src] || m.ended[pf.Src] {
		return nil
	}
	if err := m.cfg.Deliver(pf.Src, pf.Round, msgs, pf.Count); err != nil {
		return err
	}
	m.nextSeq[pf.Src]++
	m.rxDig[pf.Src] = foldFrame(m.rxDig[pf.Src], full)
	m.cond.Broadcast()
	return nil
}

// acceptEnd routes one inbound end-of-flow marker: ahead of the current
// round it buffers like a chunk, otherwise it is verified in place.
func (m *mesh) acceptEnd(wd codec.Window) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil || m.closed {
		return nil
	}
	if wd.Round > m.round {
		m.future[wd.Src] = append(m.future[wd.Src], futRec{typ: recWindow, wd: wd})
		return nil
	}
	return m.processEndLocked(wd)
}

// processEndLocked verifies one end marker against the current round. An
// accepted end proves the flow arrived whole: the chunk count matches what
// the sequence gate admitted and the digests agree fold for fold. Ends for
// older rounds or already-ended flows are resend duplicates and drop; an
// end whose count outruns the admitted chunks is, under recovery, the live
// tail of a flow truncated by a link swap — the respawned peer's resend
// will carry the whole flow, so it drops too. Without recovery that
// truncation is impossible, so the mismatch is a hard protocol error.
func (m *mesh) processEndLocked(wd codec.Window) error {
	if wd.Round < m.round || m.ended[wd.Src] {
		return nil
	}
	if m.nextSeq[wd.Src] != wd.Chunks {
		if m.cfg.Recover {
			return nil
		}
		return fmt.Errorf("net: worker %d flow %d→%d round %d ended at %d chunks, %d arrived",
			m.cfg.Self, wd.Src, wd.Dst, wd.Round, wd.Chunks, m.nextSeq[wd.Src])
	}
	if m.rxDig[wd.Src] != wd.Digest {
		return fmt.Errorf("net: worker %d flow %d→%d round %d digest mismatch (sender %#x, receiver %#x)",
			m.cfg.Self, wd.Src, wd.Dst, wd.Round, wd.Digest, m.rxDig[wd.Src])
	}
	m.ended[wd.Src] = true
	m.rxMsgs[wd.Src] = wd.Msgs
	m.rxBytes[wd.Src] = wd.Bytes
	m.cond.Broadcast()
	return nil
}

// beginRound opens round t for both directions: send flows restart at
// sequence 0 with fresh digests, receive flows reset, and onNewRound (the
// worker's arena recycler) runs before the round number advances — no chunk
// of round t can decode into an arena that is still being reset, because
// ahead-of-round records sit buffered until this function drains them.
// Retention opens round t's entry per destination; live false makes the round
// a replay (see mesh.live).
func (m *mesh) beginRound(t int, live bool, onNewRound func()) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if onNewRound != nil {
		onNewRound()
	}
	for j := 0; j < m.cfg.P; j++ {
		m.sendSeq[j] = 0
		m.sChunks[j] = 0
		m.sDig[j] = frameChainSeed
		m.nextSeq[j] = 0
		m.ended[j] = j == m.cfg.Self
		m.rxDig[j] = frameChainSeed
		m.rxMsgs[j] = 0
		m.rxBytes[j] = 0
	}
	for j := range m.retained {
		m.retained[j] = append(m.retained[j], nil)
	}
	m.round, m.live = t, live
	// Drain the buffered ahead-of-round records that have become current:
	// in arrival order per source, keeping what is still ahead. Rounds the
	// barrier skipped past (catch-up) drop.
	for j := range m.future {
		kept := m.future[j][:0]
		for _, fr := range m.future[j] {
			r := fr.wd.Round
			if fr.typ == recPeerFrame {
				r = fr.pf.Round
			}
			if r > t {
				kept = append(kept, fr)
				continue
			}
			var err error
			if fr.typ == recPeerFrame {
				err = m.processChunkLocked(fr.pf, fr.full, fr.msgs)
			} else {
				err = m.processEndLocked(fr.wd)
			}
			if err != nil {
				m.failLocked(err)
				return err
			}
		}
		m.future[j] = kept
	}
	m.cond.Broadcast()
	return nil
}

// sendChunk streams one chunk of the current round's flow toward dst:
// acquire a token (blocking until the receiver credits a slot), stamp the
// next sequence number, fold the sender digest, retain under recovery, and
// queue on the first hop — the first and the last on a live round only.
// Called from the worker goroutine only.
func (m *mesh) sendChunk(dst int, body []byte, count int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.live {
		if err := m.awaitToken(dst, "flow to %d stalled out of credits"); err != nil {
			return err
		}
		m.tokens[dst]--
		m.wire.Chunks++
	}
	if m.err != nil {
		return m.err
	}
	if m.closed {
		return ErrKilled
	}
	pf := codec.PeerFrame{Src: m.cfg.Self, Dst: dst, Round: m.round, Seq: m.sendSeq[dst], Count: count}
	var hdr [peerFrameHeaderMax]byte
	h := codec.AppendPeerFrame(hdr[:0], pf)
	payload := append(append(make([]byte, 0, len(h)+len(body)), h...), body...)
	m.sendSeq[dst]++
	m.sChunks[dst]++
	m.sDig[dst] = foldFrame(m.sDig[dst], payload)
	m.sendLocked(dst, recPeerFrame, payload)
	return nil
}

// sendEnd closes the current round's flow toward dst with its end marker,
// carrying the flow's logical totals and sender digest, and returns the
// PeerDigest entry the done record reports for it.
func (m *mesh) sendEnd(dst int, msgs, logicalBytes int64) (codec.PeerDigest, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return codec.PeerDigest{}, m.err
	}
	wd := codec.Window{
		Kind: codec.WindowEnd, Src: m.cfg.Self, Dst: dst, Round: m.round,
		Chunks: m.sChunks[dst], Msgs: msgs, Bytes: logicalBytes, Digest: m.sDig[dst],
	}
	m.sendLocked(dst, recWindow, codec.AppendWindow(nil, wd))
	return codec.PeerDigest{
		Peer: dst, Chunks: wd.Chunks, Msgs: msgs, Bytes: logicalBytes, Digest: wd.Digest,
	}, nil
}

// sendLocked retains one record of the current round's flow toward dst under
// recovery and, on a live round, queues it on the first hop. Either way the
// mesh keeps payload: a writer goroutine reads it after this returns and a
// resend may replay it rounds later, so the caller hands over a slice nobody
// else will write again — chunk payloads, end markers and credits are each
// allocated for the one record, never encoded in a reused scratch the way the
// control plane's bodies are (Conn.WriteRecord copies those before it returns;
// nothing here is copied again).
func (m *mesh) sendLocked(dst int, typ byte, payload []byte) {
	if m.retained != nil {
		m.retained[dst][m.round] = append(m.retained[dst][m.round], outRec{typ: typ, payload: payload})
	}
	if m.live {
		m.wire.Sent += int64(len(payload) + 1)
		m.enqueueLocked(meshHop(m.cfg.Kind, m.cfg.Self, dst), typ, payload)
	}
}

// resend replays the retained records toward target for rounds 0..to
// verbatim — byte-identical to the originals by determinism, accepted
// idempotently by the receiver's sequence gate. gen is the target's new
// incarnation generation: the resend first waits for that incarnation's link
// to attach, because records enqueued to the dead incarnation's link (which
// this worker may not have noticed dying yet) would be silently dropped.
// to may run ahead of this worker's own round: nothing of those rounds has
// been streamed or retained, and live traffic toward the fresh link covers
// them. Tokens
// toward the target refill (the new incarnation grants credits from
// scratch); chunk records re-acquire them so the resend respects the window.
func (m *mesh) resend(target, to, gen int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.wait(m.cfg.Timeout, fmt.Sprintf("resend to %d: incarnation %d never attached", target, gen), func() (bool, error) {
		l := m.links[target]
		return l != nil && !l.down && l.gen >= gen, nil
	}); err != nil {
		return err
	}
	m.tokens[target] = defaultWindow
	m.cond.Broadcast()
	hop := meshHop(m.cfg.Kind, m.cfg.Self, target)
	for t, recs := range m.retained[target] {
		if t > to {
			break
		}
		for _, r := range recs {
			if r.typ == recPeerFrame {
				if err := m.awaitToken(target, "resend to %d stalled out of credits"); err != nil {
					return err
				}
				m.tokens[target]--
				m.wire.Chunks++
			}
			m.wire.Sent += int64(len(r.payload) + 1)
			m.enqueueLocked(hop, r.typ, r.payload)
		}
	}
	// Flush barrier on the target's link: the resend returns only once the
	// records are on the wire. Without it, a resend racing the run's finish
	// could die in the queue — this worker processes its finish record next,
	// tears the mesh down, and the respawned target waits forever on flows
	// nobody will send again. A link that went down means the target died
	// again mid-resend; its next incarnation gets a fresh resend instruction
	// covering everything dropped here.
	return m.wait(m.cfg.Timeout, fmt.Sprintf("resend to %d flush timed out", target), func() (bool, error) {
		l := m.links[hop]
		return l == nil || l.down || l.drained(), nil
	})
}

// barrier waits until every link's writer queue has drained and flushed.
// The worker crosses it before sending its done record, which is what makes
// "done received" mean "this worker's chunks are physically on the wire" —
// the invariant the coordinator's crash attribution leans on.
func (m *mesh) barrier() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wait(m.cfg.Timeout, "mesh flush timed out", func() (bool, error) {
		for _, l := range m.links {
			if l != nil && !l.down && !l.drained() {
				return false, nil
			}
		}
		return true, nil
	})
}

// waitComplete blocks until every inbound flow of round t has ended, then
// returns the receive-side PeerDigest entries (ascending source) and the
// round digest — the ascending-source fold of the per-flow digests that
// feeds the worker's frame chain. Under recovery a missing flow waits
// indefinitely (the coordinator restarts the dead sender and its peers
// resend); without it, a round left incomplete by a lost link fails here
// and the timeout bounds the wait as the teardown backstop.
func (m *mesh) waitComplete(t int) ([]codec.PeerDigest, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	timeout := m.cfg.Timeout
	if m.cfg.Recover {
		timeout = 0
	}
	if err := m.wait(timeout, fmt.Sprintf("round %d receive barrier timed out", t), func() (bool, error) {
		if m.round != t {
			return false, fmt.Errorf("net: worker %d completing round %d while mesh is at %d", m.cfg.Self, t, m.round)
		}
		for _, e := range m.ended {
			if !e {
				return false, m.lost
			}
		}
		return true, nil
	}); err != nil {
		return nil, 0, err
	}
	ents := make([]codec.PeerDigest, 0, m.cfg.P-1)
	dig := frameChainSeed
	for j := 0; j < m.cfg.P; j++ {
		if j == m.cfg.Self {
			continue
		}
		ents = append(ents, codec.PeerDigest{
			Peer: j, Chunks: m.nextSeq[j], Msgs: m.rxMsgs[j], Bytes: m.rxBytes[j], Digest: m.rxDig[j],
		})
		dig = foldU64(dig, m.rxDig[j])
	}
	return ents, dig, nil
}

// wireSnapshot returns the cumulative wire counters.
func (m *mesh) wireSnapshot() codec.StreamWire {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wire
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
