package net

import (
	"encoding/binary"
	"fmt"

	"distkcore/internal/codec"
	"distkcore/internal/obs"
	"distkcore/internal/shard"
)

// This file is the streamed frame plane (DESIGN.md §8.4), both halves.
// Cross-shard sends stream straight to their destination workers over the
// mesh (mesh.go) as the local step produces them, and the coordinator
// connection carries only barrier records — done (with per-peer sent
// digests), the release, the ack (with per-peer received digests). The
// coordinator never sees a frame: it verifies that the
// digest matrix closes — sent[a][b] == recv[b][a] for every pair, every
// round — and, under recovery, that each worker's frame chain folds from
// exactly those digests.

// streamWorker is the worker half: per-peer chunk streams going out over
// the mesh, whose readers absorb the inbound chunks as they arrive.
type streamWorker struct {
	r *workerLoop
	m *mesh
	// sent is the done record's entry list, rebuilt every round in place;
	// recv holds the receive-side digests of the round just completed, for
	// its ack.
	sent, recv []codec.PeerDigest
}

// newStreamWorker forms the mesh; it returns once every neighbor link is
// attached.
func newStreamWorker(r *workerLoop) (*streamWorker, error) {
	w, h := r.w, r.h
	if w.MeshDial == nil || w.MeshAccept == nil {
		return nil, fmt.Errorf("net: streamed hello but worker %d has no mesh endpoints", h.Shard)
	}
	if h.MeshKind != codec.MeshFull && h.MeshKind != codec.MeshCube {
		return nil, fmt.Errorf("net: unknown mesh kind %d", h.MeshKind)
	}
	if h.MeshKind == codec.MeshCube && h.P&(h.P-1) != 0 {
		return nil, fmt.Errorf("net: hypercube mesh needs a power-of-two P, got %d", h.P)
	}
	m := newMesh(meshConfig{
		Self: h.Shard, P: h.P, Kind: h.MeshKind, Gen: w.MeshGen,
		Recover: h.Recover, Timeout: w.IOTimeout,
		Dial: w.MeshDial, Accept: w.MeshAccept, CloseAccept: w.MeshClose,
		Deliver: r.absorb,
	})
	if err := m.form(); err != nil {
		m.Close()
		return nil, err
	}
	chunk := w.ChunkBytes
	if chunk <= 0 {
		chunk = shard.DefaultChunkBytes
	}
	for q := range r.out {
		if q == h.Shard {
			continue
		}
		r.out[q] = &shard.PeerStream{Lam: r.lam, Limit: chunk,
			Flush: func(body []byte, count int) error { return m.sendChunk(q, body, count) }}
	}
	return &streamWorker{r: r, m: m}, nil
}

func (p *streamWorker) close() { p.m.Close() }

// begin opens the mesh round; the arena slot recycles under the mesh mutex
// before the round number advances, so no chunk of round t can decode into
// an arena that is still being reset.
func (p *streamWorker) begin(t int, live bool) error {
	return p.m.beginRound(t, live, func() { p.r.resetArenas(t) })
}

// done ends every flow, drains the mesh writers and reports the per-peer
// sent digests. The flow ledger prices logical frame bytes (one relay-style
// header + bodies per nonempty flow), which is what keeps ShardMetrics
// bit-equal to the relay plane's. On a replayed round the mesh has retained
// the flows and queued nothing, so there is nothing to drain or report.
func (p *streamWorker) done(t, alive int, live bool) (bytes, msgs int64, err error) {
	self := p.r.h.Shard
	ents := p.sent[:0]
	for q, ps := range p.r.out {
		if q == self {
			continue
		}
		if err := ps.Finish(); err != nil {
			return 0, 0, err
		}
		lb := shard.LogicalFrameBytes(self, q, t, ps.Msgs, ps.BodyBytes)
		e, err := p.m.sendEnd(q, int64(ps.Msgs), lb)
		if err != nil {
			return 0, 0, err
		}
		ents = append(ents, e)
		bytes += lb
		msgs += int64(ps.Msgs)
		ps.Reset()
	}
	p.sent = ents
	if !live {
		return bytes, msgs, nil
	}
	// Drain the writers before done: "done received" must mean "this
	// worker's chunks are on the wire", or a death right after done could
	// strand peers waiting on flows nobody will resend for it.
	if err := p.m.barrier(); err != nil {
		return 0, 0, err
	}
	p.r.enc = codec.AppendStreamDone(p.r.enc[:0], codec.StreamDone{Round: t, Alive: alive, Sent: ents})
	return bytes, msgs, p.r.w.c.WriteRecord(recStreamDone, p.r.enc)
}

func (p *streamWorker) record(typ byte, body []byte) error {
	switch typ {
	case recStreamResend:
		// Re-feed a respawned peer: replay the retained records of rounds
		// 0..to toward its new incarnation, verbatim.
		var target, to, gen int
		if err := uvarints("stream-resend", body, &target, &to, &gen); err != nil {
			return err
		}
		return p.m.resend(target, to, gen)
	case recStreamReplay:
		// The round's inbound flows arrive over the mesh (resent by the
		// peers), not on this connection.
		rp, err := p.r.replay(body)
		if err != nil {
			return err
		}
		if rp.Frames != 0 {
			return fmt.Errorf("net: stream replay of round %d announces %d frames", rp.Round, rp.Frames)
		}
		return p.r.finish(rp.Round, false, nil)
	}
	return fmt.Errorf("net: unexpected record type %d at streamed worker", typ)
}

// inbound is the receive barrier: await every inbound flow's end marker,
// then fold the round's digest into the frame chain.
func (p *streamWorker) inbound(t int, live bool, rel []byte) error {
	w := p.r.w
	if live {
		var round int
		if err := uvarints("deliver", rel, &round); err != nil {
			return err
		}
		if round != t {
			return fmt.Errorf("net: release for round %d but worker is at %d", round, t)
		}
	}
	if live && w.killed(obs.PhaseRecv, t) {
		return ErrKilled
	}
	rv := w.Trace.Begin(obs.PhaseRecv, t, p.r.h.Shard)
	ents, roundDig, err := p.m.waitComplete(t)
	if err != nil {
		return err
	}
	var rb, rc int64
	for _, e := range ents {
		rb += e.Bytes
		rc += int64(e.Chunks)
	}
	rv.EndN(rb, rc)
	p.recv = ents
	p.r.chain = foldU64(p.r.chain, roundDig)
	return nil
}

func (p *streamWorker) ack(t int) error {
	p.r.enc = codec.AppendStreamAck(p.r.enc[:0], codec.StreamAck{Round: t, Wire: p.m.wireSnapshot(), Recv: p.recv})
	return p.r.w.c.WriteRecord(recStreamAck, p.r.enc)
}

// defaultMeshThreshold is the P at or above which a streamed run (with
// recovery off and a power-of-two P) switches from the full mesh to the
// hypercube relay topology.
const defaultMeshThreshold = 16

// meshKindFor picks the mesh topology for a streamed run: the hypercube
// needs a power-of-two P at or above the threshold, and recovery forces the
// full mesh — a resend must have a direct path to the respawned worker that
// no relay hop's own death can sever.
func meshKindFor(p, threshold int, recov bool) byte {
	if threshold <= 0 {
		threshold = defaultMeshThreshold
	}
	if !recov && p >= threshold && p&(p-1) == 0 {
		return codec.MeshCube
	}
	return codec.MeshFull
}

// digestFor returns the PeerDigest entry for peer q in a done/ack entry
// list (ascending Peer, self excluded).
func digestFor(ents []codec.PeerDigest, q int) (codec.PeerDigest, error) {
	for _, e := range ents {
		if e.Peer == q {
			return e, nil
		}
	}
	return codec.PeerDigest{}, fmt.Errorf("net: no digest entry for peer %d", q)
}

// streamCoord is the coordinator half: a barrier and digest-matrix service.
// A worker's streamed contribution needs no undo when it dies short of its
// done record — the prefix it streamed is deduplicated by the peers'
// sequence gates when the restored worker re-streams the identical bytes,
// and the ledger prices done records only.
type streamCoord struct {
	c *coordinator
	// sent[w] is worker w's done record for the round: its per-peer sent
	// digests, nil until the record is in.
	sent [][]codec.PeerDigest
	// bytes and flows are the round's verified flow volume.
	bytes, flows int64
}

func (p *streamCoord) phase() obs.Phase       { return obs.PhaseVerify }
func (p *streamCoord) volume() (int64, int64) { return p.bytes, p.flows }
func (p *streamCoord) discard(int)            {}

func (p *streamCoord) begin(int) {
	p.sent = make([][]codec.PeerDigest, p.c.hub.P())
	p.bytes, p.flows = 0, 0
}

func (p *streamCoord) record(t, from int, typ byte, body []byte) (bool, int, error) {
	np := len(p.sent)
	switch typ {
	case recStreamDone:
		sd, used, err := codec.DecodeStreamDone(body)
		if err != nil {
			return false, 0, err
		}
		switch {
		case used != len(body):
			return false, 0, fmt.Errorf("net: worker %d done record carries %d trailing bytes", from, len(body)-used)
		case sd.Round != t:
			return false, 0, fmt.Errorf("net: worker %d done for round %d during round %d", from, sd.Round, t)
		case p.sent[from] != nil:
			return false, 0, fmt.Errorf("net: worker %d done twice in round %d", from, t)
		case len(sd.Sent) != np-1:
			return false, 0, fmt.Errorf("net: worker %d done reports %d flows, want %d", from, len(sd.Sent), np-1)
		}
		p.sent[from] = sd.Sent
		return true, sd.Alive, nil
	case recStreamAck:
		// The worker's receive-side digests must mirror the senders' entry
		// for entry.
		sa, used, err := codec.DecodeStreamAck(body)
		if err != nil {
			return false, 0, err
		}
		switch {
		case used != len(body):
			return false, 0, fmt.Errorf("net: worker %d ack record carries %d trailing bytes", from, len(body)-used)
		case sa.Round != t:
			return false, 0, fmt.Errorf("net: worker %d ack for round %d during round %d", from, sa.Round, t)
		case p.sent[from] == nil:
			return false, 0, fmt.Errorf("net: worker %d acked round %d before its done record", from, t)
		case len(sa.Recv) != np-1:
			return false, 0, fmt.Errorf("net: worker %d ack reports %d flows, want %d", from, len(sa.Recv), np-1)
		}
		for _, e := range sa.Recv {
			if e.Peer < 0 || e.Peer >= np || e.Peer == from {
				return false, 0, fmt.Errorf("net: worker %d ack reports flow from %d", from, e.Peer)
			}
			se, err := digestFor(p.sent[e.Peer], from)
			if err != nil {
				return false, 0, err
			}
			if se.Chunks != e.Chunks || se.Msgs != e.Msgs || se.Bytes != e.Bytes || se.Digest != e.Digest {
				return false, 0, fmt.Errorf("net: round %d flow %d→%d mismatch (sent %d chunks %d msgs %d bytes %#x, received %d/%d/%d/%#x)",
					t, e.Peer, from, se.Chunks, se.Msgs, se.Bytes, se.Digest, e.Chunks, e.Msgs, e.Bytes, e.Digest)
			}
			p.bytes += e.Bytes
			p.flows++
		}
		p.c.rep.StreamWire[from] = sa.Wire
		return true, 0, nil
	}
	return false, 0, fmt.Errorf("net: unexpected record type %d from worker %d in streamed round %d", typ, from, t)
}

// seal prices the ledger and trace from the done records — each worker's
// per-peer logical totals are exactly what the relay plane would have priced
// for the same frames (one relay-style header plus bodies, nothing for empty
// flows) — and, under recovery, advances the per-worker digest chains.
// Worker w's round digest is the ascending-source fold of the flows it
// received — each equal, by the matrix check, to the sender's entry toward
// w.
func (p *streamCoord) seal(t int) error {
	sm := &p.c.rep.Sharding
	for w, ents := range p.sent {
		for _, e := range ents {
			if e.Peer < 0 || e.Peer >= len(p.sent) || e.Peer == w {
				return fmt.Errorf("net: worker %d done reports flow to %d", w, e.Peer)
			}
			sm.CrossMessages += e.Msgs
			sm.CrossFrameBytes += e.Bytes
			sm.PerShardBytes[w] += e.Bytes
			if e.Msgs > 0 {
				p.c.spec.Trace.Flow(t, w, e.Peer, e.Bytes, e.Msgs)
			}
		}
	}
	if !p.c.spec.Recover {
		return nil
	}
	for w := range p.sent {
		dig := frameChainSeed
		for q := range p.sent {
			if e, err := digestFor(p.sent[q], w); q != w && err == nil {
				dig = foldU64(dig, e.Digest)
			}
		}
		p.c.chains[w] = foldU64(p.c.chains[w], dig)
	}
	return nil
}

func (p *streamCoord) release(t, q int) (bool, error) {
	var buf [binary.MaxVarintLen64]byte
	return true, p.c.hub.Send(q, recDeliver, binary.AppendUvarint(buf[:0], uint64(t)))
}

// resend instructs every peer to re-send toward respawned worker w its
// retained flows of rounds 0..cur. That can reach one round past what w
// replays: a worker that died mid-round t is restored through t-1 but needs
// round t's inbound flows too, since the peers already streamed (and will
// not re-stream) them. w's welcome is in, so its mesh is formed from its
// side and every peer's accept of the new links is in flight; the record
// carries w's new mesh generation — the hub's respawn count, the same
// number Spec.Respawn started the incarnation under — so each peer waits for
// that incarnation's link before writing a byte (records to the dead link
// would drop silently).
func (p *streamCoord) resend(w, gen int) error {
	req := binary.AppendUvarint(nil, uint64(w))
	req = binary.AppendUvarint(req, uint64(p.c.cur))
	req = binary.AppendUvarint(req, uint64(gen))
	for q := range p.sent {
		if q == w {
			continue
		}
		if err := p.c.hub.Send(q, recStreamResend, req); err != nil {
			return fmt.Errorf("net: requesting resend %d→%d: %w", q, w, err)
		}
	}
	return nil
}

func (p *streamCoord) replay(cn *Conn, w, t int) (int64, int64, error) {
	return 0, 0, cn.WriteRecord(recStreamReplay, codec.AppendReplay(nil, codec.Replay{Round: t}))
}
