package net

import (
	"errors"
	"fmt"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/obs"
	"distkcore/internal/shard"
)

// This file is the streamed frame plane (DESIGN.md §8.4), both halves.
// Cross-shard sends stream straight to their destination workers over the
// mesh (mesh.go) as the local step produces them, and a round is closed by
// the peers, not by the coordinator: a worker advances when the end marker of
// every inbound flow is in, and decides the loop condition from the alive
// counts the markers carry, as SeqEngine does from its own. The coordinator
// sends hello, one go record and finish; a worker writes it a done record
// (per-peer sent digests) and an ack (per-peer received digests) a round and
// waits for no answer. The coordinator never sees a frame and never gates a
// round: it verifies behind the workers that the digest matrix closes —
// sent[a][b] == recv[b][a] for every pair, every round — and prices the
// ledger and, under recovery, each worker's frame chain from it.

// streamWorker is the worker half: per-peer chunk streams going out over
// the mesh, whose readers absorb the inbound chunks as they arrive.
type streamWorker struct {
	r *workerLoop
	m *mesh
	// sent and recv are the done and ack records' entry lists, rebuilt every
	// round in place.
	sent, recv []codec.PeerDigest
	// started and fin are what control has read off the coordinator connection,
	// under the mesh mutex: the go record, the finish record's body.
	started bool
	fin     []byte
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
	rows := r.fan.Rows(h.P)
	for q := range r.out {
		if q == h.Shard {
			continue
		}
		r.out[q] = &shard.PeerStream{Lam: r.lam, Limit: chunk,
			Flush: func(body []byte, count int) error { return m.sendChunk(q, body, count) }}
		r.out[q].Reserve(rows[q], len(r.assign))
	}
	return &streamWorker{r: r, m: m}, nil
}

// control reads the coordinator connection for the whole streamed run — the
// worker goroutine never does: it is stepping, or waiting on the mesh. A go or
// a finish record is noted under the mesh mutex; an error record, a stray
// record or the connection failing latches the mesh error, which ends whatever
// mesh wait the worker is in: an incarnation whose run was aborted does not
// outlive it. No read deadline — a coordinator verifying behind is silent for
// a run's length. Returns after the finish record (the connection is then the
// caller's again) or on the first failure.
func (p *streamWorker) control() {
	m := p.m
	for {
		typ, body, err := p.r.w.c.AwaitRecord()
		var round int
		m.mu.Lock()
		switch {
		case err != nil:
			err = fmt.Errorf("net: worker read: %w", err)
		case typ == recError:
			err = fmt.Errorf("net: coordinator aborted: %s", body)
		case typ == recStep && !p.started:
			if err = uvarints("step", body, &round); err == nil && round != 0 {
				err = fmt.Errorf("net: go record names round %d", round)
			}
			p.started = true
		case typ == recFinish && p.started:
			p.fin = append(make([]byte, 0, len(body)), body...)
		default:
			err = fmt.Errorf("net: unexpected record type %d at streamed worker", typ)
		}
		if err != nil {
			m.failLocked(err)
		}
		over := m.err != nil || p.fin != nil
		m.cond.Broadcast()
		m.mu.Unlock()
		if over {
			return
		}
	}
}

// await parks the worker until the control connection has brought what ready
// looks for, or the run is over.
func (p *streamWorker) await(ready func() bool) error {
	p.m.mu.Lock()
	defer p.m.mu.Unlock()
	return p.m.wait(0, "", ready)
}

// run is a streamed worker's whole run between welcome and metrics: wait for
// the go record, run rounds until the loop condition — SeqEngine's, decided
// here from Σ alive over this worker and its peers' end markers — says stop,
// and wait for the coordinator's finish record, which must name the round
// count and the halt this worker arrived at itself.
func (p *streamWorker) run(maxRounds int) (rounds int, halted bool, err error) {
	go p.control()
	if err := p.await(func() bool { return p.started }); err != nil {
		return 0, false, err
	}
	t, alive := 0, 0
	for ; ; t++ {
		if alive, err = p.round(t); err != nil {
			return 0, false, err
		}
		if t >= maxRounds || alive == 0 {
			break
		}
	}
	if err := p.r.w.c.Flush(); err != nil {
		return 0, false, err
	}
	if err := p.await(func() bool { return p.fin != nil }); err != nil {
		return 0, false, err
	}
	if rounds, halted, err = decodeFinish(p.fin); err == nil && (rounds != t || halted != (alive == 0)) {
		err = fmt.Errorf("net: finish(%d rounds, halted %v) but worker %d closed round %d with %d alive",
			rounds, halted, p.r.h.Shard, t, alive)
	}
	return rounds, halted, err
}

// round runs round t and returns the number of nodes alive across the cluster
// after it. Spans in order: recv — opening the round on the mesh absorbs what
// the peers streamed ahead of it; step; send — the tap, chunked onto the mesh
// as it is framed, every flow ended with its marker, the done record behind
// them; barrier-wait — for the peers' end markers, the round's close; recv
// again — the inbound flows are whole, their volume recorded; deliver, the ack
// queued behind it (it rides the next done record's flush, or the run's last).
func (p *streamWorker) round(t int) (alive int, err error) {
	r, w, self := p.r, p.r.w, p.r.h.Shard
	if w.killed(obs.PhaseStep, t) {
		return 0, ErrKilled
	}
	r.cur = t
	// The arena slot recycles under the mesh mutex, before the round advances.
	rv := w.Trace.Begin(obs.PhaseRecv, t, self)
	err = p.m.beginRound(t, func() { r.resetArenas(t) })
	rv.End()
	if err != nil {
		return 0, err
	}
	sp := w.Trace.Begin(obs.PhaseStep, t, self)
	sp.EndN(0, int64(r.d.StepList(r.local, t))) // hooks run, as on seq and par
	if w.killed(obs.PhaseSend, t) {
		return 0, ErrKilled
	}
	out := w.Trace.Begin(obs.PhaseSend, t, self)
	r.fan.Emit(r.d, func(q int, to graph.NodeID, m dist.Message) {
		if err == nil {
			err = r.out[q].Append(to, m)
		}
	})
	if err != nil {
		return 0, err
	}
	// The ledger prices logical frame bytes (one relay-style header + bodies
	// per nonempty flow): ShardMetrics stays bit-equal to the relay plane's.
	own := r.d.Alive()
	var bytes, msgs int64
	p.sent = p.sent[:0]
	for q, ps := range r.out {
		if q == self {
			continue
		}
		if err := ps.Finish(); err != nil {
			return 0, err
		}
		lb := shard.LogicalFrameBytes(self, q, t, ps.Msgs, ps.BodyBytes)
		e, err := p.m.sendEnd(q, int64(ps.Msgs), lb, own)
		if err != nil {
			return 0, err
		}
		p.sent = append(p.sent, e)
		bytes += lb
		msgs += int64(ps.Msgs)
		ps.Reset()
	}
	r.enc = codec.AppendStreamDone(r.enc[:0], codec.StreamDone{Round: t, Alive: own, Sent: p.sent})
	if err := w.c.Send(recStreamDone, r.enc); err != nil {
		return 0, err
	}
	out.EndN(bytes, msgs)
	if w.killed(obs.PhaseBarrierWait, t) {
		return 0, ErrKilled
	}
	bw := w.Trace.Begin(obs.PhaseBarrierWait, t, self)
	recv, dig, peers, err := p.m.waitComplete(p.recv[:0])
	bw.End()
	if err != nil {
		return 0, err
	}
	if w.killed(obs.PhaseRecv, t) {
		return 0, ErrKilled
	}
	rv = w.Trace.Begin(obs.PhaseRecv, t, self)
	var rb, rc int64
	for _, e := range recv {
		rb += e.Bytes
		rc += int64(e.Chunks)
	}
	p.recv = recv
	r.chain = foldU64(r.chain, dig)
	rv.EndN(rb, rc)
	if w.killed(obs.PhaseDeliver, t) {
		return 0, ErrKilled
	}
	dl := w.Trace.Begin(obs.PhaseDeliver, t, self)
	r.d.Deliver(nil)
	dl.End()
	p.m.mu.Lock()
	wire := p.m.wire
	p.m.mu.Unlock()
	r.enc = codec.AppendStreamAck(r.enc[:0], codec.StreamAck{Round: t, Wire: wire, Recv: recv})
	return own + peers, w.c.WriteRecord(recStreamAck, r.enc)
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

// streamCoord is the coordinator half: it verifies, a round at a time and
// behind the workers, the records they write as they go. A worker's k-th
// record is its done record of round k/2 (k even) or that round's ack (k odd),
// whatever round the coordinator is at. A dead worker's contribution needs no
// undo: its successor runs again from Init, and what it reports again is
// dropped by count — by determinism the record already held (DESIGN.md §13).
type streamCoord struct {
	c *coordinator
	// in[w] counts the records accepted from worker w, seq[w] those read off
	// its current connection: a respawned incarnation starts over at 0, and a
	// record with seq < in is a repeat.
	in, seq []int
	// open[i] holds what is in of round base+i; rounds seal in order.
	open []streamRound
	base int
	// last is the run's last round, -1 until the loop condition ended it.
	last int
	owed []bool
}

// streamRound is one round's records as they arrive: worker w's done and ack
// entry lists (nil until in), their count, the done records' alive counts summed.
type streamRound struct {
	sent, recv [][]codec.PeerDigest
	n, alive   int
}

// round returns round t's record set, opening rounds up to it.
func (p *streamCoord) round(t int) *streamRound {
	for np := len(p.in); t-p.base >= len(p.open); {
		p.open = append(p.open, streamRound{sent: make([][]codec.PeerDigest, np), recv: make([][]codec.PeerDigest, np)})
	}
	return &p.open[t-p.base]
}

// position is where worker w stands by the records accepted from it: at the
// step of a round until its done record is in, at the barrier — waiting for
// its peers — until its ack is, past the last round's delivery after that.
func (p *streamCoord) position(w int) (int, obs.Phase) {
	switch t := p.in[w] / 2; {
	case p.last >= 0 && t > p.last:
		return p.last, obs.PhaseDeliver
	case p.in[w]%2 == 1:
		return t, obs.PhaseBarrierWait
	default:
		return t, obs.PhaseStep
	}
}

// readmit sends worker w the go record; its records count from 0 (again).
func (p *streamCoord) readmit(w int) error {
	p.seq[w] = 0
	return p.c.hub.Send(w, recStep, []byte{0})
}

// run follows the streamed run: the go records, then round after round —
// collect the round's 2P records, verify, seal — until SeqEngine's loop
// condition, read off the sealed alive counts, ends it where the workers ended
// it themselves. Returns the alive count of the last round.
func (p *streamCoord) run() (alive int, err error) {
	c := p.c
	for i := range p.in {
		_ = p.readmit(i) // a failed write finds the worker dead: its reader says so below
	}
	for t := 0; ; t++ {
		c.cur = t
		if c.spec.OnRound != nil {
			c.spec.OnRound(t)
		}
		bw := c.spec.Trace.Begin(obs.PhaseBarrierWait, t, -1)
		w, err := p.collect(t, func() bool { return p.round(t).n == 2*len(p.in) })
		bw.End()
		if err != nil {
			return 0, c.fail(w, obs.PhaseStep, err)
		}
		vf := c.spec.Trace.Begin(obs.PhaseVerify, t, -1)
		bytes, flows, liar, err := p.seal(t)
		vf.EndN(bytes, flows)
		if err != nil {
			return 0, &RunError{Round: t, Phase: obs.PhaseVerify, Worker: liar, Err: err}
		}
		alive = p.open[0].alive
		p.open, p.base = p.open[1:], p.base+1
		if t >= c.spec.MaxRounds || alive == 0 {
			p.last = t
			break
		}
	}
	if len(p.open) > 0 {
		return 0, c.fail(-1, obs.PhaseDeliver, fmt.Errorf("net: records of round %d are in, past the run's last", p.last+1))
	}
	// What is queued behind the last round's records is a fault: a worker that
	// died waiting for finish. Taken now it is restored while its peers still
	// hold their meshes — a finish record tears them down.
	if w, err := p.collect(p.last, func() bool { return !c.hub.Pending() }); err != nil {
		return 0, c.fail(w, obs.PhaseDeliver, err)
	}
	return alive, nil
}

// collect receives until whole says so — every record of round t is in —
// whatever else arrives meanwhile: workers run ahead, so everyone is owed until
// then. A dead worker is respawned on the spot; one that says why it stops (an
// error record) is not a crash — run again it would stop again — and fails the
// run. A timeout is blamed on the one worker short of round t, if one.
func (p *streamCoord) collect(t int, whole func() bool) (int, error) {
	c, short := p.c, !whole()
	for i := range p.owed {
		p.owed[i] = short
	}
	w, err := c.hub.Collect(p.owed, func(from int, typ byte, body []byte) (bool, error) {
		err := p.record(from, typ, body)
		if err == nil && whole() {
			clear(p.owed)
		}
		return !p.owed[from], err
	}, func(w int, cause error) error {
		if !c.recoverable() || errors.Is(cause, errAborted) {
			return cause
		}
		err := c.restart(w, t)
		if err == nil && whole() {
			clear(p.owed)
		}
		return err
	})
	if err != nil && w < 0 {
		for i, n := range p.in {
			if n < 2*(t+1) {
				if w >= 0 {
					return -1, err
				}
				w = i
			}
		}
	}
	return w, err
}

// record takes one record off worker from's connection: it must be the next
// of that worker's sequence — done, ack, done, … each naming its round — with
// one entry per peer, ascending; a repeat is dropped, anything new joins its
// round's set.
func (p *streamCoord) record(from int, typ byte, body []byte) error {
	k, np := p.seq[from], len(p.in)
	t := k / 2
	var ents []codec.PeerDigest
	var round, alive, used int
	var err error
	switch {
	case typ == recStreamDone && k%2 == 0:
		var sd codec.StreamDone
		sd, used, err = codec.DecodeStreamDone(body)
		ents, round, alive = sd.Sent, sd.Round, sd.Alive
	case typ == recStreamAck && k%2 == 1:
		var sa codec.StreamAck
		sa, used, err = codec.DecodeStreamAck(body)
		if ents, round = sa.Recv, sa.Round; err == nil && k >= p.in[from] {
			p.c.rep.StreamWire[from] = sa.Wire
		}
	default:
		return fmt.Errorf("net: unexpected record type %d from worker %d, which owes record %d of its streamed run", typ, from, k)
	}
	switch {
	case err != nil:
		return err
	case used != len(body):
		return fmt.Errorf("net: worker %d record %d carries %d trailing bytes", from, k, len(body)-used)
	case round != t:
		return fmt.Errorf("net: worker %d reports round %d in record %d, which is round %d's", from, round, k, t)
	case len(ents) != np-1:
		return fmt.Errorf("net: worker %d reports %d flows in round %d, want %d", from, len(ents), t, np-1)
	case p.last >= 0 && t > p.last:
		return fmt.Errorf("net: worker %d ran past the run's last round %d", from, p.last)
	}
	for i, e := range ents { // the others, ascending
		if (i < from && e.Peer != i) || (i >= from && e.Peer != i+1) {
			return fmt.Errorf("net: worker %d round %d entry %d names peer %d", from, t, i, e.Peer)
		}
	}
	p.seq[from]++
	if k < p.in[from] {
		return nil
	}
	p.in[from]++
	rd := p.round(t)
	if rd.n++; k%2 == 0 {
		rd.sent[from], rd.alive = ents, rd.alive+alive
	} else {
		rd.recv[from] = ents
	}
	return nil
}

// seal closes round t, whose records are all in. The matrix must close: what
// worker w says it received from q is, entry for entry, what q says it sent w —
// a mismatch names w, whose ack is the record that disagrees. Then the ledger
// and trace are priced from the done records — what the relay plane would have
// priced for the same frames — and, under recovery, the frame chains advance:
// worker w's round digest is the ascending-source fold of the flows it received.
func (p *streamCoord) seal(t int) (bytes, flows int64, liar int, err error) {
	rd, c := &p.open[0], p.c
	for w, ents := range rd.recv {
		for _, e := range ents {
			q, slot := e.Peer, w
			if w > q {
				slot-- // q's list skips q itself
			}
			if se := rd.sent[q][slot]; se.Chunks != e.Chunks || se.Msgs != e.Msgs || se.Bytes != e.Bytes || se.Digest != e.Digest {
				return 0, 0, w, fmt.Errorf("net: round %d flow %d→%d mismatch (sent %d chunks %d msgs %d bytes %#x, received %d/%d/%d/%#x)",
					t, q, w, se.Chunks, se.Msgs, se.Bytes, se.Digest, e.Chunks, e.Msgs, e.Bytes, e.Digest)
			}
			bytes += e.Bytes
			flows++
		}
	}
	sm := &c.rep.Sharding
	for w, ents := range rd.sent {
		for _, e := range ents {
			sm.CrossMessages += e.Msgs
			sm.CrossFrameBytes += e.Bytes
			sm.PerShardBytes[w] += e.Bytes
			if e.Msgs > 0 {
				c.spec.Trace.Flow(t, w, e.Peer, e.Bytes, e.Msgs)
			}
		}
	}
	if c.chains != nil {
		for w, ents := range rd.recv {
			dig := frameChainSeed
			for _, e := range ents {
				dig = foldU64(dig, e.Digest)
			}
			c.chains[w] = foldU64(c.chains[w], dig)
		}
	}
	return bytes, flows, -1, nil
}
