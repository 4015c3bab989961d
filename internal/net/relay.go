package net

import (
	"encoding/binary"
	"fmt"
	"math"

	"distkcore/internal/codec"
	"distkcore/internal/shard"
)

// This file is the relay frame plane (DESIGN.md §8.4), both halves: a
// round's cross-shard messages travel as one frame per shard pair on the
// coordinator connection, and the coordinator parks every frame until all P
// done records are in, then forwards each to its destination ahead of the
// release. Everything only relayed delivery needs lives here — retiring the
// plane is deleting this file, its two constructor calls and the record
// numbers recFrame, recDone and recReplay.

// relayWorker is the worker half: one frame per destination going out,
// recFrame records coming in on the control connection.
type relayWorker struct {
	r   *workerLoop
	hdr []byte
	// sent and sentBytes count the frames of the round going out; framesIn
	// the inbound frames of the round in flight; replayLeft the frames a
	// catch-up round still expects (0 outside catch-up).
	sent, framesIn, replayLeft int
	sentBytes                  int64
}

// newRelayWorker makes each outbound stream one chunk per round: it never
// flushes on its own, and finishing it writes the round's frame.
func newRelayWorker(r *workerLoop) *relayWorker {
	p := &relayWorker{r: r}
	w, self := r.w, r.h.Shard
	for q := range r.out {
		if q == self {
			continue
		}
		r.out[q] = &shard.PeerStream{Lam: r.lam, Limit: math.MaxInt, Flush: func(body []byte, count int) error {
			p.hdr = codec.AppendFrameHeader(p.hdr[:0], codec.FrameHeader{Src: self, Dst: q, Round: r.cur, Count: count})
			p.sent, p.sentBytes = p.sent+1, p.sentBytes+int64(len(p.hdr)+len(body))
			return w.c.WriteRecord(recFrame, p.hdr, body)
		}}
	}
	return p
}

// done writes one frame per nonempty destination, then the done record
// announcing how many went out. A replayed round drops what it framed: the
// coordinator has forwarded those frames already.
func (p *relayWorker) done(t, alive int, live bool) (bytes, msgs int64, err error) {
	p.sent, p.sentBytes = 0, 0
	for _, ps := range p.r.out {
		if ps == nil {
			continue
		}
		if live {
			msgs += int64(ps.Msgs)
			if err := ps.Finish(); err != nil {
				return 0, 0, err
			}
		}
		ps.Reset()
	}
	if !live {
		return 0, 0, nil
	}
	var buf [3 * binary.MaxVarintLen64]byte
	done := binary.AppendUvarint(buf[:0], uint64(t))
	done = binary.AppendUvarint(done, uint64(alive))
	done = binary.AppendUvarint(done, uint64(p.sent))
	return p.sentBytes, msgs, p.r.w.c.WriteRecord(recDone, done)
}

func (p *relayWorker) record(typ byte, body []byte) error {
	r := p.r
	switch typ {
	case recFrame:
		fh, k, err := codec.DecodeFrameHeader(body)
		if err != nil {
			return err
		}
		if fh.Dst != r.h.Shard || fh.Src == r.h.Shard || fh.Src < 0 || fh.Src >= r.h.P || fh.Round != r.cur {
			return fmt.Errorf("net: stray frame %+v at shard %d round %d", fh, r.h.Shard, r.cur)
		}
		if r.h.Recover {
			// The chain folds every relayed frame, length then bytes, exactly
			// as the coordinator folds it at seal time.
			r.chain = foldFrame(r.chain, body)
		}
		if err := r.absorb(fh.Src, fh.Round, body[k:], fh.Count); err != nil {
			return err
		}
		p.framesIn++
		if p.replayLeft > 0 {
			// Catch-up: the coordinator announced exactly this many frames
			// for the round; the last one triggers the delivery the original
			// release would have.
			if p.replayLeft--; p.replayLeft == 0 {
				return r.finish(r.cur, false, nil)
			}
		}
		return nil
	case recReplay:
		rp, err := r.replay(body)
		if err != nil {
			return err
		}
		if p.replayLeft = rp.Frames; rp.Frames == 0 {
			return r.finish(r.cur, false, nil)
		}
		return nil
	}
	return fmt.Errorf("net: unexpected record type %d at worker", typ)
}

// inbound has nothing to wait for — the frames precede the release on the
// same connection — but holds the release to the round in flight and the
// count that arrived.
func (p *relayWorker) inbound(t int, live bool, rel []byte) error {
	if live {
		var round, nf int
		if err := uvarints("deliver", rel, &round, &nf); err != nil {
			return err
		}
		if round != t || nf != p.framesIn {
			return fmt.Errorf("net: deliver(round %d, %d frames) but worker is at round %d with %d frames in", round, nf, t, p.framesIn)
		}
	}
	p.framesIn = 0
	return nil
}

// frameRec is one parked cross-shard frame: the full record body (header +
// messages) plus its source and message count, so a dead worker's parked
// contribution can be discarded with an exact ledger undo.
type frameRec struct {
	src, count int
	body       []byte
}

// relayCoord is the coordinator half: park, forward, retain.
type relayCoord struct {
	c          *coordinator
	park       [][]frameRec // park[q] = round's frames parked for worker q
	framesFrom []int
	// hist[q][t] is what round t forwarded to worker q, kept for the whole
	// run under recovery: a respawned q replays from Init out of it.
	hist     [][][]frameRec
	bytes, n int64 // forwarded this round
}

func (p *relayCoord) volume() (int64, int64) { return p.bytes, p.n }

func (p *relayCoord) begin(int) {
	np := p.c.hub.P()
	p.park, p.framesFrom = make([][]frameRec, np), make([]int, np)
	p.bytes, p.n = 0, 0
}

func (p *relayCoord) record(t, from int, typ byte, body []byte) (bool, int, error) {
	switch typ {
	case recFrame:
		fh, _, err := codec.DecodeFrameHeader(body)
		if err != nil {
			return false, 0, err
		}
		if fh.Src != from || fh.Dst < 0 || fh.Dst >= len(p.park) || fh.Dst == fh.Src || fh.Round != t || fh.Count <= 0 {
			return false, 0, fmt.Errorf("net: invalid frame %+v from worker %d in round %d", fh, from, t)
		}
		// The relayed record body is byte-for-byte the frame (header +
		// messages), so the ledger prices exactly what internal/shard's
		// engine prices for the same run.
		sm := &p.c.rep.Sharding
		sm.CrossMessages += int64(fh.Count)
		sm.CrossFrameBytes += int64(len(body))
		sm.PerShardBytes[from] += int64(len(body))
		p.c.spec.Trace.Flow(t, from, fh.Dst, int64(len(body)), int64(fh.Count))
		p.framesFrom[from]++
		p.park[fh.Dst] = append(p.park[fh.Dst], frameRec{src: from, count: fh.Count, body: body})
		return false, 0, nil
	case recDone:
		var round, alive, sent int
		if err := uvarints("done", body, &round, &alive, &sent); err != nil {
			return false, 0, err
		}
		if round != t {
			return false, 0, fmt.Errorf("net: worker %d done for round %d during round %d", from, round, t)
		}
		if sent != p.framesFrom[from] {
			return false, 0, fmt.Errorf("net: worker %d announced %d frames, %d arrived", from, sent, p.framesFrom[from])
		}
		return true, alive, nil
	}
	return false, 0, fmt.Errorf("net: unexpected record type %d from worker %d in round %d", typ, from, t)
}

// discard removes the frames a dead worker parked, with an exact ledger
// undo.
func (p *relayCoord) discard(w int) {
	sm := &p.c.rep.Sharding
	for q := range p.park {
		kept := p.park[q][:0]
		for _, fr := range p.park[q] {
			if fr.src == w {
				sm.CrossMessages -= int64(fr.count)
				sm.CrossFrameBytes -= int64(len(fr.body))
				sm.PerShardBytes[w] -= int64(len(fr.body))
				continue
			}
			kept = append(kept, fr)
		}
		p.park[q] = kept
	}
	p.framesFrom[w] = 0
}

func (p *relayCoord) seal(t int) error {
	if !p.c.spec.Recover {
		return nil
	}
	for q, frames := range p.park {
		for _, fr := range frames {
			p.c.chains[q] = foldFrame(p.c.chains[q], fr.body)
		}
		p.hist[q] = append(p.hist[q], frames)
	}
	return nil
}

// release forwards worker q's parked frames, then the deliver record
// carrying their count.
func (p *relayCoord) release(t, q int) (bool, error) {
	cn := p.c.hub.Conn(q)
	var bytes int64
	for _, fr := range p.park[q] {
		if err := cn.WriteRecord(recFrame, fr.body); err != nil {
			return false, err
		}
		bytes += int64(len(fr.body))
	}
	var buf [2 * binary.MaxVarintLen64]byte
	del := binary.AppendUvarint(buf[:0], uint64(t))
	del = binary.AppendUvarint(del, uint64(len(p.park[q])))
	if err := cn.WriteRecord(recDeliver, del); err != nil {
		return false, err
	}
	if err := cn.Flush(); err != nil {
		return false, err
	}
	p.bytes, p.n = p.bytes+bytes, p.n+int64(len(p.park[q]))
	return false, nil
}

// replay re-forwards one retained round: the announcement, then exactly the
// frames the dead incarnation was sent.
func (p *relayCoord) replay(cn *Conn, w, t int) (bytes, items int64, err error) {
	frames := p.hist[w][t]
	if err := cn.WriteRecord(recReplay, codec.AppendReplay(nil, codec.Replay{Round: t, Frames: len(frames)})); err != nil {
		return 0, 0, err
	}
	for _, fr := range frames {
		if err := cn.WriteRecord(recFrame, fr.body); err != nil {
			return 0, 0, err
		}
		bytes += int64(len(fr.body))
	}
	return bytes, int64(len(frames)), nil
}
