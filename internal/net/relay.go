package net

import (
	"encoding/binary"
	"fmt"
	"math"

	"distkcore/internal/codec"
)

// This file is the relay frame plane (DESIGN.md §8.4), both halves: a
// round's cross-shard messages travel as one frame per shard pair on the
// coordinator connection, and the coordinator parks every frame until all P
// done records are in, then forwards each to its destination ahead of the
// release. Everything only relayed delivery needs lives here — retiring the
// plane is deleting this file, its two constructor calls and the record
// numbers recFrame, recDone and recDeliver.

// relayWorker is the worker half: one frame per destination going out,
// recFrame records coming in on the control connection.
type relayWorker struct {
	r   *workerLoop
	hdr []byte
	// sent and sentBytes count the frames of the round going out; framesIn
	// the inbound frames of the round in flight.
	sent, framesIn int
	sentBytes      int64
}

// newRelayWorker makes each outbound stream one chunk per round: it never
// flushes on its own, and finishing it writes the round's frame. Each stream's
// buffer is sized once from the fan-out rows, as on the mesh.
func newRelayWorker(r *workerLoop) *relayWorker {
	p := &relayWorker{r: r}
	w, self := r.w, r.h.Shard
	rows := r.loc.Fan.Rows(r.h.P)
	for q, ps := range r.loc.Out {
		if ps == nil {
			continue
		}
		ps.Limit = math.MaxInt
		ps.Flush = func(body []byte, count int) error {
			p.hdr = codec.AppendFrameHeader(p.hdr[:0], codec.FrameHeader{Src: self, Dst: q, Round: r.cur, Count: count})
			p.sent, p.sentBytes = p.sent+1, p.sentBytes+int64(len(p.hdr)+len(body))
			return w.c.WriteRecord(recFrame, p.hdr, body)
		}
		ps.Reserve(rows[q], len(w.assign))
	}
	return p
}

// done writes one frame per nonempty destination, then the done record
// announcing how many went out.
func (p *relayWorker) done(t, alive int) (bytes, msgs int64, err error) {
	p.sent, p.sentBytes = 0, 0
	for _, ps := range p.r.loc.Out {
		if ps == nil {
			continue
		}
		msgs += int64(ps.Msgs)
		if err := ps.Finish(); err != nil {
			return 0, 0, err
		}
		ps.Reset()
	}
	var buf [3 * binary.MaxVarintLen64]byte
	done := codec.AppendDone(buf[:0], codec.Done{Round: t, Alive: alive, Frames: p.sent})
	return p.sentBytes, msgs, p.r.w.c.WriteRecord(recDone, done)
}

func (p *relayWorker) record(typ byte, body []byte) error {
	r := p.r
	if typ != recFrame {
		return fmt.Errorf("net: unexpected record type %d at worker", typ)
	}
	fh, k, err := codec.DecodeFrameHeader(body)
	if err != nil {
		return err
	}
	if fh.Dst != r.h.Shard || fh.Src == r.h.Shard || fh.Src >= r.h.P || fh.Round != r.cur {
		return fmt.Errorf("net: stray frame %+v at shard %d round %d", fh, r.h.Shard, r.cur)
	}
	if err := r.loc.Absorb(fh.Src, fh.Round, body[k:], fh.Count); err != nil {
		return err
	}
	p.framesIn++
	return nil
}

// inbound has nothing to wait for — the frames precede the release on the
// same connection — but holds the release to the round in flight and the
// count that arrived.
func (p *relayWorker) inbound(t int, rel []byte) error {
	dl, err := codec.DecodeDeliver(rel)
	if err != nil {
		return err
	}
	if dl.Round != t || dl.Frames != p.framesIn {
		return fmt.Errorf("net: deliver(round %d, %d frames) but worker is at round %d with %d frames in", dl.Round, dl.Frames, t, p.framesIn)
	}
	p.framesIn = 0
	return nil
}

// relayCoord is the coordinator half: park, then forward.
type relayCoord struct {
	c *coordinator
	// park[q] holds the round's frames parked for worker q, each a full record
	// body (header + messages).
	park       [][][]byte
	framesFrom []int
	bytes, n   int64 // forwarded this round
}

func (p *relayCoord) volume() (int64, int64) { return p.bytes, p.n }

func (p *relayCoord) begin(int) {
	np := p.c.hub.P()
	p.park, p.framesFrom = make([][][]byte, np), make([]int, np)
	p.bytes, p.n = 0, 0
}

func (p *relayCoord) record(t, from int, typ byte, body []byte) (bool, int, error) {
	switch typ {
	case recFrame:
		fh, k, err := codec.DecodeFrameHeader(body)
		if err != nil {
			return false, 0, err
		}
		// Every message body takes at least a byte: a count the frame cannot
		// hold is refused here, not parked for its receiver to find out.
		if fh.Src != from || fh.Dst >= len(p.park) || fh.Dst == fh.Src || fh.Round != t || fh.Count <= 0 || fh.Count > len(body)-k {
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
		p.park[fh.Dst] = append(p.park[fh.Dst], body)
		return false, 0, nil
	case recDone:
		dn, err := codec.DecodeDone(body)
		if err != nil {
			return false, 0, err
		}
		if dn.Round != t {
			return false, 0, fmt.Errorf("net: worker %d done for round %d during round %d", from, dn.Round, t)
		}
		if dn.Frames != p.framesFrom[from] {
			return false, 0, fmt.Errorf("net: worker %d announced %d frames, %d arrived", from, dn.Frames, p.framesFrom[from])
		}
		return true, dn.Alive, nil
	}
	return false, 0, fmt.Errorf("net: unexpected record type %d from worker %d in round %d", typ, from, t)
}

// release forwards worker q's parked frames, then the deliver record
// carrying their count.
func (p *relayCoord) release(t, q int) error {
	cn := p.c.hub.Conn(q)
	var bytes int64
	for _, fr := range p.park[q] {
		if err := cn.WriteRecord(recFrame, fr); err != nil {
			return err
		}
		bytes += int64(len(fr))
	}
	var buf [2 * binary.MaxVarintLen64]byte
	del := codec.AppendDeliver(buf[:0], codec.Deliver{Round: t, Frames: len(p.park[q])})
	if err := cn.WriteRecord(recDeliver, del); err != nil {
		return err
	}
	if err := cn.Flush(); err != nil {
		return err
	}
	p.bytes, p.n = p.bytes+bytes, p.n+int64(len(p.park[q]))
	return nil
}
