package net

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
)

// Record types. Every record is codec.AppendRecord framing around a payload
// whose first byte is one of these; the rest of the payload is the record
// body (DESIGN.md §8 specifies each body's layout, §10 the session types).
// 11 was the delta record of the one-shot churned run; like 19 and 20 it is
// retired, not reused.
const (
	recHello   = byte(1)  // coordinator→worker: codec.Hello
	recWelcome = byte(2)  // worker→coordinator: codec.Welcome
	recStep    = byte(3)  // coordinator→worker: uvarint round (streamed: the one go record, round 0)
	recFrame   = byte(4)  // both directions: codec.FrameHeader + message bodies
	recDone    = byte(5)  // worker→coordinator: uvarint round, alive, framesSent
	recDeliver = byte(6)  // coordinator→worker: uvarint round, framesRelayed (relay plane only)
	recFinish  = byte(7)  // coordinator→worker: uvarint rounds, halted byte
	recMetrics = byte(8)  // worker→coordinator: uvarint messages, words, wireBytes, then the 8-byte frame chain
	recValues  = byte(9)  // worker→coordinator: uvarint count, then (uvarint node, 8-byte bits)*
	recError   = byte(10) // either direction: UTF-8 message; aborts the run
)

// Crash-recovery record types (DESIGN.md §13), spoken only when
// Hello.Recover armed them. They share the run records' number space but
// sit after the exported session block, so the table stays append-only
// (19 and 20 were the checkpoint and resume records of the restart scheme
// replay-from-Init replaced).
const (
	// recReplay announces one replayed round to a respawned worker, which
	// replays the run from Init: coordinator→worker, codec.Replay; exactly
	// Frames recFrame records for that round follow.
	recReplay = byte(21)
	// RecEpochResume re-admits a session worker between epochs:
	// coordinator→worker, body is the codec.Stamp of the last sealed epoch;
	// the worker recomputes its state from the current graph, verifies the
	// stamp, and echoes it byte-identically (DESIGN.md §13). Exported with
	// the session records because internal/session speaks it itself.
	RecEpochResume = byte(22)
)

// Streamed-delivery record types (DESIGN.md §14), spoken only when
// Hello.Stream armed them. recStreamDone and recStreamAck travel on the
// coordinator connection; recMeshHello..recWindow travel on the mesh data
// connections between workers. 25 and 26, the resend instruction and replay
// announcement of a streamed recovery, are retired like 11, 19 and 20.
const (
	// recStreamDone reports a streamed round's sends: worker→coordinator,
	// codec.StreamDone (round, alive, per-peer sent digests), written once the
	// round's flows are ended; nothing answers it.
	recStreamDone = byte(23)
	// recStreamAck reports a streamed round's delivery: worker→coordinator,
	// codec.StreamAck (per-peer recv digests + cumulative wire counters). The
	// coordinator verifies sent[a][b] == recv[b][a] across the matrix once the
	// round's 2P records are in.
	recStreamAck = byte(24)
	// recMeshHello opens a mesh connection: dialer→acceptor, body is uvarint
	// src shard, generation. Generation lets a receiver prefer the link of a
	// respawned incarnation over a stale one.
	recMeshHello = byte(27)
	// recPeerFrame is one streamed chunk: codec.PeerFrame header followed by
	// Count shard.AppendMessage bodies.
	recPeerFrame = byte(28)
	// recWindow is a codec.Window record: a flow-control credit grant or an
	// end-of-flow marker (which carries credits too, and its sender's alive
	// count).
	recWindow = byte(29)
)

// Session record types (DESIGN.md §10): the long-lived epoch protocol spoken
// after a run finishes instead of hanging up — the one way a delta reaches a
// cluster. They are exported — unlike the run records
// above — because internal/session speaks them itself over Conn's record IO
// rather than through this package's run loop; the number space is one
// table.
const (
	// RecDeltaPush streams one churn batch. Coordinator→worker the body is
	// uvarint epoch ++ shard.AppendDelta(budget, batch); client→coordinator
	// the epoch field is 0 ("assign the next epoch").
	RecDeltaPush = byte(12)
	// RecReconverge is the worker's epoch reply: uvarint epoch, post-churn
	// graph fingerprint and rebalanced partition digest (8 bytes each), then
	// the changed values of the worker's own shard.
	RecReconverge = byte(13)
	// RecValuesDigest carries a codec.Stamp sealing one epoch: coordinator→
	// worker as the commit broadcast, worker→coordinator as the verify echo,
	// coordinator→client as the push receipt.
	RecValuesDigest = byte(14)
	// RecSubscribe registers topics: client→coordinator the body is a topic
	// list; the echo back carries the assigned subscriber ID.
	RecSubscribe = byte(15)
	// RecNotify ships one subscription notification (session.AppendNotify).
	RecNotify = byte(16)
	// RecBye ends a session cleanly; the body is an optional reason ("" for
	// a plain goodbye, "shutdown" from a client asks the server to stop).
	RecBye = byte(17)
	// RecStat queries a live session: client→coordinator the body is empty,
	// the reply carries a codec.Stat snapshot (epoch, chain digest,
	// subscriber and push totals, timing, break cause).
	RecStat = byte(18)
	// RecError re-exports the run protocol's error record for session
	// endpoints: error records abort whatever exchange is in flight in both
	// protocols.
	RecError = recError
)

// uvarints decodes a record body that is exactly len(dst) uvarints — the
// shape of the run records with no codec type of their own (step, done,
// deliver, mesh-hello) — through the same latching
// codec.Decoder every other body goes through: a truncated body, trailing
// bytes or a field past int range is one error naming the record.
func uvarints(rec string, body []byte, dst ...*int) error {
	d := codec.NewDecoder(body)
	for _, p := range dst {
		if *p = int(d.Uvarint()); *p < 0 {
			d.Fail(fmt.Errorf("negative field from oversized uvarint"))
		}
	}
	return bodyErr(rec, d)
}

// bodyErr ends the decode of a record body that must be consumed whole.
func bodyErr(rec string, d *codec.Decoder) error {
	if err := d.Finish(); err != nil {
		return fmt.Errorf("net: bad %s record: %w", rec, err)
	}
	return nil
}

// decodeMetrics decodes a metrics record body: the worker's share of the
// protocol counters, then the frame chain over everything it received.
func decodeMetrics(body []byte) (msgs, words, wire int64, chain uint64, err error) {
	d := codec.NewDecoder(body)
	msgs, words, wire, chain = int64(d.Uvarint()), int64(d.Uvarint()), int64(d.Uvarint()), d.U64()
	if msgs|words|wire < 0 {
		d.Fail(fmt.Errorf("negative field from oversized uvarint"))
	}
	return msgs, words, wire, chain, bodyErr("metrics", d)
}

// decodeValues appends the (node, value bits) pairs of a values record body
// to dst.
func decodeValues(dst []NodeValue, body []byte) ([]NodeValue, error) {
	d := codec.NewDecoder(body)
	cnt := d.Uvarint()
	// A pair is at least 9 bytes, so a lying count fails before the loop runs
	// on its say-so.
	if cnt > uint64(d.Rest())/9 {
		d.Fail(fmt.Errorf("count %d exceeds the %d bytes that follow", cnt, d.Rest()))
		cnt = 0
	}
	for ; cnt > 0; cnt-- {
		dst = append(dst, NodeValue{Node: graph.NodeID(d.Uvarint()), Bits: d.U64()})
	}
	return dst, bodyErr("values", d)
}

// Conn wraps one connection — coordinator↔worker, worker↔worker on the mesh,
// server↔client — with buffered record IO. It is not safe for concurrent use
// of the same direction; the coordinator reads each Conn from one goroutine
// and writes it from another, which is fine because the read and write paths
// share no state.
//
// Each direction has one buffer, allocated on first use at connBufMin and
// grown to what crosses it (DESIGN.md §8.1): a record is parsed where the
// connection's Read put it and assembled where Write takes it from, so a
// buffer is as large as the largest record — or, writing, the largest run of
// records between two flushes up to connFlushAt — the link has carried, and a
// link that only ever carries barrier records stays at a few hundred bytes.
type Conn struct {
	nc net.Conn
	// rb[r:w] is read and not yet returned; ReadRecord's body aliases it.
	rb   []byte
	r, w int
	wb   []byte // records written since the last flush
	// timeout, when non-zero, arms a read deadline before every record read
	// and a write deadline before every write to the connection
	// (SetIOTimeout).
	timeout time.Duration
}

const (
	// connBufMin is the size a direction's buffer starts at. Every barrier
	// record of a run (step, done, release, ack: under 150 bytes at P = 4)
	// fits with room to batch, and a run has P·(P−1) mesh ends and 2P control
	// ends, most of them idle most of the time: at 512 bytes a direction they
	// cost P·(P+1) KiB.
	connBufMin = 512
	// connFlushAt is how much WriteRecord lets accumulate before it writes
	// the buffer out itself: a sender that queues a round of frames before
	// its Flush (the relay's coordinator) holds a syscall's worth of them,
	// not the round.
	connFlushAt = 64 << 10
)

// NewConn wraps nc for record IO. The caller keeps ownership of nc's
// lifetime; Close closes it.
func NewConn(nc net.Conn) *Conn { return &Conn{nc: nc} }

// Close closes the underlying connection (without flushing — error paths
// use it to abort).
func (c *Conn) Close() error { return c.nc.Close() }

// SetIOTimeout installs a per-operation deadline: every subsequent record
// read gets a read deadline of d, every record write/flush a write deadline
// of d. Zero (the default) disables deadlines. Deadlines are what turns
// "determinism over availability" into fail-fast instead of hang-forever: a
// dead peer surfaces as a timeout error that aborts the run, rather than
// parking the coordinator on a read for good. Reads that legitimately wait
// for an unbounded time — a session worker idling between epochs, a server
// awaiting client pushes — go through AwaitRecord, which ignores d.
func (c *Conn) SetIOTimeout(d time.Duration) { c.timeout = d }

// ReadRecord reads one record and splits off the type byte, arming the
// read deadline when SetIOTimeout configured one. The returned body aliases
// an internal buffer valid until the next read — decode before reading
// again.
func (c *Conn) ReadRecord() (typ byte, body []byte, err error) {
	if c.timeout > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.timeout))
	}
	return c.rawReadRecord()
}

// rawReadRecord is ReadRecord without touching the deadline. Framing and
// limits are codec.ReadRecord's: a uvarint payload length capped at
// codec.MaxRecord, io.EOF untouched when the stream ends between records.
func (c *Conn) rawReadRecord() (typ byte, body []byte, err error) {
	// The length prefix: parse what is buffered, read on while it is cut short.
	var n uint64
	var k int
	for need := 1; k == 0; need = c.w - c.r + 1 {
		if err := c.fill(need); err != nil {
			if err == io.EOF && need == 1 {
				return 0, nil, io.EOF
			}
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, fmt.Errorf("codec: record length: %w", err)
		}
		if n, k = binary.Uvarint(c.rb[c.r:c.w]); k < 0 {
			return 0, nil, fmt.Errorf("codec: record length: uvarint overflows 64 bits")
		}
	}
	if n > codec.MaxRecord {
		return 0, nil, fmt.Errorf("codec: record of %d bytes exceeds limit %d", n, codec.MaxRecord)
	}
	if n == 0 {
		c.r += k
		return 0, nil, fmt.Errorf("net: empty record")
	}
	if err := c.fill(k + int(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("codec: truncated record: %w", err)
	}
	payload := c.rb[c.r+k : c.r+k+int(n)]
	c.r += k + int(n)
	return payload[0], payload[1:], nil
}

// fill reads from the connection until at least need bytes are unread in the
// buffer, first making room for them: the unread bytes move to the front
// when the tail is too short, and the buffer grows — by a quarter more than
// asked, so a flow whose records creep up in size does not reallocate for
// each — when need exceeds it. It returns the connection's error, io.EOF
// untouched, if that comes first.
func (c *Conn) fill(need int) error {
	if c.w-c.r >= need {
		return nil
	}
	if c.r == c.w {
		c.r, c.w = 0, 0
	}
	if need > len(c.rb) {
		nb := make([]byte, max(connBufMin, need+need/4))
		c.w = copy(nb, c.rb[c.r:c.w])
		c.r, c.rb = 0, nb
	} else if c.r+need > len(c.rb) {
		c.w = copy(c.rb, c.rb[c.r:c.w])
		c.r = 0
	}
	for c.w-c.r < need {
		n, err := c.nc.Read(c.rb[c.w:])
		c.w += n
		if err != nil && c.w-c.r < need {
			return err
		}
	}
	return nil
}

// AwaitRecord is ReadRecord minus the deadline: it clears any read deadline
// first, so it can park indefinitely. Session endpoints use it at epoch
// boundaries — a worker waiting for the next delta push, a server waiting
// for the next client record — where silence is idleness, not death.
func (c *Conn) AwaitRecord() (typ byte, body []byte, err error) {
	if c.timeout > 0 {
		c.nc.SetReadDeadline(time.Time{})
	}
	return c.rawReadRecord()
}

// WriteRecord buffers one record of the given type; chunks are
// concatenated into the body. The payload length is known up front, so the
// whole record — uvarint length, type byte, chunks — is assembled in place
// in the write buffer (frames are the wire hot path; no intermediate copy),
// and the chunks are the caller's again when it returns. Call Flush before
// switching to reads.
func (c *Conn) WriteRecord(typ byte, chunks ...[]byte) error {
	total := 1
	for _, ch := range chunks {
		total += len(ch)
	}
	if c.wb == nil {
		c.wb = make([]byte, 0, max(connBufMin, total+binary.MaxVarintLen64))
	}
	c.wb = binary.AppendUvarint(c.wb, uint64(total))
	c.wb = append(c.wb, typ)
	for _, ch := range chunks {
		c.wb = append(c.wb, ch...)
	}
	if len(c.wb) >= connFlushAt {
		return c.Flush()
	}
	return nil
}

// Flush writes the buffered records to the connection.
func (c *Conn) Flush() error {
	if len(c.wb) == 0 {
		return nil
	}
	if c.timeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	_, err := c.nc.Write(c.wb)
	c.wb = c.wb[:0]
	return err
}

// Send writes one record and flushes it — the whole of most exchanges.
func (c *Conn) Send(typ byte, chunks ...[]byte) error {
	if err := c.WriteRecord(typ, chunks...); err != nil {
		return err
	}
	return c.Flush()
}

// SendError best-effort ships an error record to the peer so it can abort
// with a reason instead of a bare broken connection.
func (c *Conn) SendError(err error) { _ = c.Send(recError, []byte(err.Error())) }

// ReadHello reads the coordinator's handshake record from c. cmd/cluster's
// worker calls it first, so it can resolve the graph, partition and
// protocol the hello describes before constructing the Worker (whose Run
// then skips the read — set Worker.Hello to the returned record).
func ReadHello(c *Conn) (*codec.Hello, error) {
	typ, body, err := c.ReadRecord()
	if err != nil {
		return nil, fmt.Errorf("net: reading hello: %w", err)
	}
	if typ == recError {
		return nil, fmt.Errorf("net: coordinator error: %s", body)
	}
	if typ != recHello {
		return nil, fmt.Errorf("net: expected hello record, got type %d", typ)
	}
	h, _, err := codec.DecodeHello(body)
	if err != nil {
		return nil, err
	}
	return &h, nil
}

// lambdaFields maps a threshold set to its handshake encoding.
func lambdaFields(lam quantize.Lambda) (kind byte, l float64, name string) {
	switch v := lam.(type) {
	case nil, quantize.Reals:
		return codec.LamReals, 0, ""
	case quantize.PowerGrid:
		return codec.LamPowerGrid, v.L, ""
	default:
		return codec.LamOpaque, 0, lam.Name()
	}
}

// LambdaFromHello reconstructs the threshold set a hello describes. Opaque
// lambdas have no wire form — only in-process workers, which share the
// coordinator's value directly, can run them.
func LambdaFromHello(h *codec.Hello) (quantize.Lambda, error) {
	switch h.LamKind {
	case codec.LamReals:
		return quantize.Reals{}, nil
	case codec.LamPowerGrid:
		return quantize.NewPowerGrid(h.LamL), nil
	default:
		return nil, fmt.Errorf("net: threshold set %q has no wire form; run it in-process", h.LamName)
	}
}

// lambdaMatches checks that the worker's threshold set agrees with the
// hello's description of the coordinator's.
func lambdaMatches(h *codec.Hello, lam quantize.Lambda) error {
	kind, l, name := lambdaFields(lam)
	if kind != h.LamKind || l != h.LamL || name != h.LamName {
		return fmt.Errorf("net: threshold-set mismatch: coordinator kind=%d λ=%g %q, worker kind=%d λ=%g %q",
			h.LamKind, h.LamL, h.LamName, kind, l, name)
	}
	return nil
}
