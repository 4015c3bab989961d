package net

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/quantize"
)

// Record types. Every record is codec.AppendRecord framing around a payload
// whose first byte is one of these; the rest of the payload is the record
// body (DESIGN.md §8 specifies each body's layout, §10 the session types).
// Every body but the error record's text has one Append/Decode pair — in
// internal/codec, or internal/session for the epoch records — whose decode
// consumes it whole, and the root FuzzRecordBodies has one row for each
// constant here. 11 was the delta record of the one-shot churned run; like
// 19–22, 25 and 26 it is retired, not reused.
const (
	recHello   = byte(1)  // coordinator→worker: codec.Hello
	recWelcome = byte(2)  // worker→coordinator: codec.Welcome
	recStep    = byte(3)  // coordinator→worker: codec.AppendStep (streamed: the one go record, round 0)
	recFrame   = byte(4)  // both directions: codec.FrameHeader + message bodies
	recDone    = byte(5)  // worker→coordinator: codec.Done
	recDeliver = byte(6)  // coordinator→worker: codec.Deliver (relay plane only)
	recFinish  = byte(7)  // coordinator→worker: codec.Finish
	recMetrics = byte(8)  // worker→coordinator: codec.Metrics
	recValues  = byte(9)  // worker→coordinator: codec.AppendValues
	recError   = byte(10) // either direction: UTF-8 message; aborts the run
)

// Streamed-delivery record types (DESIGN.md §14), spoken only when
// Hello.Stream armed them. recStreamDone and recStreamAck travel on the
// coordinator connection; recMeshHello..recWindow travel on the mesh data
// connections between workers.
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
	// recMeshHello opens a mesh connection: dialer→acceptor, codec.MeshHello
	// (src shard, generation).
	recMeshHello = byte(27)
	// recPeerFrame is one streamed chunk: codec.PeerFrame header followed by
	// Count shard.AppendMessage bodies.
	recPeerFrame = byte(28)
	// recWindow is a codec.Window record: the end-of-flow marker of a
	// (src, dst, round) flow, with its sender's alive count.
	recWindow = byte(29)
)

// Session record types (DESIGN.md §10): the long-lived epoch protocol a
// session's workers speak after its hello instead of a run — the one way a
// delta reaches a cluster. They are exported — unlike the run records
// above — because internal/session speaks them itself over Conn's record IO
// rather than through this package's run loop; the number space is one
// table.
const (
	// RecDeltaPush streams one churn batch. Coordinator→worker the body is
	// uvarint epoch ++ shard.AppendDelta(budget, batch); client→coordinator
	// the epoch field is 0 ("assign the next epoch").
	RecDeltaPush = byte(12)
	// RecReconverge is the worker's epoch reply, the one record an epoch
	// sends back — epoch 0's answers the hello: the codec.Stamp the worker
	// arrived at (epoch, graph hash, partition, values and chain digests,
	// moved count), then the changed values of the worker's own shard.
	RecReconverge = byte(13)
	// RecValuesDigest carries a codec.Stamp: coordinator→worker as a
	// respawned worker's admission at the last sealed epoch,
	// worker→coordinator as its verify echo, coordinator→client as the push
	// receipt.
	RecValuesDigest = byte(14)
	// RecSubscribe registers topics: client→coordinator the body is a topic
	// list (session.AppendSubscribe); the echo back carries the assigned
	// subscriber ID (session.AppendSubscribeEcho).
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
	// RecHello and RecError re-export the run protocol's hello and error
	// records for session endpoints: a session opens with the hello
	// (Hub.Hello) as a run does, and an error record aborts whatever exchange
	// is in flight in both protocols.
	RecHello, RecError = recHello, recError
)

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
// A mesh link is the exception both ways: its reader takes its read buffer
// from a free list and hands it back once it reads no more (takeReadBuf,
// putReadBuf), and its writer hands writeRecords whole records already in
// wire form — the mesh's retained log — so it has no write buffer.
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
	// kept is what a streamed worker keeps up past its run — its mesh — until
	// the first record read after the run returns or the connection closes
	// (keepUntilRead).
	kept atomic.Pointer[func()]
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
// use it to abort), releasing what the worker on it kept.
func (c *Conn) Close() error {
	err := c.nc.Close()
	c.release()
	return err
}

// keepUntilRead hands c what a worker keeps up past its run (a streamed
// worker's mesh, DESIGN.md §13): release runs once, when the next record read
// returns — the coordinator's next record, or its hang-up — or when c closes.
func (c *Conn) keepUntilRead(release func()) { c.kept.Store(&release) }

// release runs what keepUntilRead handed c, once.
func (c *Conn) release() {
	if f := c.kept.Swap(nil); f != nil {
		(*f)()
	}
}

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
	typ, body, err = c.rawReadRecord()
	c.release()
	return typ, body, err
}

// rawReadRecord is ReadRecord without touching the deadline. Framing and
// limits are codec.ReadRecord's: a uvarint payload length capped at
// codec.MaxRecord. A link that ends or fails between records — no byte of the
// next one read, as every link does at a run's teardown — returns the
// connection's error untouched, io.EOF included; a record cut short is a
// wrapped error.
func (c *Conn) rawReadRecord() (typ byte, body []byte, err error) {
	// The length prefix: parse what is buffered, read on while it is cut short.
	var n uint64
	var k int
	for need := 1; k == 0; need = c.w - c.r + 1 {
		if err := c.fill(need); err != nil {
			if need == 1 {
				return 0, nil, err
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

// readBufs is the free list of mesh links' read buffers: a link's reader
// takes one before its first read and releases it once it reads no more, so a
// run's links read into the buffers the last run's grew (DESIGN.md §8.1).
var readBufs dist.FreeList[[]byte]

// takeReadBuf gives c the largest released read buffer, if one is free and c
// has none yet. Only the goroutine that reads c calls it.
func (c *Conn) takeReadBuf() {
	if c.rb != nil {
		return
	}
	if b := readBufs.Take(func(b *[]byte) (int, int) { return -cap(*b), 0 }); b != nil {
		c.rb = *b
	}
}

// putReadBuf releases c's read buffer to the next mesh link. The goroutine
// that reads c calls it once it will read no more: Close alone must not,
// because a Read may still be filling the buffer.
func (c *Conn) putReadBuf() {
	if c.rb == nil {
		return
	}
	b := c.rb
	c.rb, c.r, c.w = nil, 0, 0
	readBufs.Put(&b)
}

// AwaitRecord is ReadRecord minus the deadline: it clears any read deadline
// first, so it can park indefinitely. Session endpoints use it at epoch
// boundaries — a worker waiting for the next delta push, a server waiting
// for the next client record — where silence is idleness, not death.
func (c *Conn) AwaitRecord() (typ byte, body []byte, err error) {
	if c.timeout > 0 {
		c.nc.SetReadDeadline(time.Time{})
	}
	typ, body, err = c.rawReadRecord()
	c.release()
	return typ, body, err
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
	err := c.writeRecords(c.wb)
	c.wb = c.wb[:0]
	return err
}

// writeRecords writes records — whole, each in its wire form: uvarint
// length, type byte, body — to the connection in one Write, arming the write
// deadline. It bypasses the write buffer, so it must not be mixed with
// unflushed WriteRecord calls.
func (c *Conn) writeRecords(recs []byte) error {
	if c.timeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	_, err := c.nc.Write(recs)
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
	h, err := codec.DecodeHello(body)
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
