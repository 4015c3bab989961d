package codec

// This file carries the transport-layer encodings the real-socket cluster
// engine (internal/net) speaks: the length-prefixed record framing, the
// Decoder every record body is read through, and the run records' bodies
// (hello through values). Every whole body has one Append/Decode pair — here,
// beside its kind (stream.go, stamp.go, stat.go) or in internal/session — and
// every Decode ends in Decoder.Finish; only the frame and peer-frame headers,
// which a payload of shard message bodies follows, report what they consumed.
// DESIGN.md §8 is the normative wire-protocol spec; FuzzRecordBodies holds
// every record's body to one round trip.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// MaxRecord is the default cap a record reader enforces on one record's
// payload length. Frames carry at most one round of one shard pair's
// traffic, so legitimate records stay far below it; a corrupt or hostile
// length prefix fails fast instead of driving a huge allocation.
const MaxRecord = 1 << 26 // 64 MiB

// AppendRecord appends the record framing of payload to dst: a uvarint
// payload length followed by the payload bytes.
func AppendRecord(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// ByteStream is the reader shape ReadRecord consumes: a stream with
// single-byte reads for the uvarint length prefix (bufio.Reader satisfies
// it).
type ByteStream interface {
	io.Reader
	io.ByteReader
}

// ReadRecord reads one length-prefixed record from r, reusing buf when it
// is large enough, and returns the payload. limit caps the accepted payload
// length (0 means MaxRecord). io.EOF is returned untouched when the stream
// ends cleanly before the length prefix; any other truncation is an error.
func ReadRecord(r ByteStream, buf []byte, limit int) ([]byte, error) {
	if limit <= 0 {
		limit = MaxRecord
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("codec: record length: %w", err)
	}
	if n > uint64(limit) {
		return nil, fmt.Errorf("codec: record of %d bytes exceeds limit %d", n, limit)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("codec: truncated record: %w", err)
	}
	return buf, nil
}

// Threshold-set kinds a Hello can describe. Only Reals and PowerGrid have a
// wire form; any other quantize.Lambda is Opaque — the handshake then only
// verifies that both sides agree on its Name, which is all an in-process
// transport (whose workers share the coordinator's Lambda value) needs.
const (
	LamReals     = 0 // Λ = ℝ (also the nil Lambda)
	LamPowerGrid = 1 // powers of (1+λ); LamL carries λ
	LamOpaque    = 2 // any other Lambda; LamName carries its Name()
)

// Hello is the coordinator→worker handshake record: everything a worker
// needs to verify — or, in a separate process, to reconstruct — the run
// configuration before the first round. GraphHash and PartDigest pin the
// inputs (graph.Fingerprint and shard.PartitionDigest); the spec strings
// are empty for in-process workers, which already hold the graph and
// factory, and carry the generator/partitioner/protocol descriptions for
// cmd/cluster workers.
type Hello struct {
	Version    int
	P          int // worker (shard) count
	Shard      int // this worker's shard index in [0, P)
	MaxRounds  int
	GraphHash  uint64
	PartDigest uint64
	LamKind    byte    // LamReals | LamPowerGrid | LamOpaque
	LamL       float64 // λ when LamKind == LamPowerGrid
	LamName    string  // Lambda.Name() when LamKind == LamOpaque
	GraphSpec  string  // e.g. "ba:10000:7"; empty in-process
	PartName   string  // partitioner name, e.g. "greedy"
	ProtoSpec  string  // e.g. "coreness:23"; empty in-process
	WantValues bool    // ship per-node result values after the metrics record
	// Stream switches round delivery to direct worker↔worker frame
	// streaming over a mesh of data connections (DESIGN.md §14), whose
	// senders retain their flows for a respawned peer (DESIGN.md §13); the
	// coordinator then acts only as a round barrier and digest verifier.
	Stream bool
	// MeshSpec names the workers' mesh listen addresses (comma-joined,
	// indexed by shard) for multi-process clusters; empty in-process, where
	// the engine wires the mesh through an in-memory broker.
	MeshSpec string
}

// HandshakeVersion is the protocol version stamped into Hello and Welcome;
// both sides reject a peer speaking any other version. Version 2 added
// DeltaDigest and the delta record of the churn protocol (DESIGN.md §9);
// version 3 added the hello's recover byte and the crash-recovery records
// (DESIGN.md §13); version 4 added the streamed delivery fields
// (Stream, a mesh-kind byte, MeshSpec) and the mesh record types of DESIGN.md §14; version 5 changed the frame entry layout (tag
// ahead of the receiver) and added the broadcast entry (DESIGN.md §6);
// version 6 changed what a session stamp's graph field digests — the rolling
// edge-multiset hash (graph.EdgeSetHash), no longer graph.Fingerprint — with
// the record layout untouched, so only the version can tell two peers apart
// before their first stamp disagrees (DESIGN.md §10.2); version 7 made replay
// from Init the one restart (DESIGN.md §13): the checkpoint and resume records
// and the hello's always-zero window field are gone, a metrics record ends
// with the worker's frame chain, and a stream-resend names no first round;
// version 8 retired the one-shot churned run — DeltaDigest and the delta
// record are gone, a delta reaches a cluster as a session epoch (DESIGN.md
// §10); version 9 closes a streamed round on the mesh — an end marker carries
// its sender's alive count and the credits it owes, the coordinator's release
// and the stream-resend and stream-replay records are gone (DESIGN.md §8.4);
// version 10 made recovery the streamed plane's alone — a recovering hello
// arms Stream too, the relay's replay record (21) is gone, and a respawned
// session worker is re-admitted on the stamp record, the epoch-resume record
// (22) gone with it (DESIGN.md §13); version 11 made a session epoch one
// exchange — a reconverge opens with the whole stamp its worker arrived at,
// and the per-epoch stamp broadcast and echo are gone (DESIGN.md §10.2);
// version 12 made the full mesh the one topology — the hello's mesh-kind byte
// is gone, and a mesh record's sender is the link it arrived on (DESIGN.md
// §14); version 13 made recovery the streamed plane's default — the hello's
// recover byte is gone, and every streamed worker retains its flows and
// reports the frame chain the coordinator checks (DESIGN.md §13).
const HandshakeVersion = 13

// AppendHello appends the wire encoding of h to dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst = binary.AppendUvarint(dst, uint64(h.Version))
	dst = binary.AppendUvarint(dst, uint64(h.P))
	dst = binary.AppendUvarint(dst, uint64(h.Shard))
	dst = binary.AppendUvarint(dst, uint64(h.MaxRounds))
	dst = binary.LittleEndian.AppendUint64(dst, h.GraphHash)
	dst = binary.LittleEndian.AppendUint64(dst, h.PartDigest)
	dst = append(dst, h.LamKind)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.LamL))
	dst = appendString(dst, h.LamName)
	dst = appendString(dst, h.GraphSpec)
	dst = appendString(dst, h.PartName)
	dst = appendString(dst, h.ProtoSpec)
	dst = appendBool(dst, h.WantValues)
	dst = appendBool(dst, h.Stream)
	return appendString(dst, h.MeshSpec)
}

// DecodeHello decodes a hello body.
func DecodeHello(src []byte) (Hello, error) {
	d := Decoder{src: src}
	h := Hello{Version: d.Int(), P: d.Int(), Shard: d.Int(), MaxRounds: d.Int(), GraphHash: d.U64(),
		PartDigest: d.U64(), LamKind: d.Byte(), LamL: math.Float64frombits(d.U64()), LamName: d.Str(),
		GraphSpec: d.Str(), PartName: d.Str(), ProtoSpec: d.Str(), WantValues: d.Bool(), Stream: d.Bool(),
		MeshSpec: d.Str()}
	return h, d.Finish("hello")
}

// Welcome is the worker→coordinator handshake reply: the worker echoes the
// pinned digests (so a mismatch is detected on whichever side notices
// first) and reports how many nodes its shard owns.
type Welcome struct {
	Version    int
	Shard      int
	GraphHash  uint64
	PartDigest uint64
	Nodes      int // nodes assigned to this worker's shard
}

// AppendWelcome appends the wire encoding of w to dst.
func AppendWelcome(dst []byte, w Welcome) []byte {
	dst = binary.AppendUvarint(dst, uint64(w.Version))
	dst = binary.AppendUvarint(dst, uint64(w.Shard))
	dst = binary.LittleEndian.AppendUint64(dst, w.GraphHash)
	dst = binary.LittleEndian.AppendUint64(dst, w.PartDigest)
	return binary.AppendUvarint(dst, uint64(w.Nodes))
}

// DecodeWelcome decodes a welcome body.
func DecodeWelcome(src []byte) (Welcome, error) {
	d := Decoder{src: src}
	w := Welcome{Version: d.Int(), Shard: d.Int(), GraphHash: d.U64(), PartDigest: d.U64(), Nodes: d.Int()}
	return w, d.Finish("welcome")
}

// AppendStep appends a step body: the round to run (0 = Init; a streamed
// run's one go record names round 0).
func AppendStep(dst []byte, round int) []byte { return binary.AppendUvarint(dst, uint64(round)) }

// DecodeStep decodes a step body.
func DecodeStep(src []byte) (round int, err error) {
	d := Decoder{src: src}
	round = d.Int()
	return round, d.Finish("step")
}

// Done is the relay plane's worker→coordinator record closing its sends of a
// round: the round, the worker's alive count and the frames it sent ahead of
// it.
type Done struct{ Round, Alive, Frames int }

// AppendDone appends the wire encoding of dn to dst.
func AppendDone(dst []byte, dn Done) []byte {
	dst = binary.AppendUvarint(dst, uint64(dn.Round))
	dst = binary.AppendUvarint(dst, uint64(dn.Alive))
	return binary.AppendUvarint(dst, uint64(dn.Frames))
}

// DecodeDone decodes a done body.
func DecodeDone(src []byte) (Done, error) {
	d := Decoder{src: src}
	dn := Done{Round: d.Int(), Alive: d.Int(), Frames: d.Int()}
	return dn, d.Finish("done")
}

// Deliver is the relay plane's barrier release: the round and the number of
// frames the coordinator forwarded ahead of it.
type Deliver struct{ Round, Frames int }

// AppendDeliver appends the wire encoding of dl to dst.
func AppendDeliver(dst []byte, dl Deliver) []byte {
	dst = binary.AppendUvarint(dst, uint64(dl.Round))
	return binary.AppendUvarint(dst, uint64(dl.Frames))
}

// DecodeDeliver decodes a deliver body.
func DecodeDeliver(src []byte) (Deliver, error) {
	d := Decoder{src: src}
	dl := Deliver{Round: d.Int(), Frames: d.Int()}
	return dl, d.Finish("deliver")
}

// Finish ends a run, coordinator→worker: its round count and whether it ended
// with nobody alive.
type Finish struct {
	Rounds int
	Halted bool
}

// AppendFinish appends the wire encoding of f to dst.
func AppendFinish(dst []byte, f Finish) []byte {
	return appendBool(binary.AppendUvarint(dst, uint64(f.Rounds)), f.Halted)
}

// DecodeFinish decodes a finish body.
func DecodeFinish(src []byte) (Finish, error) {
	d := Decoder{src: src}
	f := Finish{Rounds: d.Int(), Halted: d.Bool()}
	return f, d.Finish("finish")
}

// Metrics is a worker's report at the end of a run: its shard's share of the
// protocol counters, then the frame chain over everything it received.
type Metrics struct {
	Messages, Words, WireBytes int64
	Chain                      uint64
}

// AppendMetrics appends the wire encoding of m to dst.
func AppendMetrics(dst []byte, m Metrics) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Messages))
	dst = binary.AppendUvarint(dst, uint64(m.Words))
	dst = binary.AppendUvarint(dst, uint64(m.WireBytes))
	return binary.LittleEndian.AppendUint64(dst, m.Chain)
}

// DecodeMetrics decodes a metrics body.
func DecodeMetrics(src []byte) (Metrics, error) {
	d := Decoder{src: src}
	m := Metrics{Messages: d.Int64(), Words: d.Int64(), WireBytes: d.Int64(), Chain: d.U64()}
	return m, d.Finish("metrics")
}

// NodeValue is one node's result value as shipped by a worker — the exact
// float bit pattern, so cross-process verification can demand bit equality.
type NodeValue struct {
	Node int
	Bits uint64
}

// AppendValues appends a values body: the count, then each (node, bits) pair.
func AppendValues(dst []byte, vals []NodeValue) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, uint64(v.Node))
		dst = binary.LittleEndian.AppendUint64(dst, v.Bits)
	}
	return dst
}

// DecodeValues appends the pairs of a values body to dst.
func DecodeValues(dst []NodeValue, src []byte) ([]NodeValue, error) {
	d := Decoder{src: src}
	// A pair is at least 9 bytes, so a lying count fails before the loop runs
	// on its say-so.
	for cnt := d.Count(9); cnt > 0; cnt-- {
		dst = append(dst, NodeValue{Node: d.Int(), Bits: d.U64()})
	}
	return dst, d.Finish("values")
}

// appendString appends a uvarint length followed by the string bytes.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendBool appends a 0/1 flag byte.
func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// Decoder is a cursor over a record body that latches the first error, so
// body decoders — this package's and, through NewDecoder, the session and
// shard layers' — read field after field without per-field error plumbing.
// It runs on bytes straight off a socket: truncations, overlong uvarints,
// integers past int range, flag bytes other than 0 and 1 and hostile counts
// and lengths latch an error, never panic. Finish states the one body rule
// (DESIGN.md §8.1).
type Decoder struct {
	src []byte
	n   int
	err error
}

// NewDecoder returns a decoder over src.
func NewDecoder(src []byte) *Decoder { return &Decoder{src: src} }

// Rest returns the number of bytes not yet consumed.
func (d *Decoder) Rest() int { return len(d.src) - d.n }

// Err returns the latched error, for a caller that reads a prefix of a body
// and goes on without the decoder.
func (d *Decoder) Err() error { return d.err }

// Fail latches err unless an earlier error already is.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Finish ends the decode of a body, which must be consumed whole: a
// truncation, trailing bytes or any other latched error is one error naming
// the record rec.
func (d *Decoder) Finish(rec string) error {
	if d.err == nil && d.n != len(d.src) {
		d.err = fmt.Errorf("%d trailing bytes", len(d.src)-d.n)
	}
	if d.err != nil {
		return fmt.Errorf("codec: bad %s record: %w", rec, d.err)
	}
	return nil
}

func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, k := binary.Uvarint(d.src[d.n:])
	switch {
	case k <= 0:
		d.err = fmt.Errorf("truncated uvarint at offset %d", d.n)
		return 0
	case k > UvarintSize(u):
		d.err = fmt.Errorf("overlong uvarint at offset %d", d.n)
		return 0
	}
	d.n += k
	return u
}

// Int reads a uvarint that must fit an int.
func (d *Decoder) Int() int { return int(d.upTo(math.MaxInt)) }

// Int64 reads a uvarint that must fit an int64.
func (d *Decoder) Int64() int64 { return int64(d.upTo(math.MaxInt64)) }

func (d *Decoder) upTo(limit uint64) uint64 {
	u := d.Uvarint()
	if u > limit {
		d.Fail(fmt.Errorf("uvarint %d at offset %d is past int range", u, d.n))
		return 0
	}
	return u
}

// Count reads the length of a list whose entries take at least size bytes
// each: a count the rest of the body cannot hold is an error, not an
// allocation on its say-so.
func (d *Decoder) Count(size int) int {
	cnt := d.Uvarint()
	if cnt > uint64(d.Rest()/size) {
		d.Fail(fmt.Errorf("count %d at offset %d exceeds payload", cnt, d.n))
		return 0
	}
	return int(cnt)
}

func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.src[d.n:]) < 8 {
		d.err = fmt.Errorf("truncated word at offset %d", d.n)
		return 0
	}
	u := binary.LittleEndian.Uint64(d.src[d.n:])
	d.n += 8
	return u
}

func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.n >= len(d.src) {
		d.err = fmt.Errorf("truncated byte at offset %d", d.n)
		return 0
	}
	b := d.src[d.n]
	d.n++
	return b
}

// Bool reads a flag byte, which appendBool writes as 0 or 1; any other byte
// is an error.
func (d *Decoder) Bool() bool {
	b := d.Byte()
	if b > 1 {
		d.Fail(fmt.Errorf("flag byte %d at offset %d", b, d.n-1))
	}
	return b == 1
}

func (d *Decoder) Str() string {
	l := d.Uvarint()
	if d.err != nil {
		return ""
	}
	// Compare in uint64: a hostile length near 2^64 must not wrap negative
	// through int and slip past the bounds check into a panic.
	if l > uint64(len(d.src)-d.n) {
		d.err = fmt.Errorf("truncated string at offset %d", d.n)
		return ""
	}
	s := string(d.src[d.n : d.n+int(l)])
	d.n += int(l)
	return s
}
