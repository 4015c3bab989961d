package codec

// This file carries the transport-layer encodings the real-socket cluster
// engine (internal/net) speaks: a length-prefixed record framing and the
// handshake records (Hello, Welcome) exchanged before a run. The frame
// payloads inside the records reuse FrameHeader and the per-message body
// codec of internal/shard, so the bytes a socket carries are the same bytes
// the in-process sharded engine accounts. DESIGN.md §8 is the normative
// wire-protocol spec.

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
	// Recover arms crash recovery (DESIGN.md §13): the worker folds what it
	// receives into a frame chain, a streamed worker retains what it sends,
	// and a respawned incarnation honors Replay records after its
	// re-admission handshake.
	Recover bool
	// Stream switches round delivery to direct worker↔worker frame
	// streaming over a mesh of data connections (DESIGN.md §14); the
	// coordinator then acts only as a round barrier and digest verifier.
	Stream bool
	// MeshKind selects the mesh topology when Stream is set: MeshFull or
	// MeshCube. Every worker must agree (relay routing depends on it), so
	// the coordinator decides and the hello pins it.
	MeshKind byte
	// MeshSpec names the workers' mesh listen addresses (comma-joined,
	// indexed by shard) for multi-process clusters; empty in-process, where
	// the engine wires the mesh through an in-memory broker.
	MeshSpec string
}

// Mesh topologies a streamed hello can pin (DESIGN.md §14).
const (
	// MeshFull is a full mesh: every worker holds a data connection to
	// every other worker, one hop per flow.
	MeshFull = byte(0)
	// MeshCube is a hypercube: workers connect to their log2(P) bit
	// neighbors and relay flows dimension-ordered (e-cube), so the per-
	// worker connection count stays logarithmic at large P. Requires P to
	// be a power of two.
	MeshCube = byte(1)
)

// HandshakeVersion is the protocol version stamped into Hello and Welcome;
// both sides reject a peer speaking any other version. Version 2 added
// DeltaDigest and the delta record of the churn protocol (DESIGN.md §9);
// version 3 added Hello.Recover and the records of the crash-recovery
// protocol (DESIGN.md §13); version 4 added the streamed delivery fields
// (Stream, MeshKind, MeshSpec) and the mesh record types of DESIGN.md §14; version 5 changed the frame entry layout (tag
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
// and the stream-resend and stream-replay records are gone (DESIGN.md §8.4).
const HandshakeVersion = 9

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
	dst = appendBool(dst, h.Recover)
	dst = appendBool(dst, h.Stream)
	dst = append(dst, h.MeshKind)
	return appendString(dst, h.MeshSpec)
}

// DecodeHello decodes a Hello and returns the number of bytes consumed.
func DecodeHello(src []byte) (Hello, int, error) {
	var h Hello
	d := Decoder{src: src}
	h.Version = int(d.Uvarint())
	h.P = int(d.Uvarint())
	h.Shard = int(d.Uvarint())
	h.MaxRounds = int(d.Uvarint())
	h.GraphHash = d.U64()
	h.PartDigest = d.U64()
	h.LamKind = d.Byte()
	h.LamL = math.Float64frombits(d.U64())
	h.LamName = d.Str()
	h.GraphSpec = d.Str()
	h.PartName = d.Str()
	h.ProtoSpec = d.Str()
	h.WantValues = d.Byte() != 0
	h.Recover = d.Byte() != 0
	h.Stream = d.Byte() != 0
	h.MeshKind = d.Byte()
	h.MeshSpec = d.Str()
	if d.err != nil {
		return Hello{}, 0, fmt.Errorf("codec: bad hello record: %w", d.err)
	}
	return h, d.n, nil
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

// DecodeWelcome decodes a Welcome and returns the number of bytes consumed.
func DecodeWelcome(src []byte) (Welcome, int, error) {
	var w Welcome
	d := Decoder{src: src}
	w.Version = int(d.Uvarint())
	w.Shard = int(d.Uvarint())
	w.GraphHash = d.U64()
	w.PartDigest = d.U64()
	w.Nodes = int(d.Uvarint())
	if d.err != nil {
		return Welcome{}, 0, fmt.Errorf("codec: bad welcome record: %w", d.err)
	}
	return w, d.n, nil
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
// record decoders — this package's and, through NewDecoder, the session
// layer's — read field after field without per-field error plumbing. It runs
// on bytes straight off a socket: truncations and hostile lengths latch an
// error, never panic.
type Decoder struct {
	src []byte
	n   int
	err error
}

// NewDecoder returns a decoder over src.
func NewDecoder(src []byte) *Decoder { return &Decoder{src: src} }

// Rest returns the number of bytes not yet consumed.
func (d *Decoder) Rest() int { return len(d.src) - d.n }

// Fail latches err unless an earlier error already is.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Finish ends a decode that must consume its whole input: the latched error,
// or an error naming the trailing bytes.
func (d *Decoder) Finish() error {
	if d.err == nil && d.n != len(d.src) {
		d.err = fmt.Errorf("%d trailing bytes", len(d.src)-d.n)
	}
	return d.err
}

func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, k := binary.Uvarint(d.src[d.n:])
	if k <= 0 {
		d.err = fmt.Errorf("truncated uvarint at offset %d", d.n)
		return 0
	}
	d.n += k
	return u
}

func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	x, k := binary.Varint(d.src[d.n:])
	if k <= 0 {
		d.err = fmt.Errorf("truncated varint at offset %d", d.n)
		return 0
	}
	d.n += k
	return x
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
