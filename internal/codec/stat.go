package codec

import "encoding/binary"

// Stat is a live session's introspection snapshot, as served over the
// control socket in reply to a stat request (net.RecStat) and exported over
// -debug-addr as an expvar. Everything is a running total since epoch 0;
// the Cause* fields are zero while the session is live and carry the
// failure diagnosis — which worker, which epoch, which protocol phase,
// what error — once a broken latch has tripped.
type Stat struct {
	Epoch       int
	ChainDigest uint64
	Workers     int
	Nodes       int
	Subscribers int
	// Pushes counts sealed epochs; Rejected counts batches refused before
	// any broadcast (the session stayed live).
	Pushes   int64
	Rejected int64
	// Changed, DeltaBytes and Notifications are cumulative across all
	// sealed epochs: nodes whose value moved, encoded delta-push bytes
	// broadcast, and subscription notifications published.
	Changed       int64
	DeltaBytes    int64
	Notifications int64
	// EpochMicros is cumulative wall-clock µs spent sealing epochs
	// (broadcast to commit) — the timing summary a stat probe reports.
	EpochMicros int64
	// Recoveries counts workers crash-recovered since epoch 0 (DESIGN.md
	// §13) — faults that would latch Broken with recovery disabled.
	Recoveries int64
	Broken     bool
	// CauseEpoch/CauseWorker/CausePhase/Cause diagnose the break: the epoch
	// being sealed, the worker implicated (-1 when the failure is not
	// attributable to one), the protocol phase, and the error text.
	CauseEpoch  int
	CauseWorker int
	CausePhase  string
	Cause       string
}

// AppendStat appends the wire encoding of s to dst.
func AppendStat(dst []byte, s Stat) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Epoch))
	dst = binary.LittleEndian.AppendUint64(dst, s.ChainDigest)
	dst = binary.AppendUvarint(dst, uint64(s.Workers))
	dst = binary.AppendUvarint(dst, uint64(s.Nodes))
	dst = binary.AppendUvarint(dst, uint64(s.Subscribers))
	dst = binary.AppendUvarint(dst, uint64(s.Pushes))
	dst = binary.AppendUvarint(dst, uint64(s.Rejected))
	dst = binary.AppendUvarint(dst, uint64(s.Changed))
	dst = binary.AppendUvarint(dst, uint64(s.DeltaBytes))
	dst = binary.AppendUvarint(dst, uint64(s.Notifications))
	dst = binary.AppendUvarint(dst, uint64(s.EpochMicros))
	dst = binary.AppendUvarint(dst, uint64(s.Recoveries))
	dst = appendBool(dst, s.Broken)
	dst = binary.AppendUvarint(dst, uint64(s.CauseEpoch))
	// CauseWorker is -1 when unattributable; shift into uvarint range.
	dst = binary.AppendUvarint(dst, uint64(s.CauseWorker+1))
	dst = appendString(dst, s.CausePhase)
	return appendString(dst, s.Cause)
}

// DecodeStat decodes a stat reply body.
func DecodeStat(src []byte) (Stat, error) {
	d := Decoder{src: src}
	s := Stat{Epoch: d.Int(), ChainDigest: d.U64(), Workers: d.Int(), Nodes: d.Int(), Subscribers: d.Int(),
		Pushes: d.Int64(), Rejected: d.Int64(), Changed: d.Int64(), DeltaBytes: d.Int64(),
		Notifications: d.Int64(), EpochMicros: d.Int64(), Recoveries: d.Int64(), Broken: d.Bool(),
		CauseEpoch: d.Int(), CauseWorker: d.Int() - 1, CausePhase: d.Str(), Cause: d.Str()}
	return s, d.Finish("stat")
}
