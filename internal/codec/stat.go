package codec

import (
	"encoding/binary"
	"fmt"
)

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
	if s.Broken {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(s.CauseEpoch))
	// CauseWorker is -1 when unattributable; shift into uvarint range.
	dst = binary.AppendUvarint(dst, uint64(s.CauseWorker+1))
	dst = binary.AppendUvarint(dst, uint64(len(s.CausePhase)))
	dst = append(dst, s.CausePhase...)
	dst = binary.AppendUvarint(dst, uint64(len(s.Cause)))
	return append(dst, s.Cause...)
}

// DecodeStat decodes a Stat and returns the number of bytes consumed.
func DecodeStat(src []byte) (Stat, int, error) {
	var s Stat
	d := Decoder{src: src}
	s.Epoch = int(d.Uvarint())
	s.ChainDigest = d.U64()
	s.Workers = int(d.Uvarint())
	s.Nodes = int(d.Uvarint())
	s.Subscribers = int(d.Uvarint())
	s.Pushes = int64(d.Uvarint())
	s.Rejected = int64(d.Uvarint())
	s.Changed = int64(d.Uvarint())
	s.DeltaBytes = int64(d.Uvarint())
	s.Notifications = int64(d.Uvarint())
	s.EpochMicros = int64(d.Uvarint())
	s.Recoveries = int64(d.Uvarint())
	s.Broken = d.Byte() != 0
	s.CauseEpoch = int(d.Uvarint())
	s.CauseWorker = int(d.Uvarint()) - 1
	s.CausePhase = d.Str()
	s.Cause = d.Str()
	if d.err != nil {
		return Stat{}, 0, fmt.Errorf("codec: bad stat record: %w", d.err)
	}
	return s, d.n, nil
}
