package session

import (
	"encoding/binary"
	"fmt"
	"math"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/shard"
)

// Wire bodies of the session records (DESIGN.md §10). Like the rest of the
// frame codec these decoders run on bytes straight off a socket: hostile
// lengths and truncations fail cleanly, never panic, and every decode
// demands full consumption so trailing garbage is an error, not a shrug.

// ValueChange is one node whose β_T moved across an epoch, as exact float
// bit patterns (the session's unit of change, of notification payloads and
// of the reconverge record).
type ValueChange struct {
	Node             graph.NodeID
	OldBits, NewBits uint64
}

// Old returns the pre-epoch value.
func (c ValueChange) Old() float64 { return math.Float64frombits(c.OldBits) }

// New returns the post-epoch value.
func (c ValueChange) New() float64 { return math.Float64frombits(c.NewBits) }

// AppendDeltaPush appends a DeltaPush body: uvarint epoch, then the
// shard delta encoding (move budget + ops). Epoch 0 from a client means
// "assign the next epoch"; coordinator→worker the epoch is always concrete.
func AppendDeltaPush(dst []byte, epoch, moveBudget int, d dist.GraphDelta) []byte {
	dst = binary.AppendUvarint(dst, uint64(epoch))
	return shard.AppendDelta(dst, moveBudget, d)
}

// DecodeDeltaPush decodes a DeltaPush body, requiring full consumption.
func DecodeDeltaPush(src []byte) (epoch, moveBudget int, d dist.GraphDelta, err error) {
	dec := codec.NewDecoder(src)
	epoch = int(dec.Uvarint())
	moveBudget, d = shard.DecodeDelta(dec)
	if err := finish(dec, "delta push"); err != nil {
		return 0, 0, dist.GraphDelta{}, err
	}
	return epoch, moveBudget, d, nil
}

// Reconverge is a worker's epoch reply: the whole stamp it arrived at — the
// epoch, the post-churn graph hash, the rebalanced partition digest, the
// digest of its full value vector, its extension of the chain and its
// repair's moved count — then the changed values of the shard it owns after
// the rebalance, ascending by node. The stamp leads, so the body opens with
// the epoch as every epoch record does.
type Reconverge struct {
	codec.Stamp
	Changes []ValueChange
}

// AppendReconverge appends the wire encoding of r to dst: AppendStamp, then
// the change list.
func AppendReconverge(dst []byte, r Reconverge) []byte {
	return appendChanges(codec.AppendStamp(dst, r.Stamp), r.Changes)
}

// DecodeReconverge decodes a Reconverge body, requiring full consumption.
func DecodeReconverge(src []byte) (Reconverge, error) {
	d := codec.NewDecoder(src)
	r := Reconverge{Stamp: d.Stamp(), Changes: decodeChanges(d)}
	if err := finish(d, "reconverge"); err != nil {
		return Reconverge{}, err
	}
	return r, nil
}

// appendChanges appends uvarint count then (uvarint node, old bits, new
// bits) per change.
func appendChanges(dst []byte, chs []ValueChange) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(chs)))
	for _, ch := range chs {
		dst = binary.AppendUvarint(dst, uint64(ch.Node))
		dst = binary.LittleEndian.AppendUint64(dst, ch.OldBits)
		dst = binary.LittleEndian.AppendUint64(dst, ch.NewBits)
	}
	return dst
}

// AppendSubscribe appends a Subscribe request body: uvarint topic count,
// then each topic's canonical string. (The reply body is a bare uvarint
// subscriber ID.)
func AppendSubscribe(dst []byte, topics []Topic) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(topics)))
	for _, t := range topics {
		s := t.String()
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// DecodeSubscribe decodes a Subscribe request body, requiring full
// consumption and well-formed topics.
func DecodeSubscribe(src []byte) ([]Topic, error) {
	d := codec.NewDecoder(src)
	cnt := d.Uvarint()
	if cnt > uint64(len(src)) {
		d.Fail(fmt.Errorf("topic count %d exceeds payload", cnt))
		cnt = 0
	}
	topics := make([]Topic, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		topics = append(topics, decodeTopic(d))
	}
	if err := finish(d, "subscribe"); err != nil {
		return nil, err
	}
	return topics, nil
}

// AppendNotify appends the wire encoding of n to dst: subscriber ID, epoch,
// topic string, changes.
func AppendNotify(dst []byte, n Notification) []byte {
	dst = binary.AppendUvarint(dst, uint64(n.Sub))
	dst = binary.AppendUvarint(dst, uint64(n.Epoch))
	s := n.Topic.String()
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	dst = append(dst, s...)
	return appendChanges(dst, n.Changes)
}

// DecodeNotify decodes a Notify body, requiring full consumption.
func DecodeNotify(src []byte) (Notification, error) {
	d := codec.NewDecoder(src)
	n := Notification{Sub: int(d.Uvarint()), Epoch: int(d.Uvarint()), Topic: decodeTopic(d), Changes: decodeChanges(d)}
	if err := finish(d, "notify"); err != nil {
		return Notification{}, err
	}
	return n, nil
}

// decodeTopic reads one topic in its canonical string form.
func decodeTopic(d *codec.Decoder) Topic {
	t, err := ParseTopic(d.Str())
	if err != nil {
		d.Fail(err)
	}
	return t
}

// decodeChanges reads a change list: uvarint count, then count changes.
func decodeChanges(d *codec.Decoder) []ValueChange {
	cnt := d.Uvarint()
	// Every change occupies at least 17 bytes (1-byte node uvarint + two
	// words), so a larger count is a lie about bytes that cannot be there.
	if cnt > uint64(d.Rest())/17 {
		d.Fail(fmt.Errorf("change count %d exceeds payload", cnt))
		return nil
	}
	chs := make([]ValueChange, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		chs = append(chs, ValueChange{Node: graph.NodeID(d.Uvarint()), OldBits: d.U64(), NewBits: d.U64()})
	}
	return chs
}

// finish ends a session-body decode: a latched error or unconsumed trailing
// bytes fail it.
func finish(d *codec.Decoder, what string) error {
	if err := d.Finish(); err != nil {
		return fmt.Errorf("session: bad %s record: %w", what, err)
	}
	return nil
}
