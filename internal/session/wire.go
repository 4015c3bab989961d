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

// Wire bodies of the session records (DESIGN.md §10). Like every record body
// they are read through codec.Decoder and end in its Finish: hostile lengths
// and truncations fail cleanly, never panic, and a body is consumed whole or
// is an error naming its record.

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
	epoch = dec.Int()
	moveBudget, d = shard.DecodeDelta(dec)
	return epoch, moveBudget, d, dec.Finish("delta-push")
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
	return r, d.Finish("reconverge")
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
// then each topic's canonical string.
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
	cnt := d.Count(1)
	topics := make([]Topic, 0, cnt)
	for ; cnt > 0; cnt-- {
		topics = append(topics, decodeTopic(d))
	}
	return topics, d.Finish("subscribe")
}

// AppendSubscribeEcho appends the Subscribe reply body: the subscriber ID the
// server assigned.
func AppendSubscribeEcho(dst []byte, id int) []byte { return binary.AppendUvarint(dst, uint64(id)) }

// DecodeSubscribeEcho decodes a Subscribe reply body.
func DecodeSubscribeEcho(src []byte) (id int, err error) {
	d := codec.NewDecoder(src)
	id = d.Int()
	return id, d.Finish("subscribe")
}

// DecodeStatRequest checks a client's stat request body, which is empty
// (DESIGN.md §8.2): the reply is codec.AppendStat's.
func DecodeStatRequest(src []byte) error { return codec.NewDecoder(src).Finish("stat request") }

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
	n := Notification{Sub: d.Int(), Epoch: d.Int(), Topic: decodeTopic(d), Changes: decodeChanges(d)}
	return n, d.Finish("notify")
}

// decodeTopic reads one topic in its canonical string form — the one
// Topic.String writes, so a topic has one spelling on the wire.
func decodeTopic(d *codec.Decoder) Topic {
	s := d.Str()
	t, err := ParseTopic(s)
	if err == nil && t.String() != s {
		err = fmt.Errorf("session: topic %q is not in canonical form %q", s, t)
	}
	if err != nil {
		d.Fail(err)
	}
	return t
}

// decodeChanges reads a change list: uvarint count, then count changes.
func decodeChanges(d *codec.Decoder) []ValueChange {
	// Every change occupies at least 17 bytes (1-byte node uvarint + two
	// words).
	cnt := d.Count(17)
	chs := make([]ValueChange, 0, cnt)
	for ; cnt > 0; cnt-- {
		chs = append(chs, ValueChange{Node: d.Int(), OldBits: d.U64(), NewBits: d.U64()})
	}
	return chs
}
