package session

import (
	"math/rand"
	"strings"
	"testing"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
)

func TestDeltaPushRoundTrip(t *testing.T) {
	d := dist.GraphDelta{Ops: []dist.EdgeOp{
		{U: 1, V: 2, W: 1},
		{Del: true, U: 3, V: 4},
		{U: 5, V: 6, W: 2.5},
	}}
	enc := AppendDeltaPush(nil, 7, 3, d)
	epoch, budget, d2, err := DecodeDeltaPush(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if epoch != 7 || budget != 3 || d2.Digest() != d.Digest() {
		t.Fatalf("round trip changed the push: epoch %d budget %d digest %#x, want 7 3 %#x",
			epoch, budget, d2.Digest(), d.Digest())
	}
	// Every strict prefix must error (truncation), and so must trailing
	// garbage (full-consumption rule).
	for i := 0; i < len(enc); i++ {
		if _, _, _, err := DecodeDeltaPush(enc[:i]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", i, len(enc))
		}
	}
	if _, _, _, err := DecodeDeltaPush(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestReconvergeRoundTrip(t *testing.T) {
	r := Reconverge{
		Stamp: codec.Stamp{Epoch: 3, GraphHash: 0xdeadbeefcafe, PartDigest: 0x123456789abcdef0,
			ValuesDigest: 0x0fedcba987654321, ChainDigest: 0xfeedface, Changed: 5},
		Changes: []ValueChange{
			{Node: 4, OldBits: 100, NewBits: 200},
			{Node: 9, OldBits: 0, NewBits: 1},
		},
	}
	enc := AppendReconverge(nil, r)
	r2, err := DecodeReconverge(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if r2.Epoch != r.Epoch || r2.GraphHash != r.GraphHash || r2.PartDigest != r.PartDigest || len(r2.Changes) != len(r.Changes) {
		t.Fatalf("round trip changed the record: %+v vs %+v", r, r2)
	}
	for i := range r.Changes {
		if r2.Changes[i] != r.Changes[i] {
			t.Fatalf("change %d: %+v vs %+v", i, r.Changes[i], r2.Changes[i])
		}
	}
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeReconverge(enc[:i]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", i, len(enc))
		}
	}
	if _, err := DecodeReconverge(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestReconvergeHostileChangeCount(t *testing.T) {
	// Header plus a count claiming far more changes than the payload holds:
	// must fail before any count-sized allocation.
	enc := AppendReconverge(nil, Reconverge{Stamp: codec.Stamp{Epoch: 1, GraphHash: 1, PartDigest: 1}})
	enc = enc[:len(enc)-1] // drop the count 0
	enc = append(enc, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, err := DecodeReconverge(enc); err == nil || !strings.Contains(err.Error(), "exceeds payload") {
		t.Fatalf("hostile change count: %v", err)
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	topics := []Topic{
		{Kind: TopicThreshold, X: 2.5},
		{Kind: TopicCoreness, Node: 17},
		{Kind: TopicTopK, K: 5},
	}
	enc := AppendSubscribe(nil, topics)
	got, err := DecodeSubscribe(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(topics) {
		t.Fatalf("round trip returned %d topics, want %d", len(got), len(topics))
	}
	for i := range topics {
		if got[i] != topics[i] {
			t.Fatalf("topic %d: %v vs %v", i, topics[i], got[i])
		}
	}
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeSubscribe(enc[:i]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", i, len(enc))
		}
	}
	if _, err := DecodeSubscribe(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A malformed topic string inside a well-framed record is an error too.
	bad := AppendSubscribe(nil, nil)
	bad[0] = 1
	bad = append(bad, 5, 'b', 'o', 'g', 'u', 's')
	if _, err := DecodeSubscribe(bad); err == nil {
		t.Fatal("malformed topic accepted")
	}
}

func TestNotifyRoundTrip(t *testing.T) {
	n := Notification{
		Sub:   2,
		Epoch: 9,
		Topic: Topic{Kind: TopicThreshold, X: 3},
		Changes: []ValueChange{
			{Node: 1, OldBits: 10, NewBits: 20},
		},
	}
	enc := AppendNotify(nil, n)
	n2, err := DecodeNotify(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n2.Sub != n.Sub || n2.Epoch != n.Epoch || n2.Topic != n.Topic || len(n2.Changes) != 1 || n2.Changes[0] != n.Changes[0] {
		t.Fatalf("round trip changed the notification: %+v vs %+v", n, n2)
	}
	if n2.String() != n.String() {
		t.Fatalf("transcript line changed: %q vs %q", n.String(), n2.String())
	}
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeNotify(enc[:i]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", i, len(enc))
		}
	}
}

func TestTopicParse(t *testing.T) {
	good := []Topic{
		{Kind: TopicCoreness, Node: 0},
		{Kind: TopicCoreness, Node: 42},
		{Kind: TopicTopK, K: 1},
		{Kind: TopicTopK, K: 100},
		{Kind: TopicThreshold, X: 0},
		{Kind: TopicThreshold, X: 2.5},
		{Kind: TopicThreshold, X: -1},
	}
	for _, want := range good {
		got, err := ParseTopic(want.String())
		if err != nil {
			t.Fatalf("ParseTopic(%q): %v", want.String(), err)
		}
		if got != want {
			t.Fatalf("ParseTopic(%q) = %v, want %v", want.String(), got, want)
		}
	}
	bad := []string{
		"", "coreness", "coreness:", "coreness:-1", "coreness:x",
		"topk:0", "topk:-3", "topk:1.5",
		"threshold:", "threshold:NaN", "threshold:+Inf",
		"bogus:1", ":5",
	}
	for _, s := range bad {
		if _, err := ParseTopic(s); err == nil {
			t.Fatalf("ParseTopic(%q) accepted", s)
		}
	}
}

func TestDigestHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2, 4}
	if ValuesDigest(a) == ValuesDigest(b) {
		t.Fatal("distinct vectors share a values digest")
	}
	if ValuesDigest(a) != ValuesDigest([]float64{1, 2, 3}) {
		t.Fatal("values digest is not a pure function")
	}
	if ValuesDigest(nil) == 0 {
		t.Fatal("empty vector digests to zero")
	}
	c0 := ChainNext(0, 1, 2, 3)
	if c0 == 0 {
		t.Fatal("chain digest collapsed to zero")
	}
	if ChainNext(c0, 1, 2, 3) == c0 {
		t.Fatal("chain does not advance")
	}
	if ChainNext(0, 1, 2, 3) != c0 {
		t.Fatal("chain digest is not a pure function")
	}
}

// TestValuesDigestMixesEveryBit: β_T under the exact-sum contract has its low
// mantissa bits zero, and a fold that only multiplies carries bits upward, so
// 1 000 seeded vectors of 2 000 integer values in [1, 40] must still land on
// 1 000 distinct low 32 bits of the digest.
func TestValuesDigestMixesEveryBit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	low := make(map[uint32]bool)
	b := make([]float64, 2000)
	for i := 0; i < 1000; i++ {
		for v := range b {
			b[v] = float64(1 + rng.Intn(40))
		}
		low[uint32(ValuesDigest(b))] = true
	}
	if len(low) != 1000 {
		t.Fatalf("1000 value vectors share %d low-32-bit digests", len(low))
	}
}
