package codec

import "testing"

// TestStatRoundTrip encodes and decodes the session stat record with every
// field populated, including the broken-latch diagnosis and the -1
// "unattributable" worker sentinel.
func TestStatRoundTrip(t *testing.T) {
	cases := []Stat{
		{},
		{Epoch: 7, ChainDigest: 0xdeadbeefcafef00d, Workers: 4, Nodes: 10_000, Subscribers: 3,
			Pushes: 7, Rejected: 1, Changed: 812, DeltaBytes: 4096, Notifications: 12, EpochMicros: 123456,
			Recoveries: 2, CauseWorker: -1},
		{Epoch: 3, Broken: true, CauseEpoch: 3, CauseWorker: 2,
			CausePhase: "reconverge", Cause: "worker 2: unexpected EOF"},
		{Broken: true, CauseEpoch: 1, CauseWorker: -1,
			CausePhase: "stamp-echo", Cause: "timeout"},
	}
	for i, want := range cases {
		enc := AppendStat(nil, want)
		got, err := DecodeStat(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("case %d: round trip changed the stat:\n got  %+v\n want %+v", i, got, want)
		}
	}
}

// TestStatDecodeTruncated feeds every proper prefix of a full encoding to
// the decoder: each must error cleanly, never panic or fabricate fields.
func TestStatDecodeTruncated(t *testing.T) {
	enc := AppendStat(nil, Stat{
		Epoch: 9, ChainDigest: 42, Workers: 4, Nodes: 500, Subscribers: 2,
		Pushes: 3, Changed: 17, DeltaBytes: 256, Notifications: 5, EpochMicros: 999,
		Broken: true, CauseEpoch: 9, CauseWorker: 1, CausePhase: "delta-broadcast", Cause: "boom",
	})
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeStat(enc[:i]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", i, len(enc))
		}
	}
}

// TestStatDecodeHostileLength rejects a string length prefix that runs past
// the buffer instead of allocating for it.
func TestStatDecodeHostileLength(t *testing.T) {
	enc := AppendStat(nil, Stat{CauseWorker: -1, CausePhase: "x", Cause: "y"})
	// The phase-string length prefix is the third byte from the end of
	// "x" + len + "y": corrupt the final length byte to claim 100 bytes.
	enc[len(enc)-2] = 100
	if _, err := DecodeStat(enc); err == nil {
		t.Fatal("oversized string length decoded without error")
	}
}
