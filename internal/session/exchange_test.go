package session

import (
	"encoding/binary"
	stdnet "net"
	"slices"
	"sync"
	"testing"
	"time"

	"distkcore/internal/graph"
	net "distkcore/internal/net"
	"distkcore/internal/net/faultnet"
	"distkcore/internal/shard"
)

// An epoch is one exchange (DESIGN.md §10.2): the coordinator pushes the
// batch, every worker answers with the stamp it arrived at ahead of its
// changes, and the coordinator seals only when all P stamps equal its own.

// forRecords calls fn on each whole record at the front of p — its type and
// the offset of its body — and returns the number of bytes those records span.
func forRecords(p []byte, fn func(typ byte, body int)) int {
	at := 0
	for {
		size, k := binary.Uvarint(p[at:])
		if k <= 0 || size == 0 || uint64(len(p)-at-k) < size {
			return at
		}
		fn(p[at+k], at+k+1)
		at += k + int(size)
	}
}

// recordTap counts, by type, the records a worker writes on its control link
// and the records it reads off it. A Conn hands its connection whole records;
// reads arrive in pieces, so they are reassembled before they are counted.
type recordTap struct {
	stdnet.Conn
	mu        *sync.Mutex
	sent, got *[256]int
	pend      []byte
}

func (c *recordTap) Write(p []byte) (int, error) {
	c.mu.Lock()
	forRecords(p, func(typ byte, _ int) { c.sent[typ]++ })
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordTap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.pend = append(c.pend, p[:n]...)
	c.pend = c.pend[forRecords(c.pend, func(typ byte, _ int) { c.got[typ]++ }):]
	c.mu.Unlock()
	return n, err
}

// Opening a session is one exchange too — one hello in and one epoch-0
// reconverge out per worker, no run record either way and no mesh — and
// every epoch after it is one delta-push to each worker and one reconverge
// back, and no stamp record passes either way.
func TestEpochIsOneExchange(t *testing.T) {
	const p, epochs = 3, 5
	g := graph.BarabasiAlbert(300, 3, 5)
	var mu sync.Mutex
	sent, got := make([][256]int, p), make([][256]int, p)
	meshLinks := 0
	wrap := func(shard, gen, peer int, c stdnet.Conn) stdnet.Conn {
		mu.Lock()
		defer mu.Unlock()
		if peer != faultnet.Control {
			meshLinks++
			return c
		}
		return &recordTap{Conn: c, mu: &mu, sent: &sent[shard], got: &got[shard]}
	}
	s, err := Open(g, Options{P: p, Rounds: 8, Part: shard.Greedy{}, IOTimeout: 10 * time.Second, wrap: wrap})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	mu.Lock()
	sent0, got0 := slices.Clone(sent), slices.Clone(got)
	if meshLinks != 0 {
		t.Errorf("opening the session wrapped %d mesh links, want none", meshLinks)
	}
	mu.Unlock()
	for w := 0; w < p; w++ {
		for typ := range sent0[w] {
			want := [2]int{} // got, sent
			switch byte(typ) {
			case net.RecHello:
				want[0] = 1
			case net.RecReconverge:
				want[1] = 1
			}
			// Every other type — stamp, step, done, frame, stream-done,
			// stream-ack, finish, metrics, values — must not pass at all.
			if have := [2]int{got0[w][typ], sent0[w][typ]}; have != want {
				t.Errorf("worker %d, record type %d while Open ran: got %d and sent %d, want %d and %d",
					w, typ, have[0], have[1], want[0], want[1])
			}
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for e, d := range recoveryDeltas(g, epochs) {
		if _, err := s.Push(d, 0); err != nil {
			t.Fatalf("epoch %d: %v", e+1, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for w := 0; w < p; w++ {
		for typ := range sent[w] {
			want := [2]int{} // got, sent
			switch byte(typ) {
			case net.RecDeltaPush:
				want[0] = epochs
			case net.RecReconverge:
				want[1] = epochs
			}
			if have := [2]int{got[w][typ] - got0[w][typ], sent[w][typ] - sent0[w][typ]}; have != want {
				t.Errorf("worker %d, record type %d over %d epochs: got %d and sent %d, want %d and %d",
					w, typ, epochs, have[0], have[1], want[0], want[1])
			}
		}
		in, out := got[w][net.RecDeltaPush]-got0[w][net.RecDeltaPush], sent[w][net.RecReconverge]-sent0[w][net.RecReconverge]
		t.Logf("worker %d after admission: %d delta-push records in and %d reconverge records out over %d epochs (%d and %d an epoch)",
			w, in, out, epochs, in/epochs, out/epochs)
	}
}

// forkTap flips the low bit of the byte at offset at of the body of the
// epoch-e reconverge written through it.
type forkTap struct {
	stdnet.Conn
	e, at int
}

func (c forkTap) Write(p []byte) (int, error) {
	q := slices.Clone(p)
	forRecords(q, func(typ byte, body int) {
		if typ == net.RecReconverge && q[body] == byte(c.e) {
			q[body+c.at] ^= 1
		}
	})
	return c.Conn.Write(q)
}

// A worker whose stamp disagrees with the coordinator's in any one field —
// the ones the coordinator checks as each reply lands and the ones it can only
// check once every change is folded — breaks the session at the reconverge of
// that epoch, naming that worker, and nothing outlives the break.
func TestSealNamesAForkedWorker(t *testing.T) {
	const p, e = 3, 2
	g := graph.BarabasiAlbert(200, 3, 8)
	deltas := recoveryDeltas(g, e+1)
	// Offsets into a reconverge body: a 1-byte epoch, four 8-byte digests, the
	// moved count.
	for i, field := range []struct {
		name string
		at   int
	}{{"graph-hash", 1}, {"partition-digest", 9}, {"values-digest", 17}, {"chain-digest", 25}, {"moved-count", 33}} {
		w := i % p
		t.Run(field.name, func(t *testing.T) {
			cell(t, func() {
				wrap := func(shard, gen, peer int, c stdnet.Conn) stdnet.Conn {
					if shard != w || peer != faultnet.Control {
						return c
					}
					return forkTap{c, e, field.at}
				}
				s, err := Open(g, Options{P: p, Rounds: 6, Part: shard.Greedy{}, IOTimeout: 10 * time.Second, wrap: wrap})
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer s.Close()
				for _, d := range deltas[:e-1] {
					if _, err := s.Push(d, 0); err != nil {
						t.Fatalf("epoch before the fork: %v", err)
					}
				}
				if _, err := s.Push(deltas[e-1], 0); err == nil {
					t.Fatal("forked epoch sealed")
				}
				if bc := s.Cause(); bc == nil || *bc != (BreakCause{Epoch: e, Phase: "reconverge", Worker: w, Err: bc.Err}) {
					t.Fatalf("break cause %+v, want epoch %d, phase reconverge, worker %d", bc, e, w)
				}
				t.Log(s.Err())
				if !s.Stat().Broken {
					t.Fatal("stat does not report BROKEN")
				}
				if _, err := s.Push(deltas[e], 0); err == nil {
					t.Fatal("broken session accepted a later push")
				}
			})
		})
	}
}
