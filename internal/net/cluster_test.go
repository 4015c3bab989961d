package net

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"distkcore/internal/core"
	"distkcore/internal/graph"
	"distkcore/internal/shard"
)

// The launcher owns the failure path of a bring-up too. Whatever ends a
// worker body — a handshake that refuses the coordinator's digests (workers
// holding another graph; Worker.Run reports and panics), a panic of its own,
// a returned error — reaches the coordinator as an error record that fails
// the run with the reason, and Start/Run/Close leaves nothing running, on
// either kind of transport.
func TestClusterFailedRunLeavesNoGoroutines(t *testing.T) {
	g, held := graph.BarabasiAlbert(80, 3, 1), graph.BarabasiAlbert(80, 3, 2)
	assign := shard.Hash{}.Partition(g, 2)
	bodies := []struct {
		body Body
		want string
	}{
		{func(s Seat) error {
			core.RunDistributed(held, core.Options{Rounds: 4}, s.Worker(held, assign))
			return nil
		}, "graph fingerprint mismatch"},
		{func(s Seat) error { ReadHello(s.Conn); panic("boom") }, "worker panic: boom"},
		{func(s Seat) error { ReadHello(s.Conn); return errors.New("body gave up") }, "body gave up"},
	}
	before := runtime.NumGoroutine()
	for _, tr := range []string{TransportPipe, TransportUnix} {
		for _, b := range bodies {
			cl := &Cluster{P: 2, Transport: tr, IOTimeout: 5 * time.Second}
			if err := cl.Start(b.body); err != nil {
				t.Fatalf("Start over %s: %v", tr, err)
			}
			_, _, err := cl.Run(Spec{MaxRounds: 4, GraphHash: g.Fingerprint(), PartDigest: shard.PartitionDigest(assign)}, b.body)
			cl.Close()
			if err == nil || !strings.Contains(err.Error(), b.want) {
				t.Fatalf("%s: run ended with %v, want the workers' %q", tr, err, b.want)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked across failed runs: %d before, %d after", before, got)
	}
}

// A streamed cluster's mesh inboxes are the launcher's, registered before the
// first worker runs (and a respawn's before its spawn): a worker that dials a
// peer which has not yet built its endpoint must find it accepting, not
// sleep in the dial's retry loop. Here no body ever builds one, and every
// ordered pair still dials through the broker.
func TestMeshInboxesRegisteredBeforeWorkersRun(t *testing.T) {
	const p = 4
	release := make(chan struct{})
	cl := &Cluster{P: p, Stream: true, IOTimeout: 5 * time.Second}
	if err := cl.Start(func(Seat) error { <-release; return nil }); err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	defer close(release)
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			if src == dst {
				continue
			}
			c, err := cl.broker.dial(src, 0, dst)
			if err != nil {
				t.Fatalf("dial %d→%d before any worker built its mesh: %v", src, dst, err)
			}
			c.Close()
		}
	}
}
