package net

import (
	"net"
	"sync"
	"testing"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// The socket transport ships the exact frame bytes the in-process sharded
// engine accounts: same messages, same per-frame order (ascending sender
// within a shard), same header and body codec. So for identical (g, P,
// partitioner, Λ) the two cluster ledgers must agree to the byte.
func TestClusterLedgerMatchesShardEngine(t *testing.T) {
	g := graph.BarabasiAlbert(250, 4, 11)
	T := core.TForEpsilon(g.N(), 0.5)
	for _, lam := range []quantize.Lambda{nil, quantize.NewPowerGrid(0.1)} {
		opt := core.Options{Rounds: T, Lambda: lam}
		se := shard.NewEngine(4, shard.Greedy{})
		core.RunDistributed(g, opt, se)
		ne := NewEngine(4, shard.Greedy{})
		core.RunDistributed(g, opt, ne)
		ssm, nsm := se.ShardMetrics(), ne.ClusterMetrics()
		if ssm.CrossMessages != nsm.CrossMessages ||
			ssm.CrossFrameBytes != nsm.CrossFrameBytes ||
			ssm.MaxShardBytes != nsm.MaxShardBytes ||
			ssm.EdgeCutFraction != nsm.EdgeCutFraction {
			t.Fatalf("λ=%v: ledgers diverge:\n shard %+v\n net   %+v", lam, ssm, nsm)
		}
		for s := range ssm.PerShardBytes {
			if ssm.PerShardBytes[s] != nsm.PerShardBytes[s] {
				t.Fatalf("λ=%v: shard %d bytes %d vs %d", lam, s, ssm.PerShardBytes[s], nsm.PerShardBytes[s])
			}
		}
	}
}

// A worker whose graph disagrees with the coordinator's hello must abort
// the whole run with a fingerprint diagnosis, not run on the wrong input.
func TestHandshakeRejectsGraphMismatch(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, 1)
	other := graph.BarabasiAlbert(60, 3, 2)
	assign := shard.Hash{}.Partition(g, 2)
	a0, b0 := net.Pipe()
	a1, b1 := net.Pipe()
	coord := []*Conn{NewConn(a0), NewConn(a1)}
	workers := []*Conn{NewConn(b0), NewConn(b1)}
	var wg sync.WaitGroup
	for s, wc := range workers {
		wg.Add(1)
		go func(s int, wc *Conn) {
			defer wg.Done()
			defer wc.Close()
			held := other // worker 1 holds the wrong graph
			if s == 0 {
				held = g
			}
			w := NewWorker(wc, held, shard.Hash{}.Partition(held, 2))
			if _, err := w.run(held, func(graph.NodeID) dist.Program { return nil }, 3); err != nil {
				wc.SendError(err)
			}
		}(s, wc)
	}
	_, _, err := RunCoordinator(coord, Spec{
		P: 2, MaxRounds: 3,
		GraphHash:  g.Fingerprint(),
		PartDigest: shard.PartitionDigest(assign),
	})
	for _, c := range coord {
		c.Close()
	}
	wg.Wait()
	if err == nil {
		t.Fatal("coordinator accepted a worker holding a different graph")
	}
}

// End-to-end rehearsal of the cmd/cluster flow in one process: a
// coordinator that requests result values, workers that run the coreness
// protocol through core.RunDistributed with a Worker as the engine and ship
// their shard's B values — the coordinator must reassemble the exact
// SeqEngine vector and Metrics.
func TestCoordinatorCollectsValues(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 9)
	T := core.TForEpsilon(g.N(), 0.5)
	lam := quantize.NewPowerGrid(0.1)
	part := shard.Greedy{}
	const P = 3
	assign := part.Partition(g, P)
	ref, refMet := core.RunDistributed(g, core.Options{Rounds: T, Lambda: lam}, dist.SeqEngine{})

	coord := make([]*Conn, P)
	workers := make([]*Conn, P)
	for i := range coord {
		a, b := net.Pipe()
		coord[i], workers[i] = NewConn(a), NewConn(b)
	}
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(wc *Conn) {
			defer wg.Done()
			defer wc.Close()
			h, err := ReadHello(wc)
			if err != nil {
				t.Error(err)
				return
			}
			hlam, err := LambdaFromHello(h)
			if err != nil {
				t.Error(err)
				return
			}
			w := NewWorker(wc, g, assign)
			w.Hello = h
			res, _ := core.RunDistributed(g, core.Options{Rounds: h.MaxRounds, Lambda: hlam}, w)
			if err := w.SendValues(res.B); err != nil {
				t.Error(err)
			}
		}(workers[i])
	}
	met, rep, err := RunCoordinator(coord, Spec{
		P: P, MaxRounds: T, Lam: lam,
		GraphHash:  g.Fingerprint(),
		PartDigest: shard.PartitionDigest(assign),
		WantValues: true,
	})
	for _, c := range coord {
		c.Close()
	}
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if met != refMet {
		t.Fatalf("metrics %+v, want %+v", met, refMet)
	}
	if rep.Nodes != g.N() {
		t.Fatalf("workers own %d nodes, graph has %d", rep.Nodes, g.N())
	}
	b, err := rep.Assemble(g.N())
	if err != nil {
		t.Fatal(err)
	}
	for v := range b {
		if b[v] != ref.B[v] {
			t.Fatalf("node %d: cluster value %v, seq value %v", v, b[v], ref.B[v])
		}
	}
}
