package net

import (
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"distkcore/internal/codec"
	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// The churn acceptance criterion on the socket transport: a churned
// cluster run — pre-churn graph in, delta shipped over the wire, workers
// applying and rebalancing independently under pinned digests — must
// produce Metrics and surviving-number hashes byte-identical to a fresh
// SeqEngine run on the mutated graph, over generators × seeds × P ×
// partitioner.
func TestChurnedNetEquivalence(t *testing.T) {
	hashB := func(b []float64) uint64 {
		h := uint64(1469598103934665603)
		for _, x := range b {
			h = (h ^ math.Float64bits(x)) * 1099511628211
		}
		return h
	}
	for _, seed := range []int64{2, 9} {
		graphs := map[string]*graph.Graph{
			"ba": graph.BarabasiAlbert(120, 3, seed),
			"ws": graph.WattsStrogatz(90, 4, 0.2, seed+1),
		}
		for name, g := range graphs {
			delta := dist.RandomChurn(g, 50, seed+2)
			g2, err := delta.Apply(g)
			if err != nil {
				t.Fatal(err)
			}
			T := core.TForEpsilon(g.N(), 0.5)
			opt := core.Options{Rounds: T, Lambda: quantize.NewPowerGrid(0.1)}
			ref, refMet := core.RunDistributed(g2, opt, dist.SeqEngine{})
			for _, p := range []int{1, 2, 4} {
				for _, part := range []shard.Partitioner{shard.Hash{}, shard.Greedy{}} {
					eng := NewEngine(p, part)
					eng.Churn(delta, 0)
					res, met := core.RunDistributed(g, opt, eng)
					tag := fmt.Sprintf("seed %d %s net:%d/%s", seed, name, p, part.Name())
					if met != refMet {
						t.Fatalf("%s: churned metrics %+v, fresh %+v", tag, met, refMet)
					}
					if hashB(res.B) != hashB(ref.B) {
						t.Fatalf("%s: churned surviving-number hash diverges from fresh run", tag)
					}
					if cm := eng.ChurnMetrics(); cm.FrontierSize == 0 || cm.DeltaBytes == 0 {
						t.Fatalf("%s: churn ledger empty: %+v", tag, cm)
					}
				}
			}
		}
	}
}

// The same churned bytes must survive a real kernel socket, and the
// cluster ledger must match the in-process sharded engine's for the
// identical churned configuration — frame-for-frame, byte-for-byte.
func TestChurnedUnixTransportAndLedger(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 6)
	delta := dist.RandomChurn(g, 80, 7)
	g2, err := delta.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T}
	ref, refMet := core.RunDistributed(g2, opt, dist.SeqEngine{})

	se := shard.NewEngine(3, shard.Greedy{})
	se.Churn(delta, 0)
	core.RunDistributed(g, opt, se)

	ne := NewEngine(3, shard.Greedy{})
	ne.Transport = TransportUnix
	ne.Churn(delta, 0)
	res, met := core.RunDistributed(g, opt, ne)
	if met != refMet || !reflect.DeepEqual(res.B, ref.B) {
		t.Fatal("churned unix-socket run diverges from fresh seq run on the mutated graph")
	}
	ssm, nsm := se.ShardMetrics(), ne.ClusterMetrics()
	if ssm.CrossMessages != nsm.CrossMessages || ssm.CrossFrameBytes != nsm.CrossFrameBytes ||
		!reflect.DeepEqual(ssm.PerShardBytes, nsm.PerShardBytes) {
		t.Fatalf("churned ledgers diverge:\n shard %+v\n net   %+v", ssm, nsm)
	}
	if !reflect.DeepEqual(se.ChurnMetrics(), ne.ChurnMetrics()) {
		t.Fatalf("churn ledgers diverge:\n shard %+v\n net   %+v", se.ChurnMetrics(), ne.ChurnMetrics())
	}
}

// churnPair wires one coordinator↔worker pipe pair for handshake tests.
func churnPair(t *testing.T, g *graph.Graph, assign []int, part shard.Partitioner, worker func(w *Worker) error) (*Conn, *sync.WaitGroup) {
	t.Helper()
	a, b := net.Pipe()
	cc, wc := NewConn(a), NewConn(b)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer wc.Close()
		w := NewWorker(wc, g, assign)
		w.Part = part
		if err := worker(w); err != nil {
			wc.SendError(err)
		}
	}()
	return cc, &wg
}

// A delta record whose batch does not match the hello's pinned digest must
// abort the run — the worker may not apply unverified churn.
func TestChurnHandshakeRejectsDeltaMismatch(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, 1)
	part := shard.Greedy{}
	assign := part.Partition(g, 1)
	delta := dist.RandomChurn(g, 20, 3)
	evil := dist.RandomChurn(g, 20, 4) // different batch, different digest
	g2, err := delta.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	runAssign, _ := shard.RebalanceWithMetrics(part, g2, 1, assign, delta, 0)

	cc, wg := churnPair(t, g, assign, part, func(w *Worker) error {
		_, err := w.run(g, func(graph.NodeID) dist.Program { return nil }, 3)
		return err
	})
	defer cc.Close()
	_, _, err = RunCoordinator([]*Conn{cc}, Spec{
		P: 1, MaxRounds: 3,
		GraphHash:  g2.Fingerprint(),
		PartDigest: shard.PartitionDigest(runAssign),
		Delta:      evil, // digest in the hello is evil's; worker rejects... nothing —
		// both digest and record describe evil, so the mismatch surfaces as
		// the post-churn graph fingerprint check.
	})
	cc.Close()
	wg.Wait()
	if err == nil {
		t.Fatal("coordinator accepted a worker that applied a different delta")
	}
}

// A delta record that does not hash to the hello's DeltaDigest must be
// rejected before it is applied — the worker trusts the pinned digest, not
// the record.
func TestChurnDeltaRecordDigestMismatch(t *testing.T) {
	g := graph.BarabasiAlbert(40, 3, 3)
	part := shard.Greedy{}
	assign := part.Partition(g, 1)
	delta := dist.RandomChurn(g, 10, 3)
	evil := dist.RandomChurn(g, 10, 4)
	a, b := net.Pipe()
	cc, wc := NewConn(a), NewConn(b)
	defer cc.Close()
	defer wc.Close()
	go func() {
		h := codec.Hello{Version: codec.HandshakeVersion, P: 1, MaxRounds: 3,
			GraphHash: 0xdead, PartDigest: 0xbeef, DeltaDigest: delta.Digest()}
		cc.WriteRecord(recHello, codec.AppendHello(nil, h))
		cc.WriteRecord(recDelta, shard.AppendDelta(nil, 0, evil))
		cc.Flush()
	}()
	w := NewWorker(wc, g, assign)
	w.Part = part
	_, err := w.run(g, func(graph.NodeID) dist.Program { return nil }, 3)
	if err == nil || !strings.Contains(err.Error(), "delta digest") {
		t.Fatalf("worker error = %v, want a delta digest mismatch", err)
	}
}

// A worker without a partitioner cannot rerun the rebalance; a churn hello
// must abort rather than run on an unrebalanced assignment.
func TestChurnHandshakeRequiresPartitioner(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, 2)
	part := shard.Greedy{}
	assign := part.Partition(g, 1)
	delta := dist.RandomChurn(g, 10, 5)
	g2, _ := delta.Apply(g)
	runAssign, _ := shard.RebalanceWithMetrics(part, g2, 1, assign, delta, 0)

	a, b := net.Pipe()
	cc, wc := NewConn(a), NewConn(b)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer wc.Close()
		w := NewWorker(wc, g, assign) // Part deliberately unset
		if _, err := w.run(g, func(graph.NodeID) dist.Program { return nil }, 3); err != nil {
			wc.SendError(err)
		}
	}()
	_, _, err := RunCoordinator([]*Conn{cc}, Spec{
		P: 1, MaxRounds: 3,
		GraphHash:  g2.Fingerprint(),
		PartDigest: shard.PartitionDigest(runAssign),
		Delta:      delta,
	})
	cc.Close()
	wg.Wait()
	if err == nil {
		t.Fatal("coordinator accepted a churn run from a worker with no partitioner")
	}
}

// The cmd/cluster flow under churn: workers resolve inputs, apply the
// delta, run the protocol and ship their values — the coordinator must
// reassemble exactly the fresh-run vector on the mutated graph, with every
// value owned by the post-rebalance shard.
func TestChurnedCoordinatorCollectsValues(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 12)
	part := shard.Greedy{}
	const P = 3
	assign := part.Partition(g, P)
	delta := dist.RandomChurn(g, 60, 13)
	g2, err := delta.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	runAssign, cm := shard.RebalanceWithMetrics(part, g2, P, assign, delta, 0)
	if cm.MovedNodes == 0 {
		t.Fatal("test premise broken: churn moved no nodes — values would not exercise the rebalanced ownership")
	}
	T := core.TForEpsilon(g.N(), 0.5)
	ref, refMet := core.RunDistributed(g2, core.Options{Rounds: T}, dist.SeqEngine{})

	conns := make([]*Conn, P)
	var wg sync.WaitGroup
	for s := 0; s < P; s++ {
		a, b := net.Pipe()
		conns[s] = NewConn(a)
		wc := NewConn(b)
		wg.Add(1)
		go func(wc *Conn) {
			defer wg.Done()
			defer wc.Close()
			h, err := ReadHello(wc)
			if err != nil {
				wc.SendError(err)
				return
			}
			w := NewWorker(wc, g, assign)
			w.Hello = h
			w.Part = part
			res, _ := core.RunDistributed(g, core.Options{Rounds: T}, w)
			if err := w.SendValues(res.B); err != nil {
				wc.SendError(err)
			}
		}(wc)
	}
	met, rep, err := RunCoordinator(conns, Spec{
		P: P, MaxRounds: T,
		GraphHash:  g2.Fingerprint(),
		PartDigest: shard.PartitionDigest(runAssign),
		Delta:      delta,
		WantValues: true,
	})
	for _, c := range conns {
		c.Close()
	}
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if met != refMet {
		t.Fatalf("churned cluster metrics %+v, fresh seq %+v", met, refMet)
	}
	b, err := rep.Assemble(g.N())
	if err != nil {
		t.Fatal(err)
	}
	for v := range b {
		if math.Float64bits(b[v]) != math.Float64bits(ref.B[v]) {
			t.Fatalf("node %d: assembled %v, fresh seq %v", v, b[v], ref.B[v])
		}
	}
}
