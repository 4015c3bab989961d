package net

import (
	"encoding/binary"
	"errors"
	stdnet "net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/obs"
	"distkcore/internal/shard"
)

// The streamed round (DESIGN.md §8.4) is closed by the peers and verified
// behind them. These tests hold the coordinator to what is left of it: three
// records a worker a run, a verification that still catches a liar a round at
// a time, no place on the workers' critical path, and an abort that ends every
// incarnation's waits.

// eachRecord calls fn for every whole record in p, a buffer that starts at a
// record boundary (what a Conn hands its connection in one Write), and returns
// p — a copy if fn asked, by returning true, to flip the low bit of the
// record's last byte.
func eachRecord(p []byte, fn func(typ byte, body []byte) (flip bool)) []byte {
	for off := 0; off < len(p); {
		n, k := binary.Uvarint(p[off:])
		end := off + k + int(n)
		if k <= 0 || n == 0 || end > len(p) {
			break
		}
		if fn(p[off+k], p[off+k+1:end]) {
			p = append([]byte(nil), p...)
			p[end-1] ^= 1
		}
		off = end
	}
	return p
}

// writeTap sees every record written through a connection.
type writeTap struct {
	stdnet.Conn
	fn func(typ byte, body []byte) (flip bool)
}

func (c writeTap) Write(p []byte) (int, error) { return c.Conn.Write(eachRecord(p, c.fn)) }

// goroutinesSettle fails the test unless the goroutine count returns to before.
func goroutinesSettle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, got, buf[:runtime.Stack(buf, true)])
	}
}

// handWorkers runs p streamed workers of a coreness run on g by hand — their
// mesh an in-process broker, their coordinator connections workers[s] — each
// shipping its values, and returns a function that waits for them.
func handWorkers(t *testing.T, g *graph.Graph, opt core.Options, assign []int, workers []*Conn, tr *obs.Tracer) (wait func()) {
	br := newMeshBroker(len(workers))
	var wg sync.WaitGroup
	for s, wc := range workers {
		w := NewWorker(wc, g, assign)
		ib := br.register(s)
		w.MeshDial, w.MeshAccept, w.MeshClose, w.Trace = br.dial, ib.accept, func() { br.close(ib) }, tr
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer wc.Close()
			var err error
			if w.Hello, err = ReadHello(wc); err == nil {
				res, _ := core.RunDistributed(g, opt, w)
				err = w.SendValues(res.B)
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	return wg.Wait
}

// A fault-free streamed run costs each worker three records from the
// coordinator — hello, go, finish — whatever the round count: counted where
// the coordinator's Conn writes them.
func TestStreamedRunSendsThreeControlRecords(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 11)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T}
	ref, refMet := core.RunDistributed(g, opt, dist.SeqEngine{})
	assign := shard.Hash{}.Partition(g, 3)
	var mu sync.Mutex
	sent := make([][]byte, 3) // record types, in order, per worker
	conns, workers := make([]*Conn, 3), make([]*Conn, 3)
	for s := range conns {
		a, b := stdnet.Pipe()
		conns[s], workers[s] = NewConn(writeTap{a, func(typ byte, _ []byte) bool {
			mu.Lock()
			sent[s] = append(sent[s], typ)
			mu.Unlock()
			return false
		}}), NewConn(b)
	}
	wait := handWorkers(t, g, opt, assign, workers, nil)
	met, rep, err := RunCoordinator(conns, Spec{P: 3, Stream: true, MaxRounds: T, WantValues: true,
		GraphHash: g.Fingerprint(), PartDigest: shard.PartitionDigest(assign)})
	for _, c := range conns {
		c.Close()
	}
	wait()
	if err != nil || met != refMet || met.Rounds < 10 {
		t.Fatalf("metrics %+v (%v), want %+v over at least 10 rounds", met, err, refMet)
	}
	if b, err := rep.Assemble(g.N()); err != nil || !reflect.DeepEqual(b, ref.B) {
		t.Fatalf("values diverge from seq (%v)", err)
	}
	for s, got := range sent {
		if want := []byte{recHello, recStep, recFinish}; !reflect.DeepEqual(got, want) {
			t.Errorf("worker %d was sent records %v, want hello, go, finish %v", s, got, want)
		}
	}
}

// Verifying behind the workers is still verifying: an ack whose digest is
// changed in flight — the workers themselves agree and run on — aborts the run
// at that round's verification, naming the round and the worker whose record
// disagrees, and nothing outlives the abort.
func TestVerifyBehindCatchesALiar(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 11)
	assign := shard.Hash{}.Partition(g, 3)
	const liar, round = 2, 4
	for _, tr := range []string{TransportPipe, TransportUnix} {
		before := runtime.NumGoroutine()
		body := func(s Seat) error {
			if s.Shard == liar {
				s.Conn = NewConn(writeTap{s.Conn.nc, func(typ byte, body []byte) bool {
					r, _ := binary.Uvarint(body)
					return typ == recStreamAck && r == round
				}})
			}
			w := s.Worker(g, assign)
			_, err := w.run(g, func(graph.NodeID) dist.Program { return flood{} }, 8)
			return err
		}
		cl := &Cluster{P: 3, Transport: tr, IOTimeout: 10 * time.Second, Stream: true}
		if err := cl.Start(body); err != nil {
			t.Fatal(err)
		}
		_, _, err := cl.Run(Spec{MaxRounds: 8, GraphHash: g.Fingerprint(), PartDigest: shard.PartitionDigest(assign)}, body)
		cl.Close()
		var re *RunError
		if !errors.As(err, &re) || re.Round != round || re.Worker != liar || re.Phase != obs.PhaseVerify || !strings.Contains(err.Error(), "mismatch") {
			t.Errorf("%s: run ended with %v, want a verify failure at round %d naming worker %d", tr, err, round, liar)
		}
		goroutinesSettle(t, before)
	}
}

// flood broadcasts its ID every round and never halts: frames on every flow of
// every round.
type flood struct{}

func (flood) Init(c *dist.Ctx)                    { c.Broadcast(dist.Message{F0: float64(c.ID())}) }
func (flood) Round(c *dist.Ctx, _ []dist.Message) { c.Broadcast(dist.Message{F0: float64(c.ID())}) }

// slowConn delays every read by 50 ms and hands back at most 32 bytes of it:
// a reader that takes upwards of 50 ms a record.
type slowConn struct{ stdnet.Conn }

func (c slowConn) Read(p []byte) (int, error) {
	time.Sleep(50 * time.Millisecond)
	return c.Conn.Read(p[:min(len(p), 32)])
}

// A slow coordinator does not slow the workers: with the hub's readers taking
// 50 ms a record the run still ends byte-identical, and the workers have
// closed their last round before the coordinator verifies its second. On unix
// sockets — a net.Pipe write is a rendezvous with the read, by definition.
func TestSlowCoordinatorDoesNotSlowWorkers(t *testing.T) {
	g := graph.BarabasiAlbert(80, 3, 2)
	opt := core.Options{Rounds: 6}
	ref, refMet := core.RunDistributed(g, opt, dist.SeqEngine{})
	assign := shard.Hash{}.Partition(g, 2)
	conns, workers, cleanup, err := DialCluster(TransportUnix, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	for s := range conns {
		conns[s] = NewConn(slowConn{conns[s].nc})
	}
	tr := obs.NewTracer()
	wait := handWorkers(t, g, opt, assign, workers, tr)
	met, rep, err := RunCoordinator(conns, Spec{P: 2, Stream: true, MaxRounds: 6, WantValues: true, Trace: tr,
		GraphHash: g.Fingerprint(), PartDigest: shard.PartitionDigest(assign)})
	for _, c := range conns {
		c.Close()
	}
	wait()
	if err != nil || met != refMet {
		t.Fatalf("metrics %+v (%v), want %+v", met, err, refMet)
	}
	if b, err := rep.Assemble(g.N()); err != nil || !reflect.DeepEqual(b, ref.B) {
		t.Fatalf("values diverge from seq (%v)", err)
	}
	var lastDeliver, secondVerify time.Duration
	for _, s := range tr.Trace().Spans {
		switch {
		case s.Phase == obs.PhaseDeliver && s.Round == met.Rounds:
			lastDeliver = max(lastDeliver, s.End)
		case s.Phase == obs.PhaseVerify && s.Round == 1:
			secondVerify = s.Start
		}
	}
	if lastDeliver == 0 || secondVerify == 0 || lastDeliver >= secondVerify {
		t.Errorf("the workers' last delivery ended at %v, the coordinator began verifying round 1 at %v", lastDeliver, secondVerify)
	}
}

// The one third outcome PR 21 wrote down: a run that aborts while a respawned
// streamed worker is on its mesh must not leave Close waiting for it. Worker 1
// dies; its successor is held mid-catch-up while worker 0's connection is cut
// and its respawn refused, which aborts the run; released, the successor — and
// the survivor waiting for both — end on the abort their control connections
// bring, and Close returns.
func TestAbortMidCatchUpLeavesNothingWaiting(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 11)
	assign := shard.Hash{}.Partition(g, 3)
	for _, tr := range []string{TransportPipe, TransportUnix} {
		before := runtime.NumGoroutine()
		cl := &Cluster{P: 3, Transport: tr, IOTimeout: 10 * time.Second, Stream: true}
		var once sync.Once
		aborted := make(chan struct{})
		body := func(s Seat) error {
			w := s.Worker(g, assign)
			w.ChunkBytes = 256
			w.Kill = func(ph obs.Phase, r int) bool {
				switch {
				case s.gen == 0 && s.Shard == 1 && ph == obs.PhaseDeliver && r == 3:
					return true
				case s.gen == 1 && ph == obs.PhaseStep && r == 1:
					once.Do(func() { cl.Hub.Conn(0).Close() })
					<-aborted
				}
				return false
			}
			_, err := w.run(g, func(graph.NodeID) dist.Program { return flood{} }, 8)
			return err
		}
		if err := cl.Start(body); err != nil {
			t.Fatal(err)
		}
		_, _, err := cl.Hub.Run(Spec{P: 3, Stream: true, Recover: true, MaxRounds: 8,
			GraphHash: g.Fingerprint(), PartDigest: shard.PartitionDigest(assign),
			Respawn: func(s, gen int) (*Conn, error) {
				if s == 0 {
					return nil, errors.New("no spare for worker 0")
				}
				return cl.Respawn(s, gen, body)
			}})
		close(aborted)
		closed := make(chan struct{})
		go func() { cl.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(20 * time.Second):
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: Close still waiting 20 s after the abort\n%s", tr, buf[:runtime.Stack(buf, true)])
		}
		var re *RunError
		if !errors.As(err, &re) || re.Worker != 0 || !strings.Contains(err.Error(), "no spare") {
			t.Errorf("%s: run ended with %v, want the refused respawn of worker 0", tr, err)
		}
		goroutinesSettle(t, before)
	}
}

// One timer serves every reply wait of a hub: taking a record under an armed
// Timeout allocates nothing.
func TestHubTakeReusesItsTimer(t *testing.T) {
	a, b := stdnet.Pipe()
	defer a.Close()
	defer b.Close()
	h := NewHub([]*Conn{NewConn(a)})
	defer h.Close()
	h.Timeout = time.Minute
	h.ch <- inRec{}
	h.take() // the first call makes the timer
	if n := testing.AllocsPerRun(100, func() {
		h.ch <- inRec{}
		if r := h.take(); r.err != nil {
			t.Fatal(r.err)
		}
	}); n != 0 {
		t.Errorf("Hub.take allocates %v times a call with a timeout armed", n)
	}
}
