package session

import (
	"errors"
	stdnet "net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/shard"
)

// TestSessionStatCounters opens a live session, seals a few epochs and
// checks the introspection snapshot tracks them: epochs, pushes, cumulative
// changed values and delta bytes, subscriber count, and a zeroed break
// diagnosis.
func TestSessionStatCounters(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 5)
	s, err := Open(g, Options{P: 2, Rounds: 8, Part: shard.Greedy{}, IOTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	st := s.Stat()
	if st.Epoch != 0 || st.Workers != 2 || st.Nodes != 300 || st.Pushes != 0 || st.Broken {
		t.Fatalf("epoch-0 stat wrong: %+v", st)
	}
	if st.ChainDigest != s.ChainDigest() {
		t.Fatalf("stat chain %#x, session chain %#x", st.ChainDigest, s.ChainDigest())
	}
	if st.CauseWorker != -1 {
		t.Fatalf("live stat must carry the -1 worker sentinel, got %d", st.CauseWorker)
	}

	s.Subscribe(Topic{Kind: TopicTopK, K: 5})
	cur := g
	var changed int64
	for e := 1; e <= 3; e++ {
		d := dist.RandomChurn(cur, 30, int64(e))
		rep, err := s.Push(d, 0)
		if err != nil {
			t.Fatalf("push %d: %v", e, err)
		}
		changed += int64(len(rep.Changed))
		if cur, err = d.Apply(cur); err != nil {
			t.Fatal(err)
		}
	}
	st = s.Stat()
	if st.Epoch != 3 || st.Pushes != 3 || st.Rejected != 0 {
		t.Fatalf("post-push stat wrong: %+v", st)
	}
	if st.Changed != changed {
		t.Fatalf("stat changed %d, reports said %d", st.Changed, changed)
	}
	if st.DeltaBytes <= 0 || st.EpochMicros <= 0 {
		t.Fatalf("cumulative epoch cost not tracked: %+v", st)
	}
	if st.Subscribers != 1 {
		t.Fatalf("stat subscribers %d, want 1", st.Subscribers)
	}

	// StatView (the lock-free snapshot the expvar handler reads) must have
	// been refreshed by the last seal.
	sv := s.co.StatView()
	if sv.Epoch != 3 || sv.ChainDigest != st.ChainDigest {
		t.Fatalf("StatView stale: %+v vs %+v", sv, st)
	}

	// An epoch's clock starts before the coordinator validates the batch; a
	// rejected one must still cost the ledger nothing.
	if _, err := s.Push(dist.GraphDelta{Ops: []dist.EdgeOp{{Del: true, U: 0, V: 0}}}, 0); err == nil {
		t.Fatal("delete of a missing loop accepted")
	}
	if rej := s.Stat(); rej.Rejected != 1 || rej.Pushes != 3 || rej.EpochMicros != st.EpochMicros {
		t.Fatalf("rejected push moved the epoch ledger: %+v, before %+v", rej, st)
	}
	// The one rejection a client can trigger at will (`cluster push -ops 0`)
	// counts like every other.
	if _, err := s.Push(dist.GraphDelta{}, 0); err == nil {
		t.Fatal("empty delta accepted")
	}
	if rej := s.Stat(); rej.Rejected != 2 || rej.Pushes != 3 || s.co.StatView().Rejected != 2 {
		t.Fatalf("empty push not counted as a rejection: %+v", rej)
	}
}

// TestBreakCauseAttribution drives the broken latch directly through the
// coordinator's fail path and checks the structured diagnosis — epoch,
// phase, implicated worker, underlying error — survives into Err, Cause,
// Stat and StatView, and that the session refuses further pushes.
func TestBreakCauseAttribution(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 5)
	s, err := Open(g, Options{P: 2, Rounds: 6, Part: shard.Greedy{}, IOTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	boom := errors.New("connection reset by peer")
	ret := s.co.fail(3, "reconverge", faultOf(1, boom))

	bc := s.Cause()
	if bc == nil {
		t.Fatal("no BreakCause after fail")
	}
	if bc.Epoch != 3 || bc.Phase != "reconverge" || bc.Worker != 1 {
		t.Fatalf("attribution wrong: %+v", bc)
	}
	if !errors.Is(bc, boom) {
		t.Fatal("BreakCause does not unwrap to the underlying error")
	}
	if !strings.Contains(bc.Error(), "epoch 3") || !strings.Contains(bc.Error(), "worker 1") {
		t.Fatalf("diagnosis text incomplete: %q", bc.Error())
	}
	if !errors.Is(ret, boom) || s.Err() == nil {
		t.Fatal("fail must latch and return the cause")
	}

	st := s.Stat()
	if !st.Broken || st.CauseEpoch != 3 || st.CauseWorker != 1 || st.CausePhase != "reconverge" {
		t.Fatalf("stat diagnosis wrong: %+v", st)
	}
	if sv := s.co.StatView(); !sv.Broken || sv.CauseWorker != 1 {
		t.Fatalf("StatView not refreshed by the break: %+v", sv)
	}

	if _, err := s.Push(dist.RandomChurn(g, 5, 1), 0); err == nil {
		t.Fatal("broken session accepted a push")
	}
}

// TestFaultOfPassthrough pins the tagging rules: worker -1 and nil errors
// pass through untouched, so unattributable failures stay plain.
func TestFaultOfPassthrough(t *testing.T) {
	if faultOf(-1, errors.New("x")) == nil {
		t.Fatal("faultOf(-1) dropped the error")
	}
	var wf *workerFault
	if errors.As(faultOf(-1, errors.New("x")), &wf) {
		t.Fatal("faultOf(-1) tagged a worker")
	}
	if faultOf(2, nil) != nil {
		t.Fatal("faultOf(_, nil) fabricated an error")
	}
	if !errors.As(faultOf(2, errors.New("x")), &wf) || wf.worker != 2 {
		t.Fatal("faultOf(2) did not tag worker 2")
	}
}

// TestSessionTracedEpochsIdentical runs the same epoch sequence through a
// traced and an untraced session: every digest must match bit for bit
// (tracing cannot perturb executions), and the traced session must have
// collected repair/rebalance/publish/epoch spans for the sealed epochs.
func TestSessionTracedEpochsIdentical(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 5)
	open := func(tr *obs.Tracer) *Session {
		s, err := Open(g, Options{P: 2, Rounds: 8, Part: shard.Greedy{}, IOTimeout: 30 * time.Second, Trace: tr})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return s
	}
	tr := obs.NewTracer()
	plain, traced := open(nil), open(tr)
	defer plain.Close()
	defer traced.Close()

	cur := g
	for e := 1; e <= 3; e++ {
		d := dist.RandomChurn(cur, 25, int64(10+e))
		rp, err1 := plain.Push(d, 0)
		rt, err2 := traced.Push(d, 0)
		if err1 != nil || err2 != nil {
			t.Fatalf("push %d: plain %v, traced %v", e, err1, err2)
		}
		if rp.ChainDigest != rt.ChainDigest || rp.ValuesDigest != rt.ValuesDigest {
			t.Fatalf("epoch %d: tracing changed the execution: plain chain %#x values %#x, traced chain %#x values %#x",
				e, rp.ChainDigest, rp.ValuesDigest, rt.ChainDigest, rt.ValuesDigest)
		}
		if cur, err1 = d.Apply(cur); err1 != nil {
			t.Fatal(err1)
		}
	}
	// A rejected batch opens an epoch span it never ends: none is recorded.
	if _, err := traced.Push(dist.GraphDelta{Ops: []dist.EdgeOp{{Del: true, U: 0, V: 0}}}, 0); err == nil {
		t.Fatal("delete of a missing loop accepted")
	}
	seen := map[string]bool{}
	for _, pt := range tr.Trace().PhaseTotals() {
		seen[pt.Phase] = true
		if pt.Phase == "epoch" && pt.Spans != 3 {
			t.Fatalf("%d epoch spans for 3 sealed epochs and one rejection", pt.Spans)
		}
	}
	for _, want := range []string{"repair", "rebalance", "publish", "epoch"} {
		if !seen[want] {
			t.Fatalf("traced session missing %q spans; got %v", want, seen)
		}
	}
}

// A stat request is empty (DESIGN.md §8.2). The server answers an empty one
// and refuses one that carries a body the way it refuses a malformed
// subscribe: an error record, then the client is dropped — while it goes on
// serving everyone else.
func TestServeRefusesAStatRequestWithABody(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 5)
	s, err := Open(g, Options{P: 2, Rounds: 8, Part: shard.Greedy{}, IOTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	dir, err := os.MkdirTemp("", "dkc")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ln, err := stdnet.Listen("unix", filepath.Join(dir, "ctl"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() { served <- Serve(s.co, ln, nil) }()

	dial := func() *net.Conn {
		t.Helper()
		nc, err := stdnet.Dial("unix", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return net.NewConn(nc)
	}
	stat := func(c *net.Conn) {
		t.Helper()
		if err := c.Send(net.RecStat, nil); err != nil {
			t.Fatal(err)
		}
		typ, body, err := c.AwaitRecord()
		if err != nil || typ != net.RecStat {
			t.Fatalf("stat request answered with record %d (%q), err %v", typ, body, err)
		}
		if st, err := codec.DecodeStat(body); err != nil || st.Nodes != g.N() {
			t.Fatalf("stat reply %+v, err %v", st, err)
		}
	}
	good, bad := dial(), dial()
	defer good.Close()
	defer bad.Close()
	stat(good)

	if err := bad.Send(net.RecStat, []byte{0}); err != nil {
		t.Fatal(err)
	}
	typ, body, err := bad.AwaitRecord()
	if err != nil || typ != net.RecError || !strings.Contains(string(body), "stat request") {
		t.Fatalf("a stat request with a body was answered with record %d (%q), err %v", typ, body, err)
	}
	if typ, _, err := bad.AwaitRecord(); err == nil {
		t.Fatalf("the client that sent it was not dropped: record %d", typ)
	}

	stat(good)
	if err := good.Send(net.RecBye, []byte("shutdown")); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}
