package session

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	net "distkcore/internal/net"
	"distkcore/internal/net/faultnet"
	"distkcore/internal/obs"
	"distkcore/internal/shard"
)

// The session-level recovery contract (DESIGN.md §13): a worker killed
// while epoch e is being sealed is respawned, recomputes its state from the
// committed graph, is re-admitted at epoch e-1 and pushed e again —
// and the chain through e, e+1, e+2 is bit-identical to a session that
// never saw the fault. The stat must report a recovery count, not BROKEN.

// sessionKillPhases name the sweep's cells: a worker dies at the write of its
// reconverge with the record unsent (PhaseRepair: nothing of the epoch is in
// from it) or just after it went out (PhaseRebalance: the epoch's one reply is
// in, and the death surfaces inside the collection if it is still open, else
// at the next epoch's push).
var sessionKillPhases = []obs.Phase{obs.PhaseRepair, obs.PhaseRebalance}

// epochOf is the faultnet.Fault.Body of a record that opens with epoch (or
// round) e, as a reconverge and a done record do.
func epochOf(e int) []byte { return binary.AppendUvarint(nil, uint64(e)) }

// killWorkerAt is the Options.wrap of one clean death of worker target, once
// across its incarnations: at the write of its reconverge of epoch e (phase
// PhaseRepair: before it goes out, PhaseRebalance: after).
func killWorkerAt(target int, ph obs.Phase, e int) net.LinkFunc {
	f := faultnet.Fault{Shard: target, Peer: faultnet.Control, Type: net.RecReconverge, Body: epochOf(e), Action: faultnet.After}
	if ph == obs.PhaseRepair {
		f.Action = faultnet.Before
	}
	return faultnet.New(f).Wrap
}

// cell runs one fault cell under a deadline — past it the test binary dies
// with every goroutine's stack — then holds the goroutine count to what it
// was before.
func cell(t *testing.T, body func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	dog := time.AfterFunc(time.Minute, func() {
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("%s: fault cell still running after a minute\n%s", t.Name(), buf[:runtime.Stack(buf, true)]))
	})
	defer dog.Stop()
	body()
	settle(t, before, t.Name())
}

// epochTrace drives a session through the given deltas and records each
// epoch's chain digest and change set plus the final value vector.
type epochTrace struct {
	chains  []uint64
	changes [][]ValueChange
	values  []float64
}

// driveEpochs pushes deltas (chained from g, as recoveryDeltas built them)
// and holds every sealed stamp's rolling graph hash to a from-scratch
// recompute on the client's own Apply chain.
func driveEpochs(t *testing.T, s *Session, g *graph.Graph, deltas []dist.GraphDelta) epochTrace {
	t.Helper()
	var tr epochTrace
	for e, d := range deltas {
		rep, err := s.Push(d, 0)
		if err != nil {
			t.Fatalf("epoch %d push: %v", e+1, err)
		}
		if g, err = d.Apply(g); err != nil {
			t.Fatal(err)
		}
		if rep.GraphHash != g.EdgeSetHash() {
			t.Fatalf("epoch %d: rolling graph hash %#x, from scratch %#x", e+1, rep.GraphHash, g.EdgeSetHash())
		}
		tr.chains = append(tr.chains, rep.ChainDigest)
		tr.changes = append(tr.changes, rep.Changed)
	}
	tr.values = s.Values()
	return tr
}

func recoveryDeltas(g *graph.Graph, epochs int) []dist.GraphDelta {
	var ds []dist.GraphDelta
	cur := g
	for e := 0; e < epochs; e++ {
		d := dist.RandomChurn(cur, 30, int64(500+e))
		ds = append(ds, d)
		next, err := d.Apply(cur)
		if err != nil {
			panic(err)
		}
		cur = next
	}
	return ds
}

func TestSessionRecoverySweep(t *testing.T) {
	const (
		n      = 300
		T      = 8
		p      = 3
		epochs = 4 // kill during epoch 2, verify chain through epoch 4 = e+2
	)
	g := graph.BarabasiAlbert(n, 3, 9)
	part := shard.Greedy{}
	deltas := recoveryDeltas(g, epochs)
	open := func(wrap net.LinkFunc) *Session {
		t.Helper()
		s, err := Open(g, Options{
			P: p, Rounds: T, Part: part,
			IOTimeout: 10 * time.Second, wrap: wrap,
		})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return s
	}

	ref := open(nil)
	want := driveEpochs(t, ref, g, deltas)
	if ref.Recoveries() != 0 {
		t.Fatalf("undisturbed session recovered %d times", ref.Recoveries())
	}
	ref.Close()

	for w := 0; w < p; w++ {
		for _, ph := range sessionKillPhases {
			t.Run(obs.Phase.String(ph)+"/w"+string(rune('0'+w)), func(t *testing.T) {
				var s *Session
				var got epochTrace
				cell(t, func() {
					s = open(killWorkerAt(w, ph, 2))
					defer s.Close()
					got = driveEpochs(t, s, g, deltas)
				})
				if rec := s.Recoveries(); rec < 1 {
					t.Fatalf("kill point never recovered (recoveries=%d)", rec)
				}
				if !reflect.DeepEqual(got.chains, want.chains) {
					t.Errorf("chain digests %#x, want %#x", got.chains, want.chains)
				}
				for e := range want.changes {
					if !reflect.DeepEqual(got.changes[e], want.changes[e]) {
						t.Errorf("epoch %d change set diverges from undisturbed session", e+1)
					}
				}
				for v := range want.values {
					if math.Float64bits(got.values[v]) != math.Float64bits(want.values[v]) {
						t.Fatalf("value diverges at node %d: recovered %v, undisturbed %v", v, got.values[v], want.values[v])
					}
				}
				st := s.Stat()
				if st.Broken {
					t.Fatalf("recovered session reports BROKEN: %s", st.Cause)
				}
				if st.Recoveries < 1 {
					t.Fatalf("stat reports %d recoveries", st.Recoveries)
				}
				if err := s.Err(); err != nil {
					t.Fatalf("recovered session holds error: %v", err)
				}
			})
		}
	}
}

// openDeathMidCollection opens a recovering session on g whose worker 0 dies
// just after its epoch-2 reconverge is out, while worker 1's is held until
// the coordinator has re-admitted worker 0: the death lands with the epoch's
// collection still open. With flip, the successor's reconverge goes out with
// its last bit flipped. Call the returned func to end the hold and close.
func openDeathMidCollection(t *testing.T, g *graph.Graph, flip bool) (*Session, func()) {
	t.Helper()
	sched := []faultnet.Fault{
		{Shard: 1, Peer: faultnet.Control, Type: net.RecReconverge, Body: epochOf(2), Action: faultnet.Hold},
		{Shard: 0, Peer: faultnet.Control, Type: net.RecReconverge, Body: epochOf(2), Action: faultnet.After},
	}
	if flip {
		sched = append(sched, faultnet.Fault{Shard: 0, Gen: 1, Peer: faultnet.Control, Type: net.RecReconverge, Body: epochOf(2), Action: faultnet.Flip})
	}
	fn := faultnet.New(sched...)
	s, err := Open(g, Options{P: 3, Rounds: 8, Part: shard.Greedy{}, IOTimeout: 10 * time.Second, wrap: fn.Wrap})
	if err != nil {
		fn.Release()
		t.Fatalf("Open: %v", err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		defer fn.Release()
		for s.co.StatView().Recoveries < 1 {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	return s, func() {
		close(stop)
		<-done
		s.Close()
	}
}

// A worker that dies after its reconverge got out, inside the collection, is
// re-admitted and re-pushed there, and its successor's reconverge is held to
// the dead one's bytes: the session seals on as if nothing happened.
func TestSessionDeathMidCollection(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 9)
	deltas := recoveryDeltas(g, 3)
	ref, err := Open(g, Options{P: 3, Rounds: 8, Part: shard.Greedy{}, IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := driveEpochs(t, ref, g, deltas)
	ref.Close()
	var s *Session
	var got epochTrace
	cell(t, func() {
		var end func()
		s, end = openDeathMidCollection(t, g, false)
		defer end()
		got = driveEpochs(t, s, g, deltas)
	})
	if s.Recoveries() != 1 || s.Stat().Broken {
		t.Fatalf("%d recoveries, broken %v: want one recovery and a live session", s.Recoveries(), s.Stat().Broken)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered session diverges from the undisturbed one:\nchains %#x\nwant   %#x", got.chains, want.chains)
	}
}

// The same death, but the successor's reconverge is not the dead one's: that
// is a fork, not a death, and the session breaks at the epoch naming the
// worker.
func TestSessionForkedSuccessorBreaks(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 9)
	deltas := recoveryDeltas(g, 3)
	cell(t, func() {
		s, end := openDeathMidCollection(t, g, true)
		defer end()
		if _, err := s.Push(deltas[0], 0); err != nil {
			t.Fatalf("epoch 1: %v", err)
		}
		if _, err := s.Push(deltas[1], 0); err == nil {
			t.Fatal("epoch 2 sealed on a successor that differs from its dead incarnation")
		}
		bc := s.Cause()
		if bc == nil || bc.Epoch != 2 || bc.Phase != "reconverge" || bc.Worker != 0 ||
			!strings.Contains(bc.Error(), "differs from its dead incarnation's") {
			t.Fatalf("break cause %v, want epoch 2, phase reconverge, worker 0, a successor that differs from its dead incarnation", bc)
		}
		if s.Recoveries() != 1 || !s.Stat().Broken {
			t.Fatalf("%d recoveries, broken %v: want one recovery, then a break", s.Recoveries(), s.Stat().Broken)
		}
		if _, err := s.Push(deltas[2], 0); err == nil {
			t.Fatal("broken session accepted a later push")
		}
	})
}

// A kill at the epoch-0 reconverge — before it goes out or after — is a
// death before the seal: the worker is respawned and handed the hello again,
// and the session must still open, seal epoch 0 and run epochs
// bit-identically to an undisturbed session, the recovery counted.
func TestSessionRecoveryDuringEpochZero(t *testing.T) {
	g := graph.BarabasiAlbert(250, 3, 5)
	part := shard.Greedy{}
	deltas := recoveryDeltas(g, 2)

	ref, err := Open(g, Options{P: 3, Rounds: 8, Part: part, IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := driveEpochs(t, ref, g, deltas)
	ref.Close()

	for _, ph := range sessionKillPhases {
		var s *Session
		var got epochTrace
		cell(t, func() {
			var err error
			s, err = Open(g, Options{
				P: 3, Rounds: 8, Part: part,
				IOTimeout: 10 * time.Second,
				wrap:      killWorkerAt(1, ph, 0),
			})
			if err != nil {
				t.Fatalf("%v: Open with epoch-0 kill: %v", ph, err)
			}
			defer s.Close()
			got = driveEpochs(t, s, g, deltas)
		})
		if !reflect.DeepEqual(got.chains, want.chains) {
			t.Fatalf("%v: chain digests %#x, want %#x", ph, got.chains, want.chains)
		}
		if s.Recoveries() != 1 || s.Stat().Broken {
			t.Fatalf("%v: %d recoveries, broken %v: want one recovery and a live session", ph, s.Recoveries(), s.Stat().Broken)
		}
	}
}

// The sealed graph a respawned worker rebuilds from is base + sealed ops. Here
// the log outgrows its base at epoch 4 and folds; worker 1 is then killed in
// epoch 6, with two more epochs on the log — so the respawn folds on demand,
// on top of a folded base, while epoch 6's batch already sits in the
// coordinator's live adjacency. The chain must not notice any of it.
func TestSessionRecoveryPastLogFold(t *testing.T) {
	g := graph.BarabasiAlbert(40, 2, 6)
	deltas := recoveryDeltas(g, 7) // 30 ops each
	if size := g.N() + g.M(); 3*30 >= size || 4*30 < size {
		t.Fatalf("test graph (n+m = %d) no longer puts the forced fold at epoch 4", size)
	}
	open := func(wrap net.LinkFunc) *Session {
		t.Helper()
		s, err := Open(g, Options{P: 3, Rounds: 6, Part: shard.Greedy{}, IOTimeout: 10 * time.Second, wrap: wrap})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return s
	}
	ref := open(nil)
	want := driveEpochs(t, ref, g, deltas)
	ref.Close()
	for _, ph := range sessionKillPhases {
		var s *Session
		var got epochTrace
		cell(t, func() {
			s = open(killWorkerAt(1, ph, 6))
			defer s.Close()
			got = driveEpochs(t, s, g, deltas)
		})
		if s.Recoveries() != 1 {
			t.Fatalf("%v: %d recoveries, want 1", ph, s.Recoveries())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: recovered session diverges from the undisturbed one:\nchains %#x\nwant   %#x", ph, got.chains, want.chains)
		}
	}
}

// A coordinator that cannot respawn — NewCoordinator with a nil respawn, as
// cluster serve builds it over workers it did not spawn — must still latch
// the session broken on a mid-epoch worker death, with an attributed
// BreakCause.
func TestSessionKillWithoutRecoverBreaks(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 3)
	cell(t, func() {
		s, err := Open(g, Options{
			P: 2, Rounds: 6, Part: shard.Greedy{},
			IOTimeout: 2 * time.Second,
			wrap:      killWorkerAt(1, obs.PhaseRepair, 1),
		})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		s.co.respawn = nil // what cluster serve hands NewCoordinator
		if _, err := s.Push(dist.RandomChurn(g, 20, 77), 0); err == nil {
			t.Fatal("killed epoch sealed with no respawn")
		}
		bc := s.Cause()
		if bc == nil {
			t.Fatal("broken session has no BreakCause")
		}
		if bc.Worker != 1 {
			t.Fatalf("break attributed to worker %d, want 1", bc.Worker)
		}
		if !s.Stat().Broken {
			t.Fatal("stat does not report BROKEN")
		}
		if _, err := s.Push(dist.RandomChurn(g, 20, 78), 0); err == nil {
			t.Fatal("broken session accepted a later push")
		} else if !errors.Is(err, s.Err()) && s.Err() == nil {
			t.Fatal("broken latch lost the original error")
		}
	})
}

// A crash loop must eventually break the session: the per-worker attempt
// cap turns a worker that dies at every re-admission into a BreakCause
// instead of an infinite respawn cycle.
func TestSessionRecoveryAttemptCap(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 4)
	// Fire at PhaseRepair of epoch 1 on EVERY incarnation of worker 0 (the
	// hub's cap respawns eight).
	var kill []faultnet.Fault
	for gen := 0; gen <= 8; gen++ {
		kill = append(kill, faultnet.Fault{Shard: 0, Gen: gen, Peer: faultnet.Control, Type: net.RecReconverge, Body: epochOf(1), Action: faultnet.Before})
	}
	cell(t, func() {
		s, err := Open(g, Options{
			P: 2, Rounds: 6, Part: shard.Greedy{},
			IOTimeout: 5 * time.Second, wrap: faultnet.New(kill...).Wrap,
		})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		if _, err := s.Push(dist.RandomChurn(g, 20, 99), 0); err == nil {
			t.Fatal("crash-looping worker sealed an epoch")
		}
		if !s.Stat().Broken {
			t.Fatal("crash loop did not break the session")
		}
	})
}
