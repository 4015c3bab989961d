package session

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	net "distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/shard"
)

// The session-level recovery contract (DESIGN.md §13): a worker killed
// while epoch e is being sealed is respawned, recomputes its state from the
// committed graph, is re-admitted at epoch e-1 and walked through e again —
// and the chain through e, e+1, e+2 is bit-identical to a session that
// never saw the fault. The stat must report a recovery count, not BROKEN.

// sessionKillPhases are the worker-side fault seams of the epoch loop:
// PhaseRepair fires at epochStep entry (death before the worker replies
// anything), PhaseRebalance after the reconverge is flushed (death between
// the reply and the seal).
var sessionKillPhases = []obs.Phase{obs.PhaseRepair, obs.PhaseRebalance}

// killWorkerAt builds the Options.kill hook: a one-shot fault that fires
// for worker target at (phase, epoch) exactly once across all incarnations.
func killWorkerAt(target int, ph obs.Phase, epoch int) func(int) net.KillFunc {
	var mu sync.Mutex
	fired := false
	return func(w int) net.KillFunc {
		return func(p obs.Phase, e int) bool {
			if w != target || p != ph || e != epoch {
				return false
			}
			mu.Lock()
			defer mu.Unlock()
			if fired {
				return false
			}
			fired = true
			return true
		}
	}
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
	open := func(kill func(int) net.KillFunc) *Session {
		t.Helper()
		s, err := Open(g, Options{
			P: p, Rounds: T, Part: part,
			IOTimeout: 10 * time.Second,
			Recover:   true, kill: kill,
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
				s := open(killWorkerAt(w, ph, 2))
				defer s.Close()
				got := driveEpochs(t, s, g, deltas)
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

// A kill during the epoch-0 run exercises the net-layer replay path
// wired through Options.Recover: the session must still open, seal epoch 0
// and run epochs bit-identically to an undisturbed session.
func TestSessionRecoveryDuringEpochZero(t *testing.T) {
	g := graph.BarabasiAlbert(250, 3, 5)
	part := shard.Greedy{}
	deltas := recoveryDeltas(g, 2)

	ref, err := Open(g, Options{P: 3, Rounds: 8, Part: part, IOTimeout: 10 * time.Second, Recover: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := driveEpochs(t, ref, g, deltas)
	ref.Close()

	s, err := Open(g, Options{
		P: 3, Rounds: 8, Part: part,
		IOTimeout: 10 * time.Second,
		Recover:   true,
		kill:      killWorkerAt(1, obs.PhaseBarrierWait, 2),
	})
	if err != nil {
		t.Fatalf("Open with epoch-0 kill: %v", err)
	}
	defer s.Close()
	got := driveEpochs(t, s, g, deltas)
	if !reflect.DeepEqual(got.chains, want.chains) {
		t.Fatalf("chain digests %#x, want %#x", got.chains, want.chains)
	}
	if s.Report() == nil || s.Metrics().Rounds == 0 {
		t.Fatal("epoch-0 run report missing after recovery")
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
	open := func(kill func(int) net.KillFunc) *Session {
		t.Helper()
		s, err := Open(g, Options{P: 3, Rounds: 6, Part: shard.Greedy{}, IOTimeout: 10 * time.Second, Recover: true, kill: kill})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return s
	}
	ref := open(nil)
	want := driveEpochs(t, ref, g, deltas)
	ref.Close()
	for _, ph := range sessionKillPhases {
		s := open(killWorkerAt(1, ph, 6))
		got := driveEpochs(t, s, g, deltas)
		if s.Recoveries() != 1 {
			t.Fatalf("%v: %d recoveries, want 1", ph, s.Recoveries())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: recovered session diverges from the undisturbed one:\nchains %#x\nwant   %#x", ph, got.chains, want.chains)
		}
		s.Close()
	}
}

// Without Recover, a mid-epoch worker death must still latch the session
// broken with an attributed BreakCause — recovery is strictly opt-in.
func TestSessionKillWithoutRecoverBreaks(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 3)
	s, err := Open(g, Options{
		P: 2, Rounds: 6, Part: shard.Greedy{},
		IOTimeout: 2 * time.Second,
		kill:      killWorkerAt(1, obs.PhaseRepair, 1),
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if _, err := s.Push(dist.RandomChurn(g, 20, 77), 0); err == nil {
		t.Fatal("killed epoch sealed without recovery armed")
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
}

// A crash loop must eventually break the session: the per-worker attempt
// cap turns a worker that dies at every re-admission into a BreakCause
// instead of an infinite respawn cycle.
func TestSessionRecoveryAttemptCap(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 4)
	// Fire at PhaseRepair of epoch 1 on EVERY incarnation of worker 0.
	kill := func(w int) net.KillFunc {
		return func(p obs.Phase, e int) bool {
			return w == 0 && p == obs.PhaseRepair && e == 1
		}
	}
	s, err := Open(g, Options{
		P: 2, Rounds: 6, Part: shard.Greedy{},
		IOTimeout: 5 * time.Second,
		Recover:   true, kill: kill,
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
}
