package net

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// The crash-recovery determinism contract (DESIGN.md §13): a run in which a
// worker is killed at ANY phase boundary of ANY round and then recovered
// from its last checkpoint must produce results byte-identical to the
// undisturbed run — same B vector, same dist.Metrics (Words included), same
// cluster frame ledger. The sweep below exercises every (worker, phase,
// round) kill point over the interesting rounds: 0 (Init, possibly before
// any checkpoint exists), 1 (first resumable round), the middle and the
// final round (whose recovery surfaces at the finish phase).

// killPhases are the worker-side fault-injection seams of the round loop on
// the relay plane. The stream plane names its outbound half send instead of
// encode and adds the receive wait as a seam, so its sweep covers send/recv
// instead.
var killPhases = []obs.Phase{obs.PhaseStep, obs.PhaseEncode, obs.PhaseBarrierWait, obs.PhaseDeliver}
var streamKillPhases = []obs.Phase{obs.PhaseStep, obs.PhaseSend, obs.PhaseBarrierWait, obs.PhaseRecv, obs.PhaseDeliver}

func recoveryEngine(p int) *Engine {
	e := NewEngine(p, shard.Hash{})
	e.Recover = true
	e.IOTimeout = 10 * time.Second
	return e
}

// streamRecoveryEngine arms recovery on the streamed mesh. Tiny chunks force
// the kill points to land mid-flow, so restarts exercise the seq-gated
// resend path rather than whole-frame retransmits.
func streamRecoveryEngine(p int) *Engine {
	e := recoveryEngine(p)
	e.Stream = true
	e.ChunkBytes = 256
	return e
}

func TestRecoverySweepBitIdentical(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 11)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T, Lambda: quantize.NewPowerGrid(0.1)}
	sweepRecovery(t, "", g, opt, []int{0, 1, T / 2, T})

	// The change-driven program's own corner: a weighted multigraph with
	// self-loops and parallel edges, Λ = ℝ, killed in an early round (the first
	// whose inboxes hold the changed senders only) and in a late, quiet one,
	// where nobody has anything to say and a checkpoint is all flags and tables.
	// The reference is held to the centralized every-round simulation first.
	lg := loopyMultigraph(90, 5)
	const lT = 18 // past the 12 of TForEpsilon: this graph settles in round 13
	lopt := core.Options{Rounds: lT}
	central := core.Run(lg, core.Options{Rounds: lT, TrackAux: true, RecordHistory: true})
	if !reflect.DeepEqual(central.History[lT-2], central.History[lT-6]) {
		t.Fatalf("rounds %d..%d of the multigraph run are not quiet", lT-4, lT-1)
	}
	seq, _ := core.RunDistributed(lg, lopt, dist.SeqEngine{})
	for v, b := range central.B {
		if math.Float64bits(b) != math.Float64bits(seq.B[v]) {
			t.Fatalf("multigraph: seq β(%d) = %v, centralized every-round Update gives %v", v, seq.B[v], b)
		}
	}
	sweepRecovery(t, "loopy/", lg, lopt, []int{2, lT - 2})
}

// loopyMultigraph is a BA graph with weights in tenths (inexact sums: the
// order they are added in shows in the bits), a parallel copy of every fourth
// edge and a self-loop on every third node.
func loopyMultigraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	w := func() float64 { return float64(1+rng.Intn(30)) / 10 }
	b := graph.NewBuilder(n)
	for i, e := range graph.BarabasiAlbert(n, 3, seed).Edges() {
		b.AddEdge(e.U, e.V, w())
		if i%4 == 0 {
			b.AddEdge(e.V, e.U, w())
		}
	}
	for v := 0; v < n; v += 3 {
		b.AddEdge(v, v, w())
	}
	return b.Build()
}

// sweepRecovery kills each of three workers at every phase seam of the given
// rounds, on both planes, and holds the recovered run to the undisturbed one.
func sweepRecovery(t *testing.T, prefix string, g *graph.Graph, opt core.Options, killRounds []int) {
	seqRef, seqMet := core.RunDistributed(g, opt, dist.SeqEngine{})

	modes := []struct {
		name   string
		mk     func(int) *Engine
		phases []obs.Phase
	}{
		{"relay", recoveryEngine, killPhases},
		{"stream", streamRecoveryEngine, streamKillPhases},
	}
	for _, mode := range modes {
		// Undisturbed capture — note the reference runs WITH recovery armed
		// (checkpoints flowing) so the sweep isolates the kill+restore path,
		// and a plain recovery-armed run is separately pinned against seq.
		refEng := mode.mk(3)
		ref, refMet := core.RunDistributed(g, opt, refEng)
		refLedger := refEng.ClusterMetrics()
		if refEng.Recoveries() != 0 {
			t.Fatalf("%s%s: undisturbed run recovered %d times", prefix, mode.name, refEng.Recoveries())
		}
		if refMet != seqMet || !reflect.DeepEqual(ref.B, seqRef.B) {
			t.Fatalf("%s%s: recovery-armed run diverges from seq before any fault", prefix, mode.name)
		}

		for w := 0; w < 3; w++ {
			for _, ph := range mode.phases {
				for _, r := range killRounds {
					name := fmt.Sprintf("%s%s/w%d/%s/r%d", prefix, mode.name, w, ph, r)
					t.Run(name, func(t *testing.T) {
						eng := mode.mk(3)
						eng.KillAt(ph, r, w)
						res, met := core.RunDistributed(g, opt, eng)
						if n := eng.Recoveries(); n < 1 {
							t.Fatalf("kill point never recovered (recoveries=%d)", n)
						}
						if met != refMet {
							t.Errorf("metrics %+v, want %+v", met, refMet)
						}
						if !reflect.DeepEqual(res.B, ref.B) {
							t.Errorf("B vector diverges from undisturbed run")
						}
						if lg := eng.ClusterMetrics(); !reflect.DeepEqual(lg, refLedger) {
							t.Errorf("cluster ledger %+v, want %+v", lg, refLedger)
						}
					})
				}
			}
		}
	}
}

// A kill without recovery armed must still fail the run — fault injection
// does not soften the determinism-over-availability contract — and the
// failure must say where: the round in flight, the dead worker, and the
// phase it stood in (its done record was in, its release was not), however
// the death reached the coordinator — as an EOF during the collection or as
// a failed release write.
func TestKillWithoutRecoveryFailsRun(t *testing.T) {
	g := graph.BarabasiAlbert(80, 3, 2)
	opt := core.Options{Rounds: 6}
	for _, stream := range []bool{false, true} {
		eng := NewEngine(2, shard.Hash{})
		eng.Stream = stream
		eng.IOTimeout = 2 * time.Second
		eng.KillAt(obs.PhaseBarrierWait, 1, 1)
		func() {
			defer func() {
				err, _ := recover().(error)
				var re *RunError
				if !errors.As(err, &re) {
					t.Fatalf("stream=%v: killed run without recovery ended with %v, want a *RunError", stream, err)
				}
				if re.Round != 1 || re.Phase != obs.PhaseBarrierWait || re.Worker != 1 {
					t.Errorf("stream=%v: failure attributed to round %d, %s, worker %d (%v); want round 1, barrier-wait, worker 1",
						stream, re.Round, re.Phase, re.Worker, re)
				}
			}()
			core.RunDistributed(g, opt, eng)
		}()
	}
}

// Recovery over a churn run: the respawned worker must replay the retained
// delta record and rebalance before resuming, landing on the identical
// post-churn execution.
func TestRecoveryAcrossChurn(t *testing.T) {
	g := graph.BarabasiAlbert(140, 3, 6)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T}
	delta := dist.RandomChurn(g, 40, 13)

	ref := recoveryEngine(3)
	ref.Churn(delta, 0)
	refRes, refMet := core.RunDistributed(g, opt, ref)

	eng := recoveryEngine(3)
	eng.Churn(delta, 0)
	eng.KillAt(obs.PhaseDeliver, 1, 2)
	res, met := core.RunDistributed(g, opt, eng)
	if eng.Recoveries() < 1 {
		t.Fatal("churned kill point never recovered")
	}
	if met != refMet || !reflect.DeepEqual(res.B, refRes.B) {
		t.Fatalf("churned recovery diverges: metrics %+v want %+v", met, refMet)
	}
}

// Respawned worker goroutines must not outlive the run: the recovery path
// adds goroutines (a new worker, a new hub reader) mid-run, and every one of
// them has to drain when the run finishes. Run under -race in CI.
func TestRecoveryNoGoroutineLeak(t *testing.T) {
	g := graph.BarabasiAlbert(100, 3, 4)
	opt := core.Options{Rounds: 8}
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		eng := recoveryEngine(2)
		eng.KillAt(obs.PhaseBarrierWait, 2, i%2)
		core.RunDistributed(g, opt, eng)
		if eng.Recoveries() < 1 {
			t.Fatalf("iteration %d never recovered", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked across recovered runs: %d before, %d after", before, got)
	}
}

// The streamed mesh multiplies the goroutine surface — per-link writer
// loops and reader loops on every worker, plus the respawn path's fresh
// mesh generation — and every one of them must drain at run end too.
func TestStreamRecoveryNoGoroutineLeak(t *testing.T) {
	g := graph.BarabasiAlbert(100, 3, 4)
	opt := core.Options{Rounds: 8}
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		eng := streamRecoveryEngine(2)
		eng.KillAt(obs.PhaseBarrierWait, 2, i%2)
		core.RunDistributed(g, opt, eng)
		if eng.Recoveries() < 1 {
			t.Fatalf("iteration %d never recovered", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked across streamed recovered runs: %d before, %d after", before, got)
	}
}
