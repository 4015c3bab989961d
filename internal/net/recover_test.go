package net

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	stdnet "net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"distkcore/internal/core"
	"distkcore/internal/densest"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/net/faultnet"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// The crash-recovery determinism contract (DESIGN.md §13): a run in which a
// worker dies at ANY point a death can land and is then replayed from Init
// out of the retained flows must produce results byte-identical to the
// undisturbed run — same B vector, same dist.Metrics (Words included), same
// cluster ledger. The sweep below still names its cells by the phase seams the
// protocol code used to consult, now each the schedule of faultnet faults on
// the worker's links that deathAt maps it to, over the interesting rounds: 0
// (Init, nothing to run again on), 1 (the first round that carries frames),
// the middle and the final round (whose deliver cell dies after the last ack,
// where the finish may be out and the peers' runs over).

// The phases the sweep's cells are named by: the stream loop's, which names
// its outbound half send and has a receive wait.
var streamKillPhases = []obs.Phase{obs.PhaseStep, obs.PhaseSend, obs.PhaseBarrierWait, obs.PhaseRecv, obs.PhaseDeliver}

// opening is the faultnet.Fault.Body of a record whose body opens with the
// uvarints xs after the bytes pre: a control record naming round r opens with
// r, an end marker from w to q of round r with w, q, r.
func opening(pre []byte, xs ...int) []byte {
	for _, x := range xs {
		pre = binary.AppendUvarint(pre, uint64(x))
	}
	return pre
}

// marker keys the end marker of w's round-r flow to the next worker.
func marker(w, r int) faultnet.Fault {
	q := (w + 1) % 3
	return faultnet.Fault{Shard: w, Peer: q, Type: recWindow, Body: opening(nil, w, q, r), Action: faultnet.Hold}
}

// deathAt is the schedule an old phase cell runs as (DESIGN.md §13.3): worker
// w of a three-worker streamed run whose last round is last dies at phase ph
// of round r: at the write of round r's done record, its end marker toward the
// next worker held (send); just after that write (barrier-wait; relayed — the
// one cell left of that plane, for a run without recovery — after the write
// of its done record); recv and deliver of round r are step of round r + 1,
// the write of round r's ack (the one of round r + 1's done record, or the
// last flush), but deliver of the last round is just after that last flush.
func deathAt(stream bool, ph obs.Phase, r, w, last int) []faultnet.Fault {
	ctl := func(typ byte, r int, a faultnet.Action) faultnet.Fault {
		return faultnet.Fault{Shard: w, Peer: faultnet.Control, Type: typ, Body: opening(nil, r), Action: a}
	}
	switch {
	case ph == obs.PhaseBarrierWait && stream:
		return []faultnet.Fault{ctl(recStreamDone, r, faultnet.After)}
	case ph == obs.PhaseBarrierWait:
		return []faultnet.Fault{ctl(recDone, r, faultnet.After)}
	case ph == obs.PhaseSend:
		return []faultnet.Fault{ctl(recStreamDone, r, faultnet.Before), marker(w, r)}
	case ph == obs.PhaseDeliver && r == last:
		return []faultnet.Fault{ctl(recStreamAck, r, faultnet.After)}
	case ph == obs.PhaseStep && r == 0:
		return []faultnet.Fault{ctl(recStreamDone, 0, faultnet.Before)}
	case ph == obs.PhaseStep:
		r--
	}
	return []faultnet.Fault{ctl(recStreamAck, r, faultnet.Before)}
}

// cellDeadline bounds one fault cell: a cell still running after it is a hang.
const cellDeadline = time.Minute

// cell runs one fault cell: under cellDeadline — past it the test binary
// dies with every goroutine's stack — and then the goroutine-settle check.
func cell(t *testing.T, body func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	dog := time.AfterFunc(cellDeadline, func() {
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("%s: fault cell still running after %v\n%s", t.Name(), cellDeadline, buf[:runtime.Stack(buf, true)]))
	})
	defer dog.Stop()
	body()
	goroutinesSettle(t, before)
}

// streamRecoveryEngine runs on the streamed mesh, which recovers. Tiny
// chunks force the deaths to land mid-flow, so restarts exercise the
// seq-gated resend path rather than whole-frame retransmits.
func streamRecoveryEngine(p int) *Engine {
	e := NewEngine(p, shard.Hash{})
	e.Stream = true
	e.IOTimeout = 10 * time.Second
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
	// where nobody has anything to say and a round run again carries no frame.
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

	// Recovery is a property of the runtime, not of one program: a worker's
	// state is run again, never serialized, so the orientation run (auxiliary
	// arc sets, published in the last round) and the weak densest subset
	// pipeline (four phases, unicasts, Vec payloads — killed while the trees
	// aggregate) recover like coreness does.
	orientation := func(eng dist.Engine) (any, dist.Metrics) {
		res, met := core.RunDistributed(g, core.Options{Rounds: T, TrackAux: true}, eng)
		return [2]any{res.B, res.AuxEdges}, met
	}
	wcfg := densest.Config{Gamma: 3, Rounds: 5}
	weak := func(eng dist.Engine) (any, dist.Metrics) {
		res, met := densest.RunWeakDistributed(g, wcfg, eng)
		if len(res.Subsets) == 0 {
			t.Fatal("densest cell accepts no subset: nothing crosses the trees")
		}
		return res, met
	}
	killCell(t, "orientation/stream", obs.PhaseRecv, T, 1, orientation)
	killCell(t, "densest/stream", obs.PhaseRecv, 3*wcfg.Rounds+3, 2, weak)
}

// killCell holds one death of an arbitrary protocol run to the undisturbed
// streamed run: result, Metrics and cluster ledger byte-identical, and
// both to the sequential engine. A negative round names the run's last.
func killCell(t *testing.T, name string, ph obs.Phase, round, worker int,
	run func(dist.Engine) (any, dist.Metrics)) {
	t.Run(name, func(t *testing.T) {
		seq, seqMet := run(dist.SeqEngine{})
		refEng := streamRecoveryEngine(3)
		ref, refMet := run(refEng)
		if refEng.Recoveries() != 0 || refMet != seqMet || !reflect.DeepEqual(ref, seq) {
			t.Fatalf("undisturbed streamed run diverges from seq before any fault (metrics %+v, seq %+v)", refMet, seqMet)
		}
		if round < 0 {
			round = refMet.Rounds
		}
		eng := streamRecoveryEngine(3)
		eng.wrap = faultnet.New(deathAt(true, ph, round, worker, refMet.Rounds)...).Wrap
		var res any
		var met dist.Metrics
		cell(t, func() { res, met = run(eng) })
		if n := eng.Recoveries(); n != 1 {
			t.Fatalf("recoveries = %d, want the one armed at %s of round %d", n, ph, round)
		}
		if met != refMet {
			t.Errorf("metrics %+v, want %+v", met, refMet)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("result diverges from the undisturbed run")
		}
		if lg := eng.ClusterMetrics(); !reflect.DeepEqual(lg, refEng.ClusterMetrics()) {
			t.Errorf("cluster ledger %+v, want %+v", lg, refEng.ClusterMetrics())
		}
	})
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

// sweepRecovery kills each of three workers at every phase cell of the given
// rounds and holds the recovered run to the undisturbed one.
func sweepRecovery(t *testing.T, prefix string, g *graph.Graph, opt core.Options, killRounds []int) {
	seqRef, seqMet := core.RunDistributed(g, opt, dist.SeqEngine{})

	// Undisturbed capture — the reference is a streamed run too (chains
	// folded, flows retained) so the sweep isolates the kill+restart path, and
	// it is separately pinned against seq.
	refEng := streamRecoveryEngine(3)
	ref, refMet := core.RunDistributed(g, opt, refEng)
	refLedger := refEng.ClusterMetrics()
	if refEng.Recoveries() != 0 {
		t.Fatalf("%sstream: undisturbed run recovered %d times", prefix, refEng.Recoveries())
	}
	if refMet != seqMet || !reflect.DeepEqual(ref.B, seqRef.B) {
		t.Fatalf("%sstream: undisturbed run diverges from seq before any fault", prefix)
	}

	for w := 0; w < 3; w++ {
		for _, ph := range streamKillPhases {
			for _, r := range killRounds {
				name := fmt.Sprintf("%sstream/w%d/%s/r%d", prefix, w, ph, r)
				t.Run(name, func(t *testing.T) {
					eng := streamRecoveryEngine(3)
					eng.wrap = faultnet.New(deathAt(true, ph, r, w, refMet.Rounds)...).Wrap
					var res *core.Result
					var met dist.Metrics
					cell(t, func() { res, met = core.RunDistributed(g, opt, eng) })
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

// A streamed worker that dies just after its last ack — the coordinator may
// have sent the finish, and its peers may have reported — is run again from
// Init like any other death: every peer keeps its mesh, retained flows
// included, until its coordinator hangs up. Each of three workers, on each
// protocol, ends byte-identical to the undisturbed run, ledger included.
func TestStreamedDeathAfterLastAckRecovers(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 11)
	T := core.TForEpsilon(g.N(), 0.5)
	wcfg := densest.Config{Gamma: 3, Rounds: 5}
	for _, proto := range []struct {
		name string
		run  func(dist.Engine) (any, dist.Metrics)
	}{
		{"coreness", func(eng dist.Engine) (any, dist.Metrics) {
			res, met := core.RunDistributed(g, core.Options{Rounds: T}, eng)
			return res.B, met
		}},
		{"orientation", func(eng dist.Engine) (any, dist.Metrics) {
			res, met := core.RunDistributed(g, core.Options{Rounds: T, TrackAux: true}, eng)
			return [2]any{res.B, res.AuxEdges}, met
		}},
		{"densest", func(eng dist.Engine) (any, dist.Metrics) { return densest.RunWeakDistributed(g, wcfg, eng) }},
	} {
		for w := 0; w < 3; w++ {
			killCell(t, fmt.Sprintf("%s/w%d", proto.name, w), obs.PhaseDeliver, -1, w, proto.run)
		}
	}
}

// A run after a recovered one takes the memory the recovered run released —
// its workers' Drivers, its slab — while the dead incarnation released none:
// its hooks may have been running until the engine's Cluster.Close waited it
// out. Each protocol's run with a death mid-run, then a run of each protocol
// with none on the same engine, must all be seq's, byte for byte. Under the
// race detector (CI's zombie-hooks step) a dead incarnation's hook that wrote
// into memory a later run took would race that run.
func TestRunAgainAfterRecovery(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 11)
	T := core.TForEpsilon(g.N(), 0.5)
	wcfg := densest.Config{Gamma: 3, Rounds: 5}
	protos := []struct {
		name string
		run  func(dist.Engine) (any, dist.Metrics)
	}{
		{"coreness", func(eng dist.Engine) (any, dist.Metrics) {
			res, met := core.RunDistributed(g, core.Options{Rounds: T}, eng)
			return res.B, met
		}},
		{"densest", func(eng dist.Engine) (any, dist.Metrics) { return densest.RunWeakDistributed(g, wcfg, eng) }},
	}
	seq, seqMet := make([]any, len(protos)), make([]dist.Metrics, len(protos))
	for i, pr := range protos {
		seq[i], seqMet[i] = pr.run(dist.SeqEngine{})
	}
	for i, pr := range protos {
		eng := streamRecoveryEngine(3)
		eng.wrap = faultnet.New(deathAt(true, obs.PhaseBarrierWait, 3, 1, seqMet[i].Rounds)...).Wrap
		var res any
		var met dist.Metrics
		cell(t, func() { res, met = pr.run(eng) })
		if n := eng.Recoveries(); n != 1 || met != seqMet[i] || !reflect.DeepEqual(res, seq[i]) {
			t.Fatalf("%s with a death: %d recoveries, metrics %+v, want 1 and %+v, or the result diverges from seq", pr.name, n, met, seqMet[i])
		}
		eng.wrap = nil
		for j, again := range protos {
			cell(t, func() { res, met = again.run(eng) })
			if n := eng.Recoveries(); n != 0 || met != seqMet[j] || !reflect.DeepEqual(res, seq[j]) {
				t.Fatalf("%s after %s recovered: %d recoveries, metrics %+v, want 0 and %+v, or the result diverges from seq", again.name, pr.name, n, met, seqMet[j])
			}
		}
	}
}

// A kill the run cannot recover from — a relayed run, or a streamed one with
// no Respawn (RunCoordinator over workers it did not spawn) — must still fail
// the run: fault injection does not soften the determinism-over-availability
// contract. And the failure must say where: the round in flight, the dead
// worker, and the phase it stood in (its done record was in, its release was
// not), however the death reached the coordinator — as an EOF during the
// collection or as a failed release write.
func TestKillWithoutRecoveryFailsRun(t *testing.T) {
	g := graph.BarabasiAlbert(80, 3, 2)
	opt := core.Options{Rounds: 6}
	for _, stream := range []bool{false, true} {
		faults := faultnet.New(deathAt(stream, obs.PhaseBarrierWait, 1, 1, 6)...)
		var err error
		cell(t, func() {
			if stream {
				err = meshRun(g, opt, 2, faults)
				return
			}
			eng := NewEngine(2, shard.Hash{})
			eng.IOTimeout = 2 * time.Second
			eng.wrap = faults.Wrap
			defer func() { err, _ = recover().(error) }()
			core.RunDistributed(g, opt, eng)
		})
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("stream=%v: killed run without recovery ended with %v, want a *RunError", stream, err)
		}
		if re.Round != 1 || re.Phase != obs.PhaseBarrierWait || re.Worker != 1 {
			t.Errorf("stream=%v: failure attributed to round %d, %s, worker %d (%v); want round 1, barrier-wait, worker 1",
				stream, re.Round, re.Phase, re.Worker, re)
		}
	}
}

// meshRun runs p streamed workers of a coreness run on g by hand — their mesh
// an in-process broker, every link of theirs through faults — under
// RunCoordinator, which has no Respawn, and returns how the run ended.
func meshRun(g *graph.Graph, opt core.Options, p int, faults *faultnet.Net) error {
	assign := shard.Hash{}.Partition(g, p)
	br := &meshBroker{inboxes: make([]*meshInbox, p), wrap: faults.Wrap}
	conns := make([]*Conn, p)
	var wg sync.WaitGroup
	for s := range conns {
		a, b := stdnet.Pipe()
		conns[s] = NewConn(a)
		w := NewWorker(NewConn(faults.Wrap(s, 0, faultnet.Control, b)), g, assign)
		w.IOTimeout = 2 * time.Second
		meshOf(br, s, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.c.Close()
			defer func() { recover() }() // Worker.Run panics on a failed run
			core.RunDistributed(g, opt, w)
		}()
	}
	_, _, err := RunCoordinator(conns, Spec{P: p, Stream: true, MaxRounds: opt.Rounds, IOTimeout: 2 * time.Second,
		GraphHash: g.Fingerprint(), PartDigest: shard.PartitionDigest(assign)})
	for _, c := range conns {
		c.Close() // the caller owns them; a worker still reading sees EOF
	}
	wg.Wait()
	return err
}

// Recovery is not armed: a plain streamed Engine hands its run a Respawn, so
// a worker that dies mid-run is run again, and the run ends on seq's metrics
// and values.
func TestStreamedEngineRecoversUnasked(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 11)
	opt := core.Options{Rounds: 8}
	seq, seqMet := core.RunDistributed(g, opt, dist.SeqEngine{})
	eng := NewEngine(3, shard.Hash{})
	eng.Stream, eng.IOTimeout = true, 10*time.Second
	eng.wrap = faultnet.New(deathAt(true, obs.PhaseBarrierWait, 3, 1, seqMet.Rounds)...).Wrap
	var res *core.Result
	var met dist.Metrics
	cell(t, func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("the streamed run did not survive its worker's death: %v", r)
			}
		}()
		res, met = core.RunDistributed(g, opt, eng)
	})
	if met != seqMet || !reflect.DeepEqual(res.B, seq.B) {
		t.Errorf("metrics %+v, want %+v (values equal: %v)", met, seqMet, reflect.DeepEqual(res.B, seq.B))
	}
	if n := eng.Recoveries(); n != 1 {
		t.Errorf("%d recoveries, want 1", n)
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
		eng.wrap = faultnet.New(deathAt(true, obs.PhaseBarrierWait, 2, i%2, 8)...).Wrap
		cell(t, func() { core.RunDistributed(g, opt, eng) })
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

// TestSeededSingleDeaths is the fixed corpus ROADMAP item 1b grows: each seed
// maps, purely, to one clean single death — transport, protocol, worker, the
// record it lands at, its round, before or after — and the run
// must end byte-identical to the undisturbed one, ledger included. Unlike the
// sweep it reaches unix clusters (a respawn runs over a pipe whatever the
// transport). A failing seed prints its one-line repro.
func TestSeededSingleDeaths(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 11)
	T := core.TForEpsilon(g.N(), 0.5)
	wcfg := densest.Config{Gamma: 3, Rounds: 5}
	protocols := []func(dist.Engine) (any, dist.Metrics){
		func(eng dist.Engine) (any, dist.Metrics) {
			res, met := core.RunDistributed(g, core.Options{Rounds: T}, eng)
			return res.B, met
		},
		func(eng dist.Engine) (any, dist.Metrics) {
			res, met := core.RunDistributed(g, core.Options{Rounds: T, TrackAux: true}, eng)
			return [2]any{res.B, res.AuxEdges}, met
		},
		func(eng dist.Engine) (any, dist.Metrics) { return densest.RunWeakDistributed(g, wcfg, eng) },
	}
	type undisturbed struct {
		res    any
		met    dist.Metrics
		ledger shard.ShardMetrics
	}
	refs := map[int]undisturbed{} // by protocol
	for seed := uint64(1); seed <= 24; seed++ {
		d := seededDeathOf(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("repro (%s): go test -run 'TestSeededSingleDeaths/seed=%d$' ./internal/net/", d, seed)
				}
			}()
			run := protocols[d.proto]
			ref, ok := refs[d.proto]
			if !ok {
				seq, seqMet := run(dist.SeqEngine{})
				eng := streamRecoveryEngine(3)
				ref.res, ref.met = run(eng)
				if ref.ledger = eng.ClusterMetrics(); ref.met != seqMet || !reflect.DeepEqual(ref.res, seq) {
					t.Fatalf("recovery-armed run diverges from seq before any fault (metrics %+v, seq %+v)", ref.met, seqMet)
				}
				refs[d.proto] = ref
			}
			eng := streamRecoveryEngine(3)
			eng.Transport, eng.wrap = d.transport, faultnet.New(d.faults(ref.met.Rounds)...).Wrap
			var res any
			var met dist.Metrics
			cell(t, func() { res, met = run(eng) })
			if n := eng.Recoveries(); n != 1 {
				t.Fatalf("recoveries = %d, want the one death", n)
			}
			if met != ref.met || !reflect.DeepEqual(res, ref.res) {
				t.Errorf("run diverges from the undisturbed one: metrics %+v, want %+v", met, ref.met)
			}
			if lg := eng.ClusterMetrics(); !reflect.DeepEqual(lg, ref.ledger) {
				t.Errorf("cluster ledger %+v, want %+v", lg, ref.ledger)
			}
		})
	}
}

// seededDeath is one clean single death as a seed names it. The record is a
// control record the death lands at — the done record, the ack, or the done
// record with the end marker toward the next worker held (recWindow) — and
// pick, reduced modulo the rounds it can land in, its round.
type seededDeath struct {
	transport     string
	proto, worker int
	record        byte
	pick          uint64
	after         bool
}

// seededDeathOf draws a seededDeath from seed with splitmix64.
func seededDeathOf(seed uint64) seededDeath {
	next := func(n uint64) uint64 {
		seed += 0x9e3779b97f4a7c15
		z := (seed ^ seed>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return (z ^ z>>31) % n
	}
	// The first draw picked the plane when recovery ran on the relay too: a seed
	// that drew relay lands its death at the streamed done record, every other
	// draw as it was.
	relay := next(2) == 0
	d := seededDeath{transport: []string{TransportPipe, TransportUnix}[next(2)],
		proto: int(next(3)), worker: int(next(3)), record: recStreamDone, after: next(2) == 1}
	if !relay {
		d.record = []byte{recStreamDone, recStreamAck, recWindow}[next(3)]
	}
	d.pick = next(1 << 30)
	return d
}

func (d seededDeath) String() string {
	when := "before"
	if d.after {
		when = "after"
	}
	return fmt.Sprintf("%s %s, worker %d dies %s record %d of round pick %d",
		d.transport, []string{"coreness", "orientation", "densest"}[d.proto], d.worker, when, d.record, d.pick)
}

// faults is d's schedule on a three-worker run whose last round is last.
func (d seededDeath) faults(last int) []faultnet.Fault {
	r := int(d.pick % uint64(last+1))
	f := faultnet.Fault{Shard: d.worker, Peer: faultnet.Control, Type: d.record, Body: opening(nil, r)}
	if d.after {
		f.Action = faultnet.After
	}
	if d.record == recWindow {
		f.Type = recStreamDone
		return []faultnet.Fault{f, marker(d.worker, r)}
	}
	return []faultnet.Fault{f}
}

// clusterEngine is a dist.Engine over a hand-driven three-worker streamed
// Cluster, which recovers, for the schedules an Engine's one run cannot
// hold: faults runs on the worker links (Cluster.Wrap).
type clusterEngine struct {
	faults *faultnet.Net
	lam    quantize.Lambda
	rep    *Report
	err    error
}

func (e *clusterEngine) WithWireLambda(lam quantize.Lambda) dist.Engine { e.lam = lam; return e }

func (e *clusterEngine) Run(g *graph.Graph, factory dist.Factory, maxRounds int) dist.Metrics {
	assign := shard.Hash{}.Partition(g, 3)
	body := func(s Seat) error {
		w := s.Worker(g, assign)
		w.lam, w.ChunkBytes = e.lam, 256
		_, err := w.run(g, factory, maxRounds)
		return err
	}
	cl := &Cluster{P: 3, IOTimeout: 10 * time.Second, Stream: true, Wrap: e.faults.Wrap}
	if err := cl.Start(body); err != nil {
		panic(err)
	}
	defer cl.Close()
	var met dist.Metrics
	met, e.rep, e.err = cl.Run(Spec{MaxRounds: maxRounds, Lam: e.lam,
		GraphHash: g.Fingerprint(), PartDigest: shard.PartitionDigest(assign)}, body)
	return met
}

// Two workers die in one streamed run, rounds apart. The second death is fed
// by the first one's successor, whose sends of the rounds before its own death
// exist only because its run from Init retained them again: the run still ends
// byte-identical, ledger included.
func TestTwoDeathsInOneStreamedRun(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 11)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T}
	refEng := streamRecoveryEngine(3)
	ref, refMet := core.RunDistributed(g, opt, refEng)

	// Worker 0 dies in round 2's delivery, worker 2 in round T/2+2's.
	deaths := append(deathAt(true, obs.PhaseDeliver, 2, 0, refMet.Rounds), deathAt(true, obs.PhaseDeliver, T/2+2, 2, refMet.Rounds)...)
	eng := &clusterEngine{faults: faultnet.New(deaths...)}
	var res *core.Result
	var met dist.Metrics
	cell(t, func() { res, met = core.RunDistributed(g, opt, eng) })
	if eng.err != nil {
		t.Fatal(eng.err)
	}
	if eng.rep.Recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2", eng.rep.Recoveries)
	}
	if met != refMet || !reflect.DeepEqual(res.B, ref.B) {
		t.Errorf("run diverges after two deaths: metrics %+v, want %+v", met, refMet)
	}
	eng.rep.Sharding.EdgeCutFraction = refEng.ClusterMetrics().EdgeCutFraction
	if !reflect.DeepEqual(eng.rep.Sharding, refEng.ClusterMetrics()) {
		t.Errorf("cluster ledger %+v, want %+v", eng.rep.Sharding, refEng.ClusterMetrics())
	}
}

// A flow fed again to a respawned worker that differs from the original — one
// bit of one value, everything still decoding — must not be run into a result,
// and the abort names that worker. A peer re-sends the chunk: the flow's
// digest disagrees with its sender's end marker, the worker says so, and a
// worker that says why it stops is not respawned again. The flip is
// faultnet's, on the low bit of the record's last byte — on a float payload
// under Λ = ℝ, a well-formed value that is not the one sent.
func TestCorruptedReplayAbortsAttributed(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 11)
	// Worker 1 dies in round 3's delivery; then the first chunk worker 0
	// re-sends it, on worker 0's end of the link the successor dials, is
	// flipped.
	deaths := deathAt(true, obs.PhaseDeliver, 3, 1, 8)
	flip := faultnet.Fault{Shard: 0, Gen: 0, Peer: 1, Type: recPeerFrame, Action: faultnet.Flip}
	eng := &clusterEngine{faults: faultnet.New(append(deaths, flip)...)}
	cell(t, func() { core.RunDistributed(g, core.Options{Rounds: 8}, eng) })
	flipped := eng.faults.Fired(len(deaths))
	var re *RunError
	if !flipped || !errors.As(eng.err, &re) {
		t.Fatalf("corrupted resend (flipped: %v) ended with %v, want a *RunError", flipped, eng.err)
	}
	if re.Worker != 1 || !strings.Contains(re.Error(), "digest mismatch") {
		t.Errorf("failure %v, want worker 1 refused over its digest mismatch", re)
	}
}

// The coordinator holds every streamed worker's frame chain — the fold of the
// flows it received, which a successor's run from Init must reproduce — to
// the chain it sealed from the digest matrix, whether or not the run could
// recover: a metrics record whose chain field is one bit off, everything else
// in order, fails the run against that worker.
func TestStreamedRunChecksEveryFrameChain(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 11)
	flip := faultnet.New(faultnet.Fault{Shard: 1, Peer: faultnet.Control, Type: recMetrics, Action: faultnet.Flip})
	var err error
	cell(t, func() { err = meshRun(g, core.Options{Rounds: 8}, 3, flip) })
	var re *RunError
	if !flip.Fired(0) || !errors.As(err, &re) {
		t.Fatalf("flipped chain (flipped: %v) ended with %v, want a *RunError", flip.Fired(0), err)
	}
	if re.Worker != 1 || !strings.Contains(re.Error(), "frame chain") {
		t.Errorf("failure %v, want worker 1 refused over its frame chain", re)
	}
}
