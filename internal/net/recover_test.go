package net

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	stdnet "net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distkcore/internal/core"
	"distkcore/internal/densest"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// The crash-recovery determinism contract (DESIGN.md §13): a run in which a
// worker is killed at ANY phase boundary of ANY round and then replayed from
// Init out of the retained flows must produce results byte-identical to the
// undisturbed run — same B vector, same dist.Metrics (Words included), same
// cluster frame ledger. The sweep below exercises every (worker, phase,
// round) kill point over the interesting rounds: 0 (Init, nothing to replay),
// 1 (the first round that carries frames), the middle and the final round
// (whose recovery surfaces at the finish phase).

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
	// where nobody has anything to say and a replayed round carries no frame.
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
	// state is replayed, never serialized, so the orientation run (auxiliary
	// arc sets, published in the last round) and the weak densest subset
	// pipeline (four phases, unicasts, Vec payloads — killed while the trees
	// aggregate) recover like coreness does, on both planes.
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
	for _, plane := range []struct {
		name string
		mk   func(int) *Engine
		ph   obs.Phase
	}{{"relay", recoveryEngine, obs.PhaseEncode}, {"stream", streamRecoveryEngine, obs.PhaseRecv}} {
		killCell(t, "orientation/"+plane.name, plane.mk, plane.ph, T, 1, orientation)
		killCell(t, "densest/"+plane.name, plane.mk, plane.ph, 3*wcfg.Rounds+3, 2, weak)
	}
}

// killCell holds one kill point of an arbitrary protocol run to the
// undisturbed recovery-armed run of the same engine: result, Metrics and
// cluster ledger byte-identical, and both to the sequential engine.
func killCell(t *testing.T, name string, mk func(int) *Engine, ph obs.Phase, round, worker int,
	run func(dist.Engine) (any, dist.Metrics)) {
	t.Run(name, func(t *testing.T) {
		seq, seqMet := run(dist.SeqEngine{})
		refEng := mk(3)
		ref, refMet := run(refEng)
		if refEng.Recoveries() != 0 || refMet != seqMet || !reflect.DeepEqual(ref, seq) {
			t.Fatalf("recovery-armed run diverges from seq before any fault (metrics %+v, seq %+v)", refMet, seqMet)
		}
		eng := mk(3)
		eng.KillAt(ph, round, worker)
		res, met := run(eng)
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
		// (chains folded, flows retained) so the sweep isolates the kill+replay
		// path, and a plain recovery-armed run is separately pinned against seq.
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

// clusterEngine is a dist.Engine over a hand-driven three-worker Cluster with
// recovery armed, for the faults Engine.KillAt cannot express: kill is
// consulted (under mu) at every phase seam of every incarnation, wrap, when
// set, stands between the coordinator and each respawned worker, and
// meshWrap, when set, wraps (under mu) every mesh connection a worker accepts.
type clusterEngine struct {
	stream   bool
	mu       sync.Mutex
	kill     func(shard int, ph obs.Phase, round int) bool
	wrap     func(stdnet.Conn) stdnet.Conn
	meshWrap func(shard int, nc stdnet.Conn) stdnet.Conn
	lam      quantize.Lambda
	rep      *Report
	err      error
}

func (e *clusterEngine) WithWireLambda(lam quantize.Lambda) dist.Engine { e.lam = lam; return e }

func (e *clusterEngine) Run(g *graph.Graph, factory dist.Factory, maxRounds int) dist.Metrics {
	assign := shard.Hash{}.Partition(g, 3)
	body := func(s Seat) error {
		w := s.Worker(g, assign)
		w.lam, w.ChunkBytes = e.lam, 256
		w.Kill = func(ph obs.Phase, r int) bool {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.kill(s.Shard, ph, r)
		}
		if accept := w.MeshAccept; e.meshWrap != nil {
			w.MeshAccept = func() (stdnet.Conn, error) {
				nc, err := accept()
				if err == nil {
					e.mu.Lock()
					nc = e.meshWrap(s.Shard, nc)
					e.mu.Unlock()
				}
				return nc, err
			}
		}
		_, err := w.run(g, factory, maxRounds)
		return err
	}
	cl := &Cluster{P: 3, IOTimeout: 10 * time.Second, Stream: e.stream}
	if err := cl.Start(body); err != nil {
		panic(err)
	}
	defer cl.Close()
	var met dist.Metrics
	met, e.rep, e.err = cl.Hub.Run(Spec{P: 3, Stream: e.stream, MaxRounds: maxRounds, Lam: e.lam, Recover: true,
		GraphHash: g.Fingerprint(), PartDigest: shard.PartitionDigest(assign),
		Respawn: func(s, gen int) (*Conn, error) {
			cn, err := cl.Respawn(s, gen, body)
			if err == nil && e.wrap != nil {
				cn = NewConn(e.wrap(cn.nc))
			}
			return cn, err
		}})
	return met
}

// Two workers die in one streamed run, rounds apart. The second death is fed
// by the first one's successor, whose sends of the rounds before its own death
// exist only because its replay retained them again: the run still ends
// byte-identical, ledger included.
func TestTwoDeathsInOneStreamedRun(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 11)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T}
	refEng := streamRecoveryEngine(3)
	ref, refMet := core.RunDistributed(g, opt, refEng)

	deaths := map[int]int{0: 2, 2: T/2 + 2} // worker → the round it dies in, once
	eng := &clusterEngine{stream: true, kill: func(w int, ph obs.Phase, r int) bool {
		if at, ok := deaths[w]; !ok || ph != obs.PhaseDeliver || r != at {
			return false
		}
		delete(deaths, w)
		return true
	}}
	res, met := core.RunDistributed(g, opt, eng)
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

// flipConn flips the low bit of the last byte of the first record of type typ
// written through it — on a float payload under Λ = ℝ, a well-formed value
// that is not the one sent. Writes start at record boundaries here: a Conn
// hands its connection whole records.
type flipConn struct {
	stdnet.Conn
	typ     byte
	flipped bool
}

func (c *flipConn) Write(p []byte) (int, error) {
	return c.Conn.Write(eachRecord(p, func(typ byte, _ []byte) bool {
		flip := !c.flipped && typ == c.typ
		c.flipped = c.flipped || flip
		return flip
	}))
}

// A flow fed again to a respawned worker that differs from the original — one
// bit of one value, everything still decoding — must not be run into a result,
// and the abort names that worker. Relayed, the coordinator replays the frame:
// the worker's frame chain, reported with its metrics, disagrees with what the
// coordinator sealed. Streamed, no replay record is left to corrupt — a peer
// re-sends the chunk: the flow's digest disagrees with its sender's end
// marker, the worker says so, and a worker that says why it stops is not
// respawned again.
func TestCorruptedReplayAbortsAttributed(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 11)
	for _, row := range []struct {
		stream bool
		typ    byte
		want   string
	}{{false, recFrame, "frame chain"}, {true, recPeerFrame, "digest mismatch"}} {
		fired := false
		flip := &flipConn{typ: row.typ}
		through := func(nc stdnet.Conn) stdnet.Conn { flip.Conn = nc; return flip }
		eng := &clusterEngine{
			stream: row.stream,
			kill: func(w int, ph obs.Phase, r int) bool {
				if fired || w != 1 || ph != obs.PhaseDeliver || r != 3 {
					return false
				}
				fired = true
				return true
			},
		}
		if row.stream {
			// Worker 0's end of the link worker 1's successor dials.
			eng.meshWrap = func(w int, nc stdnet.Conn) stdnet.Conn {
				if w == 0 && fired {
					return through(nc)
				}
				return nc
			}
		} else {
			eng.wrap = through
		}
		core.RunDistributed(g, core.Options{Rounds: 8}, eng)
		var re *RunError
		if !flip.flipped || !errors.As(eng.err, &re) {
			t.Fatalf("stream=%v: corrupted replay (flipped: %v) ended with %v, want a *RunError", row.stream, flip.flipped, eng.err)
		}
		if re.Worker != 1 || !strings.Contains(re.Error(), row.want) {
			t.Errorf("stream=%v: failure %v, want worker 1 refused over its %s", row.stream, re, row.want)
		}
	}
}

// countConn counts the bytes read through it.
type countConn struct {
	stdnet.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// Arming recovery costs the coordinator nothing on a fault-free run: what is
// kept to recover from a fault stays where the flows already are, so the
// workers send it the same bytes, to the byte, as with recovery off — no
// per-round state, on either plane.
func TestArmedRunShipsNoStateToCoordinator(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 11)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T}
	_, seqMet := core.RunDistributed(g, opt, dist.SeqEngine{})
	assign := shard.Hash{}.Partition(g, 3)
	received := func(stream, armed bool) int64 {
		var recv atomic.Int64
		br := newMeshBroker(3)
		conns := make([]*Conn, 3)
		var wg sync.WaitGroup
		for s := range conns {
			a, b := stdnet.Pipe()
			conns[s] = NewConn(countConn{a, &recv})
			w := NewWorker(NewConn(b), g, assign)
			ib := br.register(s)
			w.MeshDial, w.MeshAccept, w.MeshClose = br.dial, ib.accept, func() { br.close(ib) }
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer w.c.Close()
				core.RunDistributed(g, opt, w)
			}()
		}
		met, _, err := RunCoordinator(conns, Spec{P: 3, Stream: stream, Recover: armed, MaxRounds: T,
			GraphHash: g.Fingerprint(), PartDigest: shard.PartitionDigest(assign)})
		for _, c := range conns {
			c.Close() // the caller owns them; a worker still reading sees EOF
		}
		wg.Wait()
		if err != nil || met != seqMet {
			t.Fatalf("stream=%v armed=%v: metrics %+v (%v), want %+v", stream, armed, met, err, seqMet)
		}
		return recv.Load()
	}
	for _, stream := range []bool{false, true} {
		if off, on := received(stream, false), received(stream, true); on != off || off == 0 {
			t.Errorf("stream=%v: the coordinator received %d bytes with recovery armed, %d without", stream, on, off)
		}
	}
}
