package net

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// Spec describes one coordinated run: the fan-out, the pinned inputs every
// worker must prove it shares (graph fingerprint, partition digest,
// threshold set, round budget) and — for workers in separate processes —
// the spec strings they resolve those inputs from. The zero spec strings
// mean "the worker already holds the inputs" (the in-process engine).
type Spec struct {
	P          int
	MaxRounds  int
	Lam        quantize.Lambda
	GraphHash  uint64
	PartDigest uint64
	GraphSpec  string // e.g. "ba:10000:7" (cliutil.LoadGraphSpec); empty in-process
	PartName   string // partitioner name for Partition(g, P); empty in-process
	ProtoSpec  string // e.g. "coreness:23"; empty in-process
	WantValues bool   // collect per-node result values after the metrics records
	// IOTimeout, when non-zero, bounds every wait on a worker reply: a
	// worker that stays silent for longer fails the run with a timeout
	// error instead of hanging the coordinator forever (fail-fast, the
	// deadline side of "determinism over availability").
	IOTimeout time.Duration
	// Recover arms crash recovery (DESIGN.md §13): the inbound flows of every
	// round are retained for the whole run — by the coordinator on the relay
	// plane, by their senders on the mesh — and a dead worker is respawned via
	// Respawn and runs the run again from Init on them instead of failing it.
	Recover bool
	// Respawn produces a fresh connection to a restarted worker for the
	// given shard: the in-process engine spawns a goroutine on a fresh
	// pipe, cmd/cluster re-execs the worker binary on a fresh socket.
	// Recovery requires it; a nil Respawn with Recover set fails the run on
	// the first death, exactly as if recovery were off. gen is the hub's
	// count of the shard's respawns, this one included; on a streamed run it
	// is the new incarnation's mesh generation (Worker.MeshGen), which tells
	// the peers its links from its predecessor's.
	Respawn func(shard, gen int) (*Conn, error)
	// OnRound, when non-nil, runs as the coordinator takes up every round —
	// before the step broadcast, or on a streamed run before it collects the
	// round's records, wherever the free-running workers have got to by then —
	// the fault-injection seam multi-process harnesses use to SIGKILL a worker
	// at a chosen round.
	OnRound func(t int)
	// Stream selects the streamed frame plane (DESIGN.md §8.4, §14):
	// cross-shard messages flow worker↔worker over a mesh of data connections,
	// the peers' end markers close a round, and the coordinator verifies behind
	// them the digests of frames it never sees. Workers must be given mesh
	// endpoints (Worker.MeshDial et al., or cmd/cluster's mesh listeners via
	// MeshSpec).
	Stream bool
	// MeshThreshold is the P at or above which a streamed run uses the
	// hypercube relay topology instead of the full mesh (power-of-two P
	// only; ≤ 0 means the default of 16). Recovery forces the full mesh —
	// resends need a direct path that a relay hop's death cannot sever.
	MeshThreshold int
	// MeshSpec names the workers' mesh listen addresses for multi-process
	// streamed runs (comma-joined, indexed by shard); empty in-process.
	MeshSpec string
	// Trace, when set, records the coordinator's per-round barrier-wait and
	// relay (streamed: verify) spans plus one Flow per cross-shard frame —
	// the P×P matrix that makes the relay's coordinator funnel visible. It
	// observes bytes the ledger already prices, so a traced run is
	// byte-identical to an untraced one.
	Trace *obs.Tracer
}

// NodeValue is one node's result value as shipped by a worker — the exact
// float bit pattern, so cross-process verification can demand bit equality.
type NodeValue struct {
	Node graph.NodeID
	Bits uint64
}

// Report is the cluster-level outcome of one coordinated run — what
// dist.Metrics cannot see because it depends on where nodes live.
type Report struct {
	// Sharding is the frame-traffic ledger, in the sharded engine's units
	// (CrossFrameBytes counts header+body, exactly what Engine.ShardMetrics
	// of internal/shard would report for the same run). EdgeCutFraction is
	// left zero — the coordinator does not need the graph; callers that
	// hold it fill the field via shard.CutFraction.
	Sharding shard.ShardMetrics
	// Nodes is the sum of the workers' shard sizes (a handshake sanity
	// datum for callers that know n).
	Nodes int
	// Values holds every worker's shipped node values when Spec.WantValues
	// was set, in arrival order; nil otherwise.
	Values []NodeValue
	// Recoveries counts worker crash recoveries performed during the run
	// (0 when recovery is disabled or nothing died).
	Recoveries int
	// StreamWire holds each worker's cumulative mesh wire counters as of
	// its last acked round (streamed runs only; nil otherwise). It is
	// observability, not protocol: the quantity that must stay ~flat per
	// worker as P grows.
	StreamWire []codec.StreamWire
}

// Assemble scatters the collected values into an n-sized vector (missing
// nodes stay zero, duplicates and out-of-range nodes error).
func (r *Report) Assemble(n int) ([]float64, error) {
	out := make([]float64, n)
	seen := make([]bool, n)
	for _, v := range r.Values {
		if v.Node < 0 || v.Node >= n {
			return nil, fmt.Errorf("net: worker shipped value for node %d of %d", v.Node, n)
		}
		if seen[v.Node] {
			return nil, fmt.Errorf("net: two workers shipped node %d", v.Node)
		}
		seen[v.Node] = true
		out[v.Node] = math.Float64frombits(v.Bits)
	}
	return out, nil
}

// RunError is a failed run's diagnosis: the round in flight, the worker the
// failure is pinned on (-1 when it cannot be pinned on one — a coordinator-
// side check, a timeout with several laggards) and where that worker stood
// in the round by the coordinator's records: step until its done record is
// in, barrier-wait until it is released (streamed: until its ack is in),
// deliver after. A streamed worker runs ahead of the coordinator, so Round is
// the worker's own; a streamed round whose records are all in and do not close
// is reported at verify, against the worker whose ack disagrees. With Worker
// -1 the phase is where the workers still owing a record stood. Hub.Run and
// RunCoordinator return it for every fault past the handshake, so errors.As
// recovers the structure (the twin of session.BreakCause).
type RunError struct {
	Round  int
	Phase  obs.Phase
	Worker int
	Err    error
}

// Error implements error: the attribution, then the underlying error.
func (e *RunError) Error() string {
	if e.Worker >= 0 {
		return fmt.Sprintf("net: run failed at round %d (%s, worker %d): %v", e.Round, e.Phase, e.Worker, e.Err)
	}
	return fmt.Sprintf("net: run failed at round %d (%s): %v", e.Round, e.Phase, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As chains.
func (e *RunError) Unwrap() error { return e.Err }

// RunCoordinator drives one full run over P established worker
// connections: handshake, per-round barrier (step → frame exchange →
// deliver), finish, metric aggregation. conns[i] becomes shard i. It returns
// the run-level Metrics — byte-identical to dist.SeqEngine's for the same
// protocol, graph and Λ — plus the cluster Report.
//
// Failure behavior (DESIGN.md §8): the protocol chooses determinism over
// availability. Any connection error, version skew, digest mismatch or
// protocol violation aborts the whole run with an error (a *RunError once
// the handshake is through) after best-effort error records to the
// surviving workers; unless Spec.Recover is armed there is no retry,
// reconnect or partial result. Spec.IOTimeout (or deadlines set on the
// conns) makes a dead worker fail fast instead of hanging the coordinator.
// The caller owns the connections and closes them afterwards; together with
// the hub teardown that releases channel-blocked readers, that terminates
// the reader goroutines this call spawns. To keep the workers alive for more
// exchanges after the run — a session — build a Hub yourself and call its
// Run; this wrapper tears the hub down when the run ends.
func RunCoordinator(conns []*Conn, spec Spec) (dist.Metrics, *Report, error) {
	h := NewHub(conns)
	defer h.Close()
	return h.Run(spec)
}

// Run drives one coordinated run over the hub's connections (see
// RunCoordinator). The hub stays usable afterwards: readers keep pumping,
// so a session layer can continue with epoch exchanges on the same
// connections.
func (h *Hub) Run(spec Spec) (dist.Metrics, *Report, error) {
	p := len(h.conns)
	if p == 0 || (spec.P != 0 && spec.P != p) {
		return dist.Metrics{}, nil, fmt.Errorf("net: %d connections for P=%d", p, spec.P)
	}
	if spec.IOTimeout > 0 && h.Timeout == 0 {
		h.Timeout = spec.IOTimeout
	}
	c := &coordinator{
		hub:    h,
		spec:   spec,
		rep:    &Report{Sharding: shard.ShardMetrics{P: p, PerShardBytes: make([]int64, p)}},
		cur:    -1,
		at:     make([]obs.Phase, p),
		hellos: make([][]byte, p),
	}
	if spec.Stream {
		c.rep.StreamWire = make([]codec.StreamWire, p)
		c.stream = &streamCoord{c: c, in: make([]int, p), seq: make([]int, p), owed: make([]bool, p), last: -1}
	} else {
		c.plane = &relayCoord{c: c, hist: make([][][]frameRec, p)}
	}
	if spec.Recover {
		c.chains = make([]uint64, p)
		for i := range c.chains {
			c.chains[i] = frameChainSeed
		}
	}
	met, err := c.run()
	if err != nil {
		h.SendError(err)
		return dist.Metrics{}, nil, err
	}
	return met, c.rep, nil
}

type coordinator struct {
	hub  *Hub
	spec Spec
	rep  *Report
	// plane is a relayed run's frame plane under the barrier loop (relay.go),
	// stream a streamed run's verifier (stream.go); one of them is set.
	plane  *relayCoord
	stream *streamCoord

	// cur is the round in flight (-1 during the handshake, the last executed
	// round during the finish), and at[w] where worker w stands in it —
	// what a RunError reports.
	cur int
	at  []obs.Phase

	// hellos[w] is worker w's hello record body as first sent — re-admitting
	// a respawned worker replays the identical bytes.
	hellos [][]byte

	// chains[w] is the frame chain over everything sealed toward worker w so
	// far — what w's own fold must read when it reports its metrics. Allocated
	// when spec.Recover; nil otherwise.
	chains []uint64
}

// recoverable reports whether worker death is survivable in this run.
func (c *coordinator) recoverable() bool { return c.spec.Recover && c.spec.Respawn != nil }

// fail attributes a fatal fault to worker w (-1: nobody) at its position in
// the round in flight; waiting is the position of the workers still owing a
// record, reported when nobody is implicated.
func (c *coordinator) fail(w int, waiting obs.Phase, err error) error {
	round := c.cur
	if w >= 0 {
		if waiting = c.at[w]; c.stream != nil {
			round, waiting = c.stream.position(w)
		}
	}
	return &RunError{Round: round, Phase: waiting, Worker: w, Err: err}
}

// sendRestoring has send write to worker i. A write that fails finds the
// worker dead since its last release: with recovery armed it is restored
// through round upTo and send runs again.
func (c *coordinator) sendRestoring(i, upTo int, send func(w int) error) (restarted bool, err error) {
	if err = send(i); err == nil || !c.recoverable() {
		return false, err
	}
	if err = c.restart(i, upTo); err != nil {
		return false, err
	}
	return true, send(i)
}

// restart is the recovery core (DESIGN.md §8.4, §13): respawn worker w,
// re-admit it with the original handshake, and have it run the run again from
// Init. Relayed, the coordinator replays rounds 0..upTo to it — each a re-step
// that sends nothing (the peers hold the dead incarnation's identical bytes)
// fed the round's frames again; deadlock-free: a replaying worker writes
// nothing here, so the writes below drain as fast as it re-steps. Streamed,
// the go record is all: the incarnation runs live, the peers re-send it what
// they retained when its links attach, and every repeat it makes is dropped
// where it arrives. A worker's state is a pure function of what it has
// received, so the new incarnation is on its way to exactly the state the dead
// one died in, and reads whatever the coordinator sends next behind it.
func (c *coordinator) restart(w, upTo int) error {
	sp := c.spec.Trace.Begin(obs.PhaseRecover, upTo, w)
	defer sp.End()
	cn, _, err := c.hub.Respawn(w, c.spec.Respawn)
	if err != nil {
		return err
	}
	if err := c.hub.Send(w, recHello, c.hellos[w]); err != nil {
		return fmt.Errorf("net: re-admitting worker %d: %w", w, err)
	}
	typ, body, err := c.hub.AwaitFrom(w)
	if err != nil {
		return fmt.Errorf("net: re-admitting worker %d: %w", w, err)
	}
	if _, err := c.checkWelcome(w, typ, body); err != nil {
		return err
	}
	c.rep.Recoveries++
	if c.stream != nil {
		return c.stream.readmit(w)
	}
	for t := 0; t <= upTo; t++ {
		rp := c.spec.Trace.Begin(obs.PhaseReplay, t, w)
		bytes, items, err := c.plane.replay(cn, w, t)
		if err != nil {
			return fmt.Errorf("net: replaying round %d to worker %d: %w", t, w, err)
		}
		rp.EndN(bytes, items)
	}
	if err := cn.Flush(); err != nil {
		return fmt.Errorf("net: replaying to worker %d: %w", w, err)
	}
	return nil
}

// checkWelcome validates one welcome record against the spec (shared by
// the initial handshake and recovery re-admission).
func (c *coordinator) checkWelcome(from int, typ byte, body []byte) (codec.Welcome, error) {
	if typ != recWelcome {
		return codec.Welcome{}, fmt.Errorf("net: worker %d sent record %d before welcome", from, typ)
	}
	w, _, err := codec.DecodeWelcome(body)
	if err != nil {
		return codec.Welcome{}, err
	}
	switch {
	case w.Version != codec.HandshakeVersion:
		return codec.Welcome{}, fmt.Errorf("net: worker %d speaks version %d, want %d", from, w.Version, codec.HandshakeVersion)
	case w.Shard != from:
		return codec.Welcome{}, fmt.Errorf("net: worker %d answered as shard %d", from, w.Shard)
	case w.GraphHash != c.spec.GraphHash || w.PartDigest != c.spec.PartDigest:
		return codec.Welcome{}, fmt.Errorf("net: worker %d echoes mismatched digests", from)
	}
	return w, nil
}

func (c *coordinator) run() (dist.Metrics, error) {
	p := c.hub.P()
	kind, lamL, lamName := lambdaFields(c.spec.Lam)
	for i := 0; i < p; i++ {
		c.hellos[i] = codec.AppendHello(nil, codec.Hello{
			Version:    codec.HandshakeVersion,
			P:          p,
			Shard:      i,
			MaxRounds:  c.spec.MaxRounds,
			GraphHash:  c.spec.GraphHash,
			PartDigest: c.spec.PartDigest,
			LamKind:    kind,
			LamL:       lamL,
			LamName:    lamName,
			GraphSpec:  c.spec.GraphSpec,
			PartName:   c.spec.PartName,
			ProtoSpec:  c.spec.ProtoSpec,
			WantValues: c.spec.WantValues,
			Recover:    c.spec.Recover,
			Stream:     c.spec.Stream,
			MeshKind:   meshKindFor(p, c.spec.MeshThreshold, c.spec.Recover),
			MeshSpec:   c.spec.MeshSpec,
		})
		if err := c.hub.Send(i, recHello, c.hellos[i]); err != nil {
			return dist.Metrics{}, err
		}
	}
	if _, err := c.hub.Collect(c.hub.Everyone(), func(from int, typ byte, body []byte) (bool, error) {
		w, err := c.checkWelcome(from, typ, body)
		c.rep.Nodes += w.Nodes
		return true, err
	}, nil); err != nil {
		return dist.Metrics{}, err
	}

	// The round loop mirrors dist.SeqEngine.Run condition for condition:
	// Init is round 0 and always runs; round t runs while t ≤ maxRounds
	// and someone is still alive; Rounds is the last t executed. A streamed
	// run's workers apply it themselves and the coordinator follows.
	var alive int
	var err error
	if c.stream != nil {
		alive, err = c.stream.run()
	} else {
		alive, err = c.round(0)
		for t := 1; err == nil && t <= c.spec.MaxRounds && alive > 0; t++ {
			alive, err = c.round(t)
		}
	}
	if err != nil {
		return dist.Metrics{}, err
	}
	rounds := c.cur

	fin := binary.AppendUvarint(nil, uint64(rounds))
	if alive == 0 {
		fin = append(fin, 1)
	} else {
		fin = append(fin, 0)
	}
	// finish writes worker w's finish record — a streamed successor's only once
	// the records it reports again are all in: until then its control reader
	// stays on the connection, where an abort reaches it.
	finish := func(w int) error {
		if c.stream != nil && c.stream.seq[w] < 2*(rounds+1) {
			return nil
		}
		return c.hub.Send(w, recFinish, fin)
	}
	// A finish-phase restart replays the whole worker flow, so a restarted
	// worker legitimately re-sends records its dead incarnation already
	// delivered; restarted[i] is what lets the dup checks tolerate that.
	restarted := make([]bool, p)
	for i := range restarted {
		// A worker killed at the last round's delivery surfaces here.
		if restarted[i], err = c.sendRestoring(i, rounds, finish); err != nil {
			return dist.Metrics{}, c.fail(i, obs.PhaseDeliver, err)
		}
	}
	met := dist.Metrics{Rounds: rounds, Halted: alive == 0}
	gotMetrics := make([]bool, p)
	gotValues := make([]bool, p)
	owed := c.hub.Everyone()
	w, err := c.hub.Collect(owed, func(from int, typ byte, body []byte) (bool, error) {
		switch typ {
		case recMetrics:
			if gotMetrics[from] && !restarted[from] {
				return false, fmt.Errorf("net: worker %d reported metrics twice", from)
			}
			msgs, words, wire, chain, err := decodeMetrics(body)
			if err != nil {
				return false, err
			}
			// What the worker folded — live, or replayed to a respawned
			// incarnation — must be what the coordinator sealed toward it.
			if c.chains != nil && chain != c.chains[from] {
				return false, fmt.Errorf("net: worker %d folded its inbound flows to frame chain %#x, coordinator sealed %#x",
					from, chain, c.chains[from])
			}
			if !gotMetrics[from] {
				// (A restarted worker's re-send is byte-identical to what its
				// dead incarnation already had counted, and is dropped.)
				gotMetrics[from] = true
				met.Messages += msgs
				met.Words += words
				met.WireBytes += wire
			}
		case recValues:
			if !c.spec.WantValues || gotValues[from] {
				return false, fmt.Errorf("net: worker %d shipped unsolicited values", from)
			}
			gotValues[from] = true
			var err error
			if c.rep.Values, err = decodeValues(c.rep.Values, body); err != nil {
				return false, err
			}
		default:
			if c.stream == nil {
				return false, fmt.Errorf("net: unexpected record type %d at finish", typ)
			}
			// What a restarted streamed worker reports again on its way here.
			if err := c.stream.record(from, typ, body); err != nil {
				return false, err
			}
			return false, finish(from)
		}
		return gotMetrics[from] && (!c.spec.WantValues || gotValues[from]), nil
	}, func(w int, cause error) error {
		// A worker may close its connection as soon as it has shipped its last
		// record, while siblings are still reporting — an EOF from a worker
		// whose records are all in is the normal end, not a failure.
		if !owed[w] {
			return nil
		}
		if !c.recoverable() {
			return cause
		}
		if err := c.restart(w, rounds); err != nil {
			return err
		}
		restarted[w] = true
		return finish(w)
	})
	if err != nil {
		return dist.Metrics{}, c.fail(w, obs.PhaseDeliver, err)
	}
	for _, b := range c.rep.Sharding.PerShardBytes {
		if b > c.rep.Sharding.MaxShardBytes {
			c.rep.Sharding.MaxShardBytes = b
		}
	}
	return met, nil
}

// round drives one barrier round of the relay plane: step broadcast,
// then a pure collection phase until every worker's done record is in, then
// seal, then the release writes, then — where the plane has workers
// acknowledge their release — a second collection. Writing only after all P
// dones is what makes the protocol deadlock-free on unbuffered transports
// (net.Pipe): by then every worker has flushed its last record of the round
// and sits in its read loop, so the coordinator's writes always drain.
// Returns the number of nodes still alive across the cluster after the
// round.
//
// With recovery armed, a worker death inside the round is handled by where
// it surfaces (DESIGN.md §8.4): before the worker's done record, whatever it
// contributed to round t is discarded and the restored worker re-steps the
// round; after its done record, its contribution stands — the frames are
// parked at the coordinator — and the worker is restored through round t once
// the round's last collection ends.
func (c *coordinator) round(t int) (alive int, err error) {
	if c.spec.OnRound != nil {
		c.spec.OnRound(t)
	}
	p := c.hub.P()
	c.cur = t
	for i := range c.at {
		c.at[i] = obs.PhaseStep
	}
	c.plane.begin(t)
	var buf [binary.MaxVarintLen64]byte
	step := binary.AppendUvarint(buf[:0], uint64(t))
	for i := 0; i < p; i++ {
		// Dead before stepping round t: restore through t-1, then step.
		if _, err := c.sendRestoring(i, t-1, func(w int) error { return c.hub.Send(w, recStep, step) }); err != nil {
			return 0, c.fail(i, obs.PhaseStep, err)
		}
	}
	owed := c.hub.Everyone()
	// dead marks workers that died with their round-t contribution standing
	// (after their done record, or at their release): restored through t
	// once the round's collections end.
	dead := make([]bool, p)
	handle := func(from int, typ byte, body []byte) (bool, error) {
		settled, n, err := c.plane.record(t, from, typ, body)
		alive += n
		if settled && c.at[from] == obs.PhaseStep {
			c.at[from] = obs.PhaseBarrierWait // its done record is in
		}
		return settled, err
	}
	bw := c.spec.Trace.Begin(obs.PhaseBarrierWait, t, -1)
	w, err := c.hub.Collect(owed, handle, func(w int, cause error) error {
		if !c.recoverable() {
			return cause
		}
		if !owed[w] {
			// Died after its done record (per-conn FIFO: everything it sent
			// preceded the fault): the round stands.
			dead[w] = true
			return nil
		}
		// Died mid-round: drop its partial round t, restore through t-1,
		// re-step.
		c.plane.discard(w)
		if err := c.restart(w, t-1); err != nil {
			return err
		}
		return c.hub.Send(w, recStep, step)
	})
	bw.End()
	if err != nil {
		return 0, c.fail(w, obs.PhaseStep, err)
	}
	if err := c.plane.seal(t); err != nil {
		return 0, c.fail(-1, obs.PhaseBarrierWait, err)
	}
	rl := c.spec.Trace.Begin(obs.PhaseRelay, t, -1)
	for q := 0; q < p; q++ {
		if dead[q] {
			continue
		}
		owesAck, err := c.plane.release(t, q)
		if err != nil {
			if !c.recoverable() {
				return 0, c.fail(q, obs.PhaseBarrierWait, err)
			}
			dead[q] = true // its done record is in: restore through t below
			continue
		}
		c.at[q], owed[q] = obs.PhaseDeliver, owesAck
	}
	w, err = c.hub.Collect(owed, handle, func(w int, cause error) error {
		if !c.recoverable() {
			return cause
		}
		// Died at its receive barrier, its delivery, or just after the ack:
		// its done stood, so restore through t with the rest.
		dead[w], owed[w] = true, false
		return nil
	})
	rl.EndN(c.plane.volume())
	if err != nil {
		return 0, c.fail(w, obs.PhaseDeliver, err)
	}
	for q := range dead {
		if dead[q] {
			if err := c.restart(q, t); err != nil {
				return 0, c.fail(q, obs.PhaseDeliver, err)
			}
		}
	}
	return alive, nil
}
