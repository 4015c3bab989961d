package net

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
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
	// Respawn produces a fresh connection to a restarted worker for the
	// given shard: the in-process engine spawns a goroutine on a fresh
	// pipe, cmd/cluster re-execs the worker binary on a fresh socket. A
	// streamed run with a Respawn recovers (DESIGN.md §13): the senders on
	// the mesh retain every round's flows for the whole run, and a dead
	// worker is respawned and runs the run again from Init on them instead
	// of failing it. With no Respawn, or on the relay plane, a death fails
	// the run. gen is the hub's count of the shard's respawns, this one
	// included: the new incarnation's mesh generation (Worker.MeshGen), which
	// tells the peers its links from its predecessor's.
	Respawn func(shard, gen int) (*Conn, error)
	// Stream selects the streamed frame plane (DESIGN.md §8.4, §14):
	// cross-shard messages flow worker↔worker over a mesh of data connections,
	// the peers' end markers close a round, and the coordinator verifies behind
	// them the digests of frames it never sees. Workers must be given mesh
	// endpoints (Worker.MeshDial et al., or cmd/cluster's mesh listeners via
	// MeshSpec).
	Stream bool
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
	Values []codec.NodeValue
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
// surviving workers; unless a streamed run has a Spec.Respawn there is no
// retry, reconnect or partial result. Spec.IOTimeout (or deadlines set on the
// conns) makes a dead worker fail fast instead of hanging the coordinator.
// The caller owns the connections and closes them afterwards; together with
// the hub teardown that releases channel-blocked readers, that terminates
// the reader goroutines this call spawns.
func RunCoordinator(conns []*Conn, spec Spec) (dist.Metrics, *Report, error) {
	h := NewHub(conns)
	defer h.Close()
	return h.Run(spec)
}

// Run drives one coordinated run over the hub's connections (see
// RunCoordinator).
func (h *Hub) Run(spec Spec) (dist.Metrics, *Report, error) {
	p := len(h.conns)
	if p == 0 || (spec.P != 0 && spec.P != p) {
		return dist.Metrics{}, nil, fmt.Errorf("net: %d connections for P=%d", p, spec.P)
	}
	if spec.IOTimeout > 0 && h.Timeout == 0 {
		h.Timeout = spec.IOTimeout
	}
	c := &coordinator{
		hub:  h,
		spec: spec,
		rep:  &Report{Sharding: shard.ShardMetrics{P: p, PerShardBytes: make([]int64, p)}},
		cur:  -1,
		at:   make([]obs.Phase, p),
	}
	if spec.Stream {
		c.rep.StreamWire = make([]codec.StreamWire, p)
		c.stream = &streamCoord{c: c, in: make([]int, p), seq: make([]int, p), owed: make([]bool, p), last: -1}
		c.chains = slices.Repeat([]uint64{frameChainSeed}, p)
	} else {
		c.plane = &relayCoord{c: c}
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

	// chains[w] is the frame chain over everything sealed toward worker w so
	// far — what w's own fold must read when it reports its metrics. Allocated
	// on a streamed run; nil on a relayed one.
	chains []uint64
}

// recoverable reports whether worker death is survivable in this run.
func (c *coordinator) recoverable() bool { return c.stream != nil && c.spec.Respawn != nil }

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
// worker dead: in a recoverable run it is restored (the death surfaced in round
// t) and send runs again.
func (c *coordinator) sendRestoring(i, t int, send func(w int) error) (restarted bool, err error) {
	if err = send(i); err == nil || !c.recoverable() {
		return false, err
	}
	if err = c.restart(i, t); err != nil {
		return false, err
	}
	return true, send(i)
}

// restart is the recovery core (DESIGN.md §8.4, §13): respawn worker w,
// re-admit it with the original handshake, and send it the go record. The
// incarnation runs the run again from Init, live: the peers re-send it what
// they retained when its links attach, and every repeat it makes is dropped
// where it arrives. A worker's state is a pure function of what it has
// received, so the new incarnation is on its way to exactly the state the dead
// one died in, and reads whatever the coordinator sends next behind it. t is
// the round the death surfaced in.
func (c *coordinator) restart(w, t int) error {
	sp := c.spec.Trace.Begin(obs.PhaseRecover, t, w)
	defer sp.End()
	if _, err := c.hub.Respawn(w, c.spec.Respawn); err != nil {
		return err
	}
	if err := c.hub.Hello(c.spec, w); err != nil {
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
	return c.stream.readmit(w)
}

// checkWelcome validates one welcome record against the spec (shared by
// the initial handshake and recovery re-admission).
func (c *coordinator) checkWelcome(from int, typ byte, body []byte) (codec.Welcome, error) {
	if typ != recWelcome {
		return codec.Welcome{}, fmt.Errorf("net: worker %d sent record %d before welcome", from, typ)
	}
	w, err := codec.DecodeWelcome(body)
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

// Hello writes worker w the hello spec describes for its shard: the first
// record a run and a session send, and what re-admits a respawned worker —
// the same bytes again, the encoding being a function of (spec, w).
func (h *Hub) Hello(spec Spec, w int) error {
	kind, lamL, lamName := lambdaFields(spec.Lam)
	return h.Send(w, recHello, codec.AppendHello(nil, codec.Hello{
		Version:    codec.HandshakeVersion,
		P:          len(h.conns),
		Shard:      w,
		MaxRounds:  spec.MaxRounds,
		GraphHash:  spec.GraphHash,
		PartDigest: spec.PartDigest,
		LamKind:    kind,
		LamL:       lamL,
		LamName:    lamName,
		GraphSpec:  spec.GraphSpec,
		PartName:   spec.PartName,
		ProtoSpec:  spec.ProtoSpec,
		WantValues: spec.WantValues,
		Stream:     spec.Stream,
		MeshSpec:   spec.MeshSpec,
	}))
}

func (c *coordinator) run() (dist.Metrics, error) {
	p := c.hub.P()
	for i := 0; i < p; i++ {
		if err := c.hub.Hello(c.spec, i); err != nil {
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

	fin := codec.AppendFinish(nil, codec.Finish{Rounds: rounds, Halted: alive == 0})
	// finish writes worker w's finish record — a streamed successor's only once
	// the records it reports again are all in: until then its control reader
	// stays on the connection, where an abort reaches it.
	finish := func(w int) error {
		if c.stream != nil && c.stream.seq[w] < 2*(rounds+1) {
			return nil
		}
		return c.hub.Send(w, recFinish, fin)
	}
	// A finish-phase restart runs the whole worker flow again, so a restarted
	// worker legitimately re-sends records its dead incarnation already
	// delivered; restarted[i] is what lets the dup checks tolerate that.
	restarted := make([]bool, p)
	for i := range restarted {
		// A worker dead since its last record surfaces here.
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
			m, err := codec.DecodeMetrics(body)
			if err != nil {
				return false, err
			}
			// What the worker folded — a respawned incarnation's run from Init
			// included — must be what the coordinator sealed toward it.
			if c.chains != nil && m.Chain != c.chains[from] {
				return false, fmt.Errorf("net: worker %d folded its inbound flows to frame chain %#x, coordinator sealed %#x",
					from, m.Chain, c.chains[from])
			}
			if !gotMetrics[from] {
				// (A restarted worker's re-send is byte-identical to what its
				// dead incarnation already had counted, and is dropped.)
				gotMetrics[from] = true
				met.Messages += m.Messages
				met.Words += m.Words
				met.WireBytes += m.WireBytes
			}
		case recValues:
			if !c.spec.WantValues || gotValues[from] {
				return false, fmt.Errorf("net: worker %d shipped unsolicited values", from)
			}
			gotValues[from] = true
			var err error
			if c.rep.Values, err = codec.DecodeValues(c.rep.Values, body); err != nil {
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

// round drives one barrier round of the relay plane: step broadcast, then a
// pure collection phase until every worker's done record is in, then the
// release writes. Writing only after all P dones is what makes the protocol
// deadlock-free on unbuffered transports (net.Pipe): by then every worker has
// flushed its last record of the round and sits in its read loop, so the
// coordinator's writes always drain. Returns the number of nodes still alive
// across the cluster after the round.
func (c *coordinator) round(t int) (alive int, err error) {
	p := c.hub.P()
	c.cur = t
	for i := range c.at {
		c.at[i] = obs.PhaseStep
	}
	c.plane.begin(t)
	var buf [binary.MaxVarintLen64]byte
	step := codec.AppendStep(buf[:0], t)
	for i := 0; i < p; i++ {
		if err := c.hub.Send(i, recStep, step); err != nil {
			return 0, c.fail(i, obs.PhaseStep, err)
		}
	}
	bw := c.spec.Trace.Begin(obs.PhaseBarrierWait, t, -1)
	w, err := c.hub.Collect(c.hub.Everyone(), func(from int, typ byte, body []byte) (bool, error) {
		settled, n, err := c.plane.record(t, from, typ, body)
		alive += n
		if settled {
			c.at[from] = obs.PhaseBarrierWait // its done record is in
		}
		return settled, err
	}, nil)
	bw.End()
	if err != nil {
		return 0, c.fail(w, obs.PhaseStep, err)
	}
	rl := c.spec.Trace.Begin(obs.PhaseRelay, t, -1)
	for q := 0; q < p; q++ {
		if err := c.plane.release(t, q); err != nil {
			return 0, c.fail(q, obs.PhaseBarrierWait, err)
		}
		c.at[q] = obs.PhaseDeliver
	}
	rl.EndN(c.plane.volume())
	return alive, nil
}
