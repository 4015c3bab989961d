package session

import (
	"fmt"
	"math"
	"slices"

	"distkcore/internal/codec"
	"distkcore/internal/core"
	"distkcore/internal/dynamic"
	"distkcore/internal/graph"
	net "distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/shard"
)

// WorkerState is the worker side of a session after its epoch-0 run: a
// dynamic.Maintainer as the incremental oracle — whose adjacency, mutated in
// place, is the worker's only copy of the graph (like net.Worker, every
// worker holds the whole graph and owns one shard of it) — the assignment
// and the digest chain. Drive it with ServeEpochs on the same connection the
// run used.
type WorkerState struct {
	c *net.Conn
	// assign is the sealed assignment, next the epoch in flight's: equal
	// between epochs, the epoch's moves go into next at rebalance and into
	// assign at commit.
	assign, next []int
	moves        []shard.Move
	shard        int
	p            int
	part         shard.Partitioner
	m            *dynamic.Maintainer // between epochs, m.B() is the sealed value vector
	epoch        int
	chain        uint64
	trace        *obs.Tracer
}

// NewWorkerState builds the session state for shard shardIdx of p over c:
// g and assign are the epoch-0 (post-run) inputs, T the round budget, part
// the partitioner whose Rebalance every epoch reruns. runB, when non-nil,
// is the run's result vector; the fresh Maintainer must agree with it bit
// for bit on this worker's own nodes, or the session is refused — the
// incremental oracle only matches the elimination protocol exactly under
// Λ = ℝ with exactly summable weights, and a session whose epochs could
// drift from fresh runs must fail at open, not at some later digest check.
// (The coordinator holds every weight to the contract itself — summable;
// this comparison is the cross-check on a sample.)
func NewWorkerState(c *net.Conn, g *graph.Graph, assign []int, shardIdx, p, T int, part shard.Partitioner, runB []float64) (*WorkerState, error) {
	n := g.N()
	switch {
	case len(assign) != n:
		return nil, fmt.Errorf("session: assignment covers %d nodes, graph has %d", len(assign), n)
	case p < 1 || shardIdx < 0 || shardIdx >= p:
		return nil, fmt.Errorf("session: bad shard index %d of %d", shardIdx, p)
	case part == nil:
		return nil, fmt.Errorf("session: worker needs the partitioner for epoch rebalances")
	case T < 1:
		return nil, fmt.Errorf("session: round budget %d", T)
	}
	m := dynamic.New(g, T)
	b := m.B()
	if runB != nil {
		if len(runB) != n {
			return nil, fmt.Errorf("session: run values cover %d nodes, graph has %d", len(runB), n)
		}
		for v := 0; v < n; v++ {
			if assign[v] == shardIdx && math.Float64bits(b[v]) != math.Float64bits(runB[v]) {
				return nil, fmt.Errorf("session: incremental oracle disagrees with the run at node %d (%v vs %v); sessions need Λ = ℝ and exactly summable weights", v, b[v], runB[v])
			}
		}
	}
	return &WorkerState{
		c: c, assign: slices.Clone(assign), next: slices.Clone(assign),
		shard: shardIdx, p: p, part: part, m: m,
	}, nil
}

// ServeWorker is a session worker's whole life on connection c, the one
// both the in-process cluster's worker body and cmd/cluster's `worker
// -session` process run: the handshake (read here unless w.Hello already
// holds it), the epoch-0 run with w as its engine, the run's values shipped
// to the coordinator, the session state built from them — tracing where w
// does — and the epoch loop until the coordinator's goodbye. g and
// assign are what w was built on, part the partitioner that produced assign
// (every epoch reruns its Rebalance), T the round budget.
// Errors come back unreported (the caller tells the coordinator); protocol
// violations inside the run panic, as Worker.Run's do.
func ServeWorker(c *net.Conn, w *net.Worker, g *graph.Graph, assign []int, part shard.Partitioner, T int) (*WorkerState, error) {
	if w.Hello == nil {
		h, err := net.ReadHello(c)
		if err != nil {
			return nil, err
		}
		w.Hello = h
	}
	if w.Hello.LamKind != codec.LamReals {
		return nil, fmt.Errorf("session: sessions require the exact threshold set Λ = ℝ")
	}
	res, _ := core.RunDistributed(g, core.Options{Rounds: T}, w)
	if err := w.SendValues(res.B); err != nil {
		return nil, err
	}
	ws, err := NewWorkerState(c, g, assign, w.Hello.Shard, w.Hello.P, T, part, res.B)
	if err != nil {
		return nil, err
	}
	ws.trace = w.Trace
	return ws, ws.ServeEpochs()
}

// ServeEpochs runs the worker's session loop until a Bye or an error. The
// first record must be the coordinator's epoch-0 stamp, which seals the run
// into the digest chain; then every DeltaPush advances one epoch:
//
//	apply the batch (canonical order) → Maintainer frontier repair →
//	incremental Rebalance → ship own-shard changed values → verify and
//	echo the coordinator's stamp → commit.
//
// Any verification failure ends the loop with the error — sessions choose
// determinism over availability exactly like runs do — and the caller ships
// it to the coordinator as an error record (Cluster's worker wrapper,
// cmd/cluster's worker).
// Waits for the next epoch go through AwaitRecord (idleness is not death);
// the intra-epoch stamp read is deadline-armed when the connection has an
// IO timeout, because mid-epoch silence is.
func (w *WorkerState) ServeEpochs() error { return w.serve(net.RecValuesDigest) }

// ServeResumed is the serve loop of a respawned session worker (DESIGN.md
// §13): instead of an epoch-0 stamp, the first record must be the
// coordinator's RecEpochResume carrying the stamp of the last sealed epoch.
// The worker holds *recomputed* state — the caller built it from the
// current committed graph and assignment, so the oracle is already at the
// sealed values (derived-state recovery ships no state) — verifies the
// stamp's graph/partition/values digests against that state, adopts the
// epoch number and chain digest, echoes the stamp byte-identically as its
// re-admission proof, and joins the ordinary epoch loop.
func (w *WorkerState) ServeResumed() error { return w.serve(net.RecEpochResume) }

// serve admits the worker with the stamp record it must see first, then runs
// the steady-state epoch loop fresh and resumed workers share.
func (w *WorkerState) serve(admission byte) error {
	if err := w.admit(admission); err != nil {
		return err
	}
	for {
		typ, body, err := w.c.AwaitRecord()
		if err != nil {
			return fmt.Errorf("session: worker read: %w", err)
		}
		switch typ {
		case net.RecBye:
			return nil
		case net.RecDeltaPush:
			if err := w.epochStep(body); err != nil {
				return err
			}
		default:
			return fmt.Errorf("session: unexpected record type %d at worker between epochs", typ)
		}
	}
}

// admit reads, verifies and echoes the stamp that lets the worker into the
// epoch loop. Either way the stamp's graph, partition and values digests
// must match the state the worker holds. A fresh worker's epoch-0 stamp must
// also carry the chain digest the worker derives itself; a resumed worker
// adopts the stamp's epoch and chain — the chain folds the whole epoch
// history and cannot be re-derived from the graph alone, and every later
// epoch re-verifies its extension as usual.
func (w *WorkerState) admit(admission byte) error {
	typ, body, err := w.c.AwaitRecord()
	if err != nil {
		return fmt.Errorf("session: worker awaiting its admission stamp: %w", err)
	}
	if typ != admission {
		return fmt.Errorf("session: expected admission stamp (record type %d), got record type %d", admission, typ)
	}
	st, _, err := codec.DecodeStamp(body)
	if err != nil {
		return err
	}
	var opening uint64 // epoch 0 extends the empty chain
	prevChain := &opening
	if admission == net.RecEpochResume {
		prevChain = nil
	} else if st.Epoch != 0 || st.Changed != 0 {
		return fmt.Errorf("session: epoch-0 stamp claims epoch %d with %d changes", st.Epoch, st.Changed)
	}
	if err := w.verifyStamp(st, prevChain, w.m.Adjacency().Hash(), shard.PartitionDigest(w.assign), ValuesDigest(w.m.B())); err != nil {
		return err
	}
	w.epoch, w.chain = st.Epoch, st.ChainDigest
	return w.echoStamp(st)
}

// epochStep advances one epoch from a DeltaPush body.
func (w *WorkerState) epochStep(body []byte) error {
	epoch, budget, d, err := DecodeDeltaPush(body)
	if err != nil {
		return err
	}
	if epoch != w.epoch+1 {
		return fmt.Errorf("session: delta push for epoch %d, worker at %d", epoch, w.epoch)
	}
	// Absorbing the delta is the oracle's alone: it mutates its adjacency in
	// place (rolling hash included) and repairs the frontier. The coordinator
	// validated the batch before broadcasting it, so an op that cannot apply
	// means forked state, which kills the session.
	rp := w.trace.Begin(obs.PhaseRepair, epoch, w.shard)
	err = w.m.ApplyDelta(d)
	rp.EndN(0, int64(d.Len()))
	if err != nil {
		return fmt.Errorf("session: epoch %d oracle: %w", epoch, err)
	}
	adj := w.m.Adjacency()
	rb := w.trace.Begin(obs.PhaseRebalance, epoch, w.shard)
	w.moves = w.part.Rebalance(adj, w.p, w.assign, shard.Frontier(d), budget, w.moves)
	shard.ApplyMoves(w.next, w.moves)
	rb.End()

	// The change set is the repair's own round-T moved list (for the stamp's
	// count); this worker ships its slice of it under the POST-rebalance
	// ownership.
	cur, moved := w.m.B(), w.m.Moved()
	var own []ValueChange
	for _, mv := range moved {
		if w.next[mv.Node] == w.shard {
			own = append(own, ValueChange{Node: mv.Node, OldBits: math.Float64bits(mv.Old), NewBits: math.Float64bits(cur[mv.Node])})
		}
	}
	changed := len(moved)
	gh, pd := adj.Hash(), shard.PartitionDigest(w.next)
	rec := AppendReconverge(nil, Reconverge{Epoch: epoch, GraphHash: gh, PartDigest: pd, Changes: own})
	if err := w.c.Send(net.RecReconverge, rec); err != nil {
		return err
	}

	// Mid-epoch the coordinator owes us a stamp promptly: deadline-armed read.
	typ, sb, err := w.c.ReadRecord()
	if err != nil {
		return fmt.Errorf("session: worker awaiting epoch %d stamp: %w", epoch, err)
	}
	if typ == net.RecBye {
		return fmt.Errorf("session: coordinator said goodbye mid-epoch %d", epoch)
	}
	if typ != net.RecValuesDigest {
		return fmt.Errorf("session: expected epoch %d stamp, got record type %d", epoch, typ)
	}
	st, _, err := codec.DecodeStamp(sb)
	if err != nil {
		return err
	}
	if st.Epoch != epoch {
		return fmt.Errorf("session: stamp seals epoch %d, worker at %d", st.Epoch, epoch)
	}
	if st.Changed != changed {
		return fmt.Errorf("session: epoch %d stamp counts %d changes, oracle saw %d", epoch, st.Changed, changed)
	}
	if err := w.verifyStamp(st, &w.chain, gh, pd, ValuesDigest(cur)); err != nil {
		return err
	}
	if err := w.echoStamp(st); err != nil {
		return err
	}

	// Commit: the epoch is sealed on both sides.
	shard.ApplyMoves(w.assign, w.moves)
	w.epoch, w.chain = epoch, st.ChainDigest
	return nil
}

// verifyStamp checks a stamp's digests against locally derived state — and,
// unless prevChain is nil, its chain digest against the extension of
// *prevChain — and advances nothing.
func (w *WorkerState) verifyStamp(st codec.Stamp, prevChain *uint64, gh, pd, vd uint64) error {
	switch {
	case st.GraphHash != gh:
		return fmt.Errorf("session: epoch %d graph hash mismatch (stamp %#x, worker %#x)", st.Epoch, st.GraphHash, gh)
	case st.PartDigest != pd:
		return fmt.Errorf("session: epoch %d partition digest mismatch (stamp %#x, worker %#x)", st.Epoch, st.PartDigest, pd)
	case st.ValuesDigest != vd:
		return fmt.Errorf("session: epoch %d values digest mismatch (stamp %#x, worker %#x)", st.Epoch, st.ValuesDigest, vd)
	}
	if prevChain == nil {
		return nil
	}
	if chain := ChainNext(*prevChain, gh, pd, vd); st.ChainDigest != chain {
		return fmt.Errorf("session: epoch %d chain digest mismatch (stamp %#x, worker %#x)", st.Epoch, st.ChainDigest, chain)
	}
	return nil
}

// echoStamp returns the verified stamp to the coordinator.
func (w *WorkerState) echoStamp(st codec.Stamp) error {
	return w.c.Send(net.RecValuesDigest, codec.AppendStamp(nil, st))
}

// Epoch returns the last sealed epoch.
func (w *WorkerState) Epoch() int { return w.epoch }

// ChainDigest returns the chain digest of the last sealed epoch.
func (w *WorkerState) ChainDigest() uint64 { return w.chain }
