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
	// assign is the one assignment buffer: an epoch's moves go into it at
	// rebalance, and the worker commits as it sends its reconverge.
	assign []int
	moves  []shard.Move
	shard  int
	p      int
	part   shard.Partitioner
	m      *dynamic.Maintainer // between epochs, m.B() is the committed value vector
	epoch  int
	chain  uint64
	trace  *obs.Tracer
}

// NewWorkerState builds the session state for shard shardIdx of p over c:
// g and assign are the epoch-0 (post-run) inputs, T the round budget, part
// the partitioner whose Rebalance every epoch reruns. runB, when non-nil,
// is the run's result vector; the fresh Maintainer must agree with it bit
// for bit on this worker's own nodes, or the session is refused — the
// incremental oracle only matches the elimination protocol exactly under
// Λ = ℝ with exactly summable weights, and a session whose epochs could
// drift from fresh runs must fail at open, not at some later digest check.
// (The coordinator holds every weight to the contract itself —
// dynamic.Summable; this comparison is the cross-check on a sample.)
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
		c: c, assign: slices.Clone(assign),
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
// into the digest chain and is echoed back; then every DeltaPush advances one
// epoch in one exchange:
//
//	apply the batch (canonical order) → Maintainer frontier repair →
//	incremental Rebalance → commit and send the reconverge: the stamp this
//	worker arrived at, then its own shard's changed values.
//
// The coordinator seals the epoch only if all P stamps equal its own, so a
// fork breaks the session there — sessions choose determinism over
// availability exactly like runs do. Any local failure ends the loop with the
// error, and the caller ships it to the coordinator as an error record
// (Cluster's worker wrapper, cmd/cluster's worker). Waits for the next epoch
// go through AwaitRecord: idleness is not death.
func (w *WorkerState) ServeEpochs() error { return w.serve(false) }

// ServeResumed is the serve loop of a respawned session worker (DESIGN.md
// §13): instead of an epoch-0 stamp, the first record is the stamp of the
// last sealed epoch, on the ordinary stamp record.
// The worker holds *recomputed* state — the caller built it from the
// current committed graph and assignment, so the oracle is already at the
// sealed values (derived-state recovery ships no state) — verifies the
// stamp's graph/partition/values digests against that state, adopts the
// epoch number and chain digest, echoes the stamp byte-identically as its
// re-admission proof, and joins the ordinary epoch loop.
func (w *WorkerState) ServeResumed() error { return w.serve(true) }

// serve admits the worker with the stamp it must see first — resumed, the last
// sealed epoch's; otherwise epoch 0's — then runs the steady-state epoch loop
// fresh and resumed workers share.
func (w *WorkerState) serve(resumed bool) error {
	if err := w.admit(resumed); err != nil {
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
// epoch's reconverge carries its extension for the coordinator to check.
func (w *WorkerState) admit(resumed bool) error {
	typ, body, err := w.c.AwaitRecord()
	if err != nil {
		return fmt.Errorf("session: worker awaiting its admission stamp: %w", err)
	}
	if typ != net.RecValuesDigest {
		return fmt.Errorf("session: expected admission stamp (record type %d), got record type %d", net.RecValuesDigest, typ)
	}
	st, _, err := codec.DecodeStamp(body)
	if err != nil {
		return err
	}
	gh, pd, vd := w.m.Adjacency().Hash(), shard.PartitionDigest(w.assign), ValuesDigest(w.m.B())
	switch {
	case st.GraphHash != gh:
		return fmt.Errorf("session: epoch %d graph hash mismatch (stamp %#x, worker %#x)", st.Epoch, st.GraphHash, gh)
	case st.PartDigest != pd:
		return fmt.Errorf("session: epoch %d partition digest mismatch (stamp %#x, worker %#x)", st.Epoch, st.PartDigest, pd)
	case st.ValuesDigest != vd:
		return fmt.Errorf("session: epoch %d values digest mismatch (stamp %#x, worker %#x)", st.Epoch, st.ValuesDigest, vd)
	case !resumed && (st.Epoch != 0 || st.Changed != 0):
		return fmt.Errorf("session: epoch-0 stamp claims epoch %d with %d changes", st.Epoch, st.Changed)
	case !resumed && st.ChainDigest != ChainNext(0, gh, pd, vd): // epoch 0 extends the empty chain
		return fmt.Errorf("session: epoch 0 chain digest mismatch (stamp %#x, worker %#x)", st.ChainDigest, ChainNext(0, gh, pd, vd))
	}
	w.epoch, w.chain = st.Epoch, st.ChainDigest
	return w.c.Send(net.RecValuesDigest, codec.AppendStamp(nil, st))
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
	shard.ApplyMoves(w.assign, w.moves)
	rb.End()

	// The change set is the repair's own round-T moved list (the stamp's
	// count); this worker ships its slice of it under the post-rebalance
	// ownership, behind the stamp it arrived at. It commits as it sends: a
	// stamp the coordinator does not share breaks the session, so there is
	// nothing to roll back to.
	cur, moved := w.m.B(), w.m.Moved()
	var own []ValueChange
	for _, mv := range moved {
		if w.assign[mv.Node] == w.shard {
			own = append(own, ValueChange{Node: mv.Node, OldBits: math.Float64bits(mv.Old), NewBits: math.Float64bits(cur[mv.Node])})
		}
	}
	gh, pd, vd := adj.Hash(), shard.PartitionDigest(w.assign), ValuesDigest(cur)
	w.epoch, w.chain = epoch, ChainNext(w.chain, gh, pd, vd)
	st := codec.Stamp{Epoch: epoch, GraphHash: gh, PartDigest: pd, ValuesDigest: vd, ChainDigest: w.chain, Changed: len(moved)}
	return w.c.Send(net.RecReconverge, AppendReconverge(nil, Reconverge{Stamp: st, Changes: own}))
}

// Epoch returns the last committed epoch.
func (w *WorkerState) Epoch() int { return w.epoch }

// ChainDigest returns the chain digest of the last committed epoch.
func (w *WorkerState) ChainDigest() uint64 { return w.chain }
