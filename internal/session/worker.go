package session

import (
	"fmt"
	"math"
	"slices"

	"distkcore/internal/codec"
	"distkcore/internal/dynamic"
	"distkcore/internal/graph"
	net "distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/shard"
)

// WorkerState is the worker side of a session: a dynamic.Maintainer as the
// incremental oracle — whose adjacency, mutated in place, is the worker's
// only copy of the graph (like net.Worker, every worker holds the whole graph
// and owns one shard of it) — the assignment and the digest chain. Drive it
// with Serve on the connection its coordinator speaks on.
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

// NewWorkerState builds the session state for shard shardIdx of p over c: g
// and assign are the graph and assignment of the last sealed epoch — an
// opening session's inputs, or what a respawned worker rebuilds from — T the
// round budget, part the partitioner whose Rebalance every epoch reruns. The
// oracle's β_T is the elimination's bit for bit under the exact-sum contract
// the coordinator holds every weight to (dynamic.Summable), so the worker
// opens on it: no run precedes a session.
func NewWorkerState(c *net.Conn, g *graph.Graph, assign []int, shardIdx, p, T int, part shard.Partitioner) (*WorkerState, error) {
	switch {
	case len(assign) != g.N():
		return nil, fmt.Errorf("session: assignment covers %d nodes, graph has %d", len(assign), g.N())
	case p < 1 || shardIdx < 0 || shardIdx >= p:
		return nil, fmt.Errorf("session: bad shard index %d of %d", shardIdx, p)
	case part == nil:
		return nil, fmt.Errorf("session: worker needs the partitioner for epoch rebalances")
	case T < 1:
		return nil, fmt.Errorf("session: round budget %d", T)
	}
	return &WorkerState{
		c: c, assign: slices.Clone(assign),
		shard: shardIdx, p: p, part: part, m: dynamic.New(g, T),
	}, nil
}

// Serve is a session worker's life on its connection, from its admission to
// the coordinator's goodbye. The first record admits it. An opening
// session's worker gets its hello — h, when the caller has read it already,
// as cmd/cluster's worker does to resolve its inputs from it — and answers
// with epoch 0's reconverge: its own shard's β_T as changes from +∞, behind
// the stamp it arrived at. A worker respawned after epoch 0 was sealed gets
// the last sealed epoch's stamp, on the ordinary stamp record; its state is
// *recomputed* from the sealed graph and assignment (derived-state recovery
// ships no state), and it verifies the stamp's graph, partition and values
// digests against that state, adopts the epoch number and chain digest —
// the chain folds the whole epoch history and cannot be re-derived from the
// graph alone — and echoes the stamp byte-identically. Then every DeltaPush
// advances one epoch in one exchange:
//
//	apply the batch (canonical order) → Maintainer frontier repair →
//	incremental Rebalance → commit and send the reconverge: the stamp this
//	worker arrived at, then its own shard's changed values.
//
// The coordinator seals an epoch only if all P stamps equal its own, so a
// fork breaks the session there — sessions choose determinism over
// availability exactly like runs do. Any local failure ends the loop with the
// error, and the caller ships it to the coordinator as an error record
// (Cluster's worker wrapper, cmd/cluster's worker). Waits for the next epoch
// go through AwaitRecord: idleness is not death.
func (w *WorkerState) Serve(h *codec.Hello) error {
	if err := w.admit(h); err != nil {
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

// admit answers the record that lets the worker into the epoch loop: a hello
// (h, or read here) with epoch 0's reconverge, a stamp with its echo.
func (w *WorkerState) admit(h *codec.Hello) error {
	if h == nil {
		typ, body, err := w.c.AwaitRecord()
		if err != nil {
			return fmt.Errorf("session: worker awaiting its admission: %w", err)
		}
		switch typ {
		case net.RecValuesDigest:
			return w.resume(body)
		case net.RecHello:
			hello, err := codec.DecodeHello(body)
			if err != nil {
				return err
			}
			h = &hello
		default:
			return fmt.Errorf("session: expected a hello or a stamp to admit the worker, got record type %d", typ)
		}
	}
	switch {
	case h.Version != codec.HandshakeVersion:
		return fmt.Errorf("session: handshake version %d, want %d", h.Version, codec.HandshakeVersion)
	case h.P != w.p || h.Shard != w.shard:
		return fmt.Errorf("session: hello for shard %d of %d at worker %d of %d", h.Shard, h.P, w.shard, w.p)
	case h.MaxRounds != w.m.T:
		return fmt.Errorf("session: round budget mismatch (coordinator %d, worker %d)", h.MaxRounds, w.m.T)
	case h.LamKind != codec.LamReals:
		return fmt.Errorf("session: sessions require the exact threshold set Λ = ℝ")
	}
	// The graph and partition the hello pins come back digested in the
	// stamp, which the coordinator holds to its own.
	b := w.m.B()
	var own []ValueChange
	changed, inf := 0, math.Float64bits(math.Inf(1))
	for v, x := range b {
		if bits := math.Float64bits(x); bits != inf {
			changed++
			if w.assign[v] == w.shard {
				own = append(own, ValueChange{Node: v, OldBits: inf, NewBits: bits})
			}
		}
	}
	return w.reconverge(0, changed, own)
}

// resume verifies a respawned worker's admission stamp against the state it
// recomputed, adopts the stamp's epoch and chain and echoes it.
func (w *WorkerState) resume(body []byte) error {
	st, err := codec.DecodeStamp(body)
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
	// ownership.
	cur, moved := w.m.B(), w.m.Moved()
	var own []ValueChange
	for _, mv := range moved {
		if w.assign[mv.Node] == w.shard {
			own = append(own, ValueChange{Node: mv.Node, OldBits: math.Float64bits(mv.Old), NewBits: math.Float64bits(cur[mv.Node])})
		}
	}
	return w.reconverge(epoch, len(moved), own)
}

// reconverge commits epoch and sends its reply: the stamp the worker arrived
// at — changed values in all, over every shard — then own, its shard's
// changes. It commits as it sends: a stamp the coordinator does not share
// breaks the session, so there is nothing to roll back to.
func (w *WorkerState) reconverge(epoch, changed int, own []ValueChange) error {
	gh, pd, vd := w.m.Adjacency().Hash(), shard.PartitionDigest(w.assign), ValuesDigest(w.m.B())
	w.epoch, w.chain = epoch, ChainNext(w.chain, gh, pd, vd)
	st := codec.Stamp{Epoch: epoch, GraphHash: gh, PartDigest: pd, ValuesDigest: vd, ChainDigest: w.chain, Changed: changed}
	return w.c.Send(net.RecReconverge, AppendReconverge(nil, Reconverge{Stamp: st, Changes: own}))
}

// Epoch returns the last committed epoch.
func (w *WorkerState) Epoch() int { return w.epoch }

// ChainDigest returns the chain digest of the last committed epoch.
func (w *WorkerState) ChainDigest() uint64 { return w.chain }
