package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
)

// Delta wire format (DESIGN.md §9) — the churn sibling of the message
// frame format of frame.go, and the body of a session's DeltaPush record
// behind its epoch number (DESIGN.md §10.2):
//
//	uvarint moveBudget
//	uvarint count
//	count ops, each:
//	    tag byte (bit0 = delete)
//	    uvarint u | uvarint v
//	    8-byte little-endian weight bits   (inserts only)
//
// The move budget rides in the encoding because it is part of the churn
// instruction: the coordinator dictates how many frontier nodes the
// rebalance may move, and every worker must run the identical rebalance to
// land on the pinned partition digest.
const deltaTagDel = 1 << 0

// AppendDelta appends the wire encoding of (moveBudget, d) to dst.
func AppendDelta(dst []byte, moveBudget int, d dist.GraphDelta) []byte {
	dst = binary.AppendUvarint(dst, uint64(moveBudget))
	dst = binary.AppendUvarint(dst, uint64(len(d.Ops)))
	for _, op := range d.Ops {
		if op.Del {
			dst = append(dst, deltaTagDel)
			dst = binary.AppendUvarint(dst, uint64(op.U))
			dst = binary.AppendUvarint(dst, uint64(op.V))
			continue
		}
		dst = append(dst, 0)
		dst = binary.AppendUvarint(dst, uint64(op.U))
		dst = binary.AppendUvarint(dst, uint64(op.V))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(op.W))
	}
	return dst
}

// DecodeDelta reads one delta encoding off d: the move budget and the delta.
// Like the rest of the frame codec it runs on bytes straight off a socket, so
// a truncation, an overlong uvarint, an unknown tag or a hostile count latches
// d's error (before any count-sized allocation) instead of panicking; what
// reads cleanly re-encodes to the bytes it came from.
func DecodeDelta(d *codec.Decoder) (moveBudget int, gd dist.GraphDelta) {
	moveBudget = d.Int()
	// Every op occupies at least 3 bytes (tag + two 1-byte uvarints).
	cnt := d.Count(3)
	gd.Ops = make([]dist.EdgeOp, 0, cnt)
	for i := 0; i < cnt; i++ {
		tag := d.Byte()
		if tag&^deltaTagDel != 0 {
			d.Fail(fmt.Errorf("delta op %d carries unknown tag bits %#x", i, tag))
		}
		op := dist.EdgeOp{Del: tag&deltaTagDel != 0, U: d.Int(), V: d.Int()}
		if !op.Del {
			op.W = math.Float64frombits(d.U64())
		}
		gd.Ops = append(gd.Ops, op)
	}
	return moveBudget, gd
}

// Frontier returns the change frontier of a delta: the distinct endpoints
// of its ops, ascending. These are the only nodes whose incident topology
// changed, hence the only candidates an incremental rebalance considers —
// the placement twin of internal/dynamic's repair frontier.
func Frontier(d dist.GraphDelta) []graph.NodeID {
	out := make([]graph.NodeID, 0, 2*len(d.Ops))
	for _, op := range d.Ops {
		out = append(out, op.U, op.V)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ChurnMetrics reports what absorbing one delta batch cost at the cluster
// level — the placement ledger of churn, as ShardMetrics is of steady-state
// traffic. A session fills one per sealed epoch (EpochReport.Churn).
type ChurnMetrics struct {
	// FrontierSize is the number of distinct delta endpoints — the only
	// nodes the incremental rebalance re-evaluated.
	FrontierSize int
	// MovedNodes counts nodes whose shard changed during the rebalance.
	MovedNodes int
	// MovedBytes prices the migration those moves imply: per moved node,
	// 8 bytes of node state plus 8 per incident arc of the mutated graph
	// (the adjacency payload a real system would ship with the node).
	MovedBytes int64
	// DeltaBytes is the wire size of the encoded delta batch — what the
	// coordinator broadcasts to every worker.
	DeltaBytes int64
	// EdgeCutBefore is the cut fraction of the *mutated* graph under the
	// stale pre-churn assignment; EdgeCutAfter is the cut after the
	// rebalance. The gap is what the moves bought.
	EdgeCutBefore float64
	EdgeCutAfter  float64
}

// RebalanceAssign runs part's incremental rebalance for the mutated graph
// g2 (pre-churn assignment assign, churn batch d, move budget moveBudget;
// ≤ 0 means "the whole frontier may move") and returns the new assignment
// as a fresh array — or assign itself when nothing moved. It is the copying
// form of Rebalance, for callers that want the whole array; a session party
// keeps its own and applies the moves in place.
func RebalanceAssign(part Partitioner, g2 Topology, p int, assign []int, d dist.GraphDelta, moveBudget int) []int {
	moves := part.Rebalance(g2, p, assign, Frontier(d), moveBudget, nil)
	if len(moves) == 0 {
		return assign
	}
	next := append([]int(nil), assign...)
	ApplyMoves(next, moves)
	return next
}

// RebalanceWithMetrics is RebalanceAssign on a rebuilt CSR plus the filled
// ChurnMetrics, cut scans included (DeltaBytes excluded — the transport that
// encodes the batch accounts it): the from-scratch reference a session's
// rolling ledger is held to.
func RebalanceWithMetrics(part Partitioner, g2 *graph.Graph, p int, assign []int, d dist.GraphDelta, moveBudget int) ([]int, ChurnMetrics) {
	next := RebalanceAssign(part, g2, p, assign, d, moveBudget)
	cm := ChurnMetrics{
		FrontierSize:  len(Frontier(d)),
		EdgeCutBefore: CutFraction(g2, assign),
		EdgeCutAfter:  CutFraction(g2, next),
	}
	for v := range next {
		if next[v] != assign[v] {
			cm.MovedNodes++
			cm.MovedBytes += 8 + 8*int64(len(g2.Adj(v)))
		}
	}
	return next, cm
}

// Place is the placement prologue shared by the sharded engine, the socket
// cluster's engine, session.Open and cmd/cluster: partition g into p shards
// and refuse an assignment that does not cover the graph or leaves [0, p).
func Place(part Partitioner, g *graph.Graph, p int) ([]int, error) {
	assign := part.Partition(g, p)
	if len(assign) != g.N() {
		return nil, fmt.Errorf("shard: partitioner %s returned %d assignments for %d nodes", part.Name(), len(assign), g.N())
	}
	for v, s := range assign {
		if s < 0 || s >= p {
			return nil, fmt.Errorf("shard: partitioner %s assigned node %d to shard %d (p=%d)", part.Name(), v, s, p)
		}
	}
	return assign, nil
}
