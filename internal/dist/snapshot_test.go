package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"distkcore/internal/graph"
)

// ckptFlood is a broadcast-only Checkpointable protocol: every round a node
// folds its inbox (order-sensitively) into one float, logs what it saw, and
// broadcasts the result, halting at round T — staggered by ID, so late
// rounds mix halted and live receivers.
type ckptFlood struct {
	id  graph.NodeID
	T   int
	val float64
	log *[][]string
}

func (p *ckptFlood) Init(c *Ctx) {
	p.val = float64(p.id)
	c.Broadcast(Message{F0: p.val})
}

func (p *ckptFlood) Round(c *Ctx, inbox []Message) {
	line := fmt.Sprintf("t=%d", c.Round())
	for _, m := range inbox {
		line += fmt.Sprintf(" %d:%g", m.From, m.F0)
		p.val = math.Mod(p.val*3+m.F0, 1021)
	}
	(*p.log)[p.id] = append((*p.log)[p.id], line)
	if c.Round() >= p.T-p.id%3 {
		c.Halt()
		return
	}
	c.Broadcast(Message{F0: p.val})
}

func (p *ckptFlood) AppendState(dst []byte) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.val)), nil
}

func (p *ckptFlood) RestoreState(_ *Ctx, _ bool, src []byte) (int, error) {
	if len(src) < 8 {
		return 0, fmt.Errorf("ckptFlood: state truncated")
	}
	p.val = math.Float64frombits(binary.LittleEndian.Uint64(src))
	return 8, nil
}

// TestSnapshotAtPullBarrier snapshots a driver right after a delivery that
// moved nothing — the inboxes exist only as the senders' slots — restores
// the bytes into a fresh driver, and demands that the remaining rounds of
// both be byte-identical. The same barrier reached through a transport hook
// (which forces the scatter) must serialize to the same bytes: a checkpoint
// does not record which path the round took.
func TestSnapshotAtPullBarrier(t *testing.T) {
	g := graph.BarabasiAlbert(90, 3, 6)
	const T, cut = 9, 7 // cut is past the first halts
	nodes := make([]graph.NodeID, g.N())
	for v := range nodes {
		nodes[v] = v
	}
	build := func() (*Driver, *[][]string) {
		log := make([][]string, g.N())
		return NewDriver(g, nil, func(v graph.NodeID) Program {
			return &ckptFlood{id: v, T: T, log: &log}
		}), &log
	}
	identity := func(_, _ graph.NodeID, m Message) Message { return m }
	advance := func(d *Driver, from, to int, route RouteFunc) int {
		t := from
		for ; t <= to && (t == 0 || d.Alive() > 0); t++ {
			d.StepRange(0, g.N(), t)
			d.Deliver(route)
		}
		return t - 1
	}

	ref, refLog := build()
	advance(ref, 0, cut, nil)
	if !ref.s.pull {
		t.Fatal("a broadcast-only round did not take the pull path")
	}
	snap, err := ref.AppendSnapshot(nil, nodes)
	if err != nil {
		t.Fatal(err)
	}
	scat, _ := build()
	advance(scat, 0, cut, identity)
	if scat.s.pull {
		t.Fatal("a delivery through a transport hook took the pull path")
	}
	if snap2, err := scat.AppendSnapshot(nil, nodes); err != nil || !bytes.Equal(snap, snap2) {
		t.Fatalf("snapshot bytes depend on the delivery path (err %v)", err)
	}

	rest, restLog := build()
	if err := rest.RestoreSnapshot(snap, nodes); err != nil {
		t.Fatal(err)
	}
	if rest.s.pull || rest.Alive() != ref.Alive() {
		t.Fatalf("restored driver: pull %v, alive %d (want scatter mode, %d alive)", rest.s.pull, rest.Alive(), ref.Alive())
	}
	mark := make([]int, g.N())
	for v := range mark {
		mark[v] = len((*refLog)[v])
	}
	m0 := ref.Finish(cut)
	refRounds := advance(ref, cut+1, T+2, nil)
	restRounds := advance(rest, cut+1, T+2, nil)
	if refRounds != restRounds || refRounds <= cut {
		t.Fatalf("rounds after the barrier: reference %d, restored %d", refRounds, restRounds)
	}
	refMet, restMet := ref.Finish(refRounds), rest.Finish(restRounds)
	if refMet.Messages-m0.Messages != restMet.Messages || refMet.WireBytes-m0.WireBytes != restMet.WireBytes || !restMet.Halted {
		t.Fatalf("metrics after the barrier: reference %+v minus %+v, restored %+v", refMet, m0, restMet)
	}
	for v := range mark {
		if !slices.Equal((*refLog)[v][mark[v]:], (*restLog)[v]) {
			t.Fatalf("node %d after the barrier: reference %v, restored %v", v, (*refLog)[v][mark[v]:], (*restLog)[v])
		}
	}
}
