package dist_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/net"
	"distkcore/internal/net/faultnet"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// The equivalence tests of this package compare engines to SeqEngine. This
// one compares every engine — SeqEngine included — to a delivery oracle
// that shares no code with the runtime: a scripted protocol whose sends are
// a pure function of (seed, node, round), and a naive model of what the
// package comment promises about them.

// scriptSend is one Ctx call of the script: a Broadcast, or a Send to `to`.
type scriptSend struct {
	bcast bool
	to    graph.NodeID
	m     dist.Message
}

// actor is a protocol whose behaviour is a pure function of (node, round):
// what the node's hook sends, whether it halts, and the round it asks to sleep
// until (0: it does not ask). rows is the transcript its programs write: per
// node, the round and the inbox hash of every Round call.
type actor interface {
	act(v graph.NodeID, t int, peers []graph.NodeID) (sends []scriptSend, halt bool, sleep int)
	rows() [][]uint64
}

// script is the seeded protocol. act derives node v's round-t behaviour from
// a hash of (seed, v, t): one of silent, Broadcast, Broadcast+Send,
// Send+Broadcast, two Broadcasts, Sends only, Vec payloads on both kinds of
// send, or Broadcast-then-Halt — every way a round can mix the slot and the
// queue. Two rounds in three are calm: every node keeps to the first
// Broadcast of its draw (or stays silent), so the run alternates between
// deliveries that move nothing and deliveries that scatter. In round hush
// (none when 0) nobody says anything at all — the round a change-driven
// protocol has once its values have settled: the delivery prices nothing,
// every inbox of the next round is empty, and its hooks run all the same.
// A sleepy script says something in one hook in four only and asks to sleep,
// after three in four, for 1, 2 or 5 rounds — whatever else the hook did: the
// runtime's side of the sleep contract is mechanical, and a hook it skips
// simply never plays its draw.
type script struct {
	seed   uint64
	hush   int
	sleepy bool
	got    [][]uint64
}

func (sc *script) rows() [][]uint64 { return sc.got }

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// calm reports whether round t is one of the two in three that keep to the
// leading Broadcast.
func (sc *script) calm(t int) bool { return mix(sc.seed+uint64(t))%3 != 0 }

// mixedRound returns the first round after Init that is not calm.
func (sc *script) mixedRound() int {
	t := 1
	for sc.calm(t) {
		t++
	}
	return t
}

func (sc *script) act(v graph.NodeID, t int, peers []graph.NodeID) (sends []scriptSend, halt bool, sleep int) {
	if t > 0 && t == sc.hush {
		return nil, false, 0
	}
	h := mix(sc.seed ^ mix(uint64(v)<<20^uint64(t)))
	if sc.sleepy {
		sleep = []int{0, t + 1, t + 2, t + 5}[h>>24%4] // t+1 asks for nothing
	}
	msg := func(k uint64, vec int) dist.Message {
		x := mix(h + k)
		m := dist.Message{Kind: uint8(x % 4), I0: int(x>>8%7) - 3, F0: float64(x>>16%1000) / 8}
		for i := 0; i < vec; i++ {
			m.Vec = append(m.Vec, float64(mix(x+uint64(i))%100))
		}
		return m
	}
	bcast := func(k uint64, vec int) { sends = append(sends, scriptSend{bcast: true, m: msg(k, vec)}) }
	send := func(k uint64, vec int) {
		if len(peers) > 0 {
			sends = append(sends, scriptSend{to: peers[mix(h+k+99)%uint64(len(peers))], m: msg(k, vec)})
		}
	}
	draw := h % 10
	if sc.calm(t) && draw != 9 {
		draw = []uint64{0, 1, 1, 10}[h>>8%4]
	}
	if sc.sleepy && draw != 9 && h>>32%4 != 0 {
		draw = 0 // mostly quiet, or there would always be mail
	}
	switch draw {
	case 0: // silent
	case 1, 2: // the common case gets two tickets
		bcast(1, 0)
	case 3:
		bcast(1, 0)
		send(2, 0)
	case 4:
		send(1, 0)
		bcast(2, 0)
	case 5:
		bcast(1, 0)
		bcast(2, 0)
	case 6:
		send(1, 0)
		send(2, 0)
	case 7:
		bcast(1, 3)
		send(2, 2)
	case 8:
		send(1, 1)
		send(2, 0)
		bcast(3, 2)
	case 9:
		bcast(1, 0)
		halt = t > 2
	case 10: // calm rounds only
		bcast(1, 3)
	}
	return sends, halt, sleep
}

type scriptProg struct {
	sc actor
	id graph.NodeID
}

// Init also winds the node's transcript row back: a crash-recovered worker
// replays its nodes from Init in fresh programs (DESIGN.md §13), so a round
// the dead incarnation had already stepped is recorded once.
func (p *scriptProg) Init(c *dist.Ctx) {
	p.sc.rows()[p.id] = nil
	p.play(c)
}

func (p *scriptProg) Round(c *dist.Ctx, inbox []dist.Message) {
	row := &p.sc.rows()[p.id] // own row only: no lock needed
	*row = append(*row, uint64(c.Round()), hashInbox(inbox))
	p.play(c)
}

func (p *scriptProg) play(c *dist.Ctx) {
	sends, halt, sleep := p.sc.act(p.id, c.Round(), c.Peers())
	for _, s := range sends {
		if s.bcast {
			c.Broadcast(s.m)
		} else {
			c.Send(s.to, s.m)
		}
	}
	if sleep != 0 {
		c.SleepUntil(sleep)
	}
	if halt {
		c.Halt()
	}
}

func hashInbox(inbox []dist.Message) uint64 {
	h := uint64(len(inbox))
	for _, m := range inbox {
		h = mix(h ^ uint64(m.From))
		h = mix(h ^ uint64(m.Kind)<<32 ^ uint64(int64(m.I0)))
		h = mix(h ^ math.Float64bits(m.F0))
		h = mix(h ^ uint64(len(m.Vec)))
		for _, x := range m.Vec {
			h = mix(h ^ math.Float64bits(x))
		}
	}
	return h
}

// oracle is the naive delivery model: every round, collect what the live
// nodes send — all of them but those asleep: a node that asked to sleep until
// a round not yet reached and has no mail is passed over, any other call
// clears the request — sort by (sender, send order), price each message with
// WireSize, and hand it to its receiver unless the receiver has halted by
// the end of that round. It returns the per-node transcript, the Metrics an
// engine must report, and how many hooks it passed over.
func oracle(g *graph.Graph, sc actor, maxRounds int) (want [][]uint64, met dist.Metrics, skipped int) {
	type sent struct {
		from, to graph.NodeID
		m        dist.Message
	}
	n := g.N()
	want = make([][]uint64, n)
	halted := make([]bool, n)
	wake := make([]int, n)
	inbox := make([][]dist.Message, n)
	alive := n
	for t := 0; t == 0 || (t <= maxRounds && alive > 0); t++ {
		met.Rounds = t
		var all []sent
		var halts []graph.NodeID
		for v := n - 1; v >= 0; v-- { // descending, so the sort below is not a no-op
			if halted[v] {
				continue
			}
			if t > 0 {
				if len(inbox[v]) == 0 && t < wake[v] {
					skipped++
					continue
				}
				want[v] = append(want[v], uint64(t), hashInbox(inbox[v]))
			}
			sends, halt, sleep := sc.act(v, t, g.Peers(v))
			wake[v] = sleep
			for _, s := range sends {
				s.m.From = v
				if !s.bcast {
					all = append(all, sent{v, s.to, s.m})
					continue
				}
				for _, p := range g.Peers(v) {
					all = append(all, sent{v, p, s.m})
				}
			}
			if halt {
				halts = append(halts, v)
			}
		}
		for _, v := range halts {
			halted[v] = true
			alive--
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].from < all[j].from })
		inbox = make([][]dist.Message, n)
		for _, s := range all {
			met.Messages++
			met.Words += int64(1 + len(s.m.Vec))
			met.WireBytes += int64(dist.WireSize(quantize.Reals{}, s.m))
			if !halted[s.to] {
				inbox[s.to] = append(inbox[s.to], s.m)
			}
		}
	}
	met.Halted = alive == 0
	return want, met, skipped
}

// seamEngine is the Driver seam with nothing around it: two Drivers over the
// split v%2, each stepping its own half and handed the other half's round —
// tapped with Slot and Queued, written back with Inject — in memory, before
// both Deliver. No codec, no sockets: when this row holds and a net row does
// not, the fault is not in the seam. Every send is injected, so either
// Driver's Metrics are the run's; only Halted needs both halves.
type seamEngine struct{}

type unstepped struct{}

func (unstepped) Init(*dist.Ctx)                  { panic("hook of a node the engine does not own") }
func (unstepped) Round(*dist.Ctx, []dist.Message) { panic("hook of a node the engine does not own") }

func (seamEngine) WithWireLambda(quantize.Lambda) dist.Engine { return seamEngine{} }

func (seamEngine) Run(g *graph.Graph, factory dist.Factory, maxRounds int) dist.Metrics {
	var own [2][]graph.NodeID
	for v := 0; v < g.N(); v++ {
		own[v%2] = append(own[v%2], v)
	}
	var d [2]*dist.Driver
	for i := range d {
		d[i] = dist.NewDriver(g, nil, func(v graph.NodeID) dist.Program {
			if v%2 == i {
				return factory(v)
			}
			return unstepped{}
		})
	}
	inject := func(to *dist.Driver, from, rcpt graph.NodeID, m dist.Message) {
		if err := to.Inject(from, rcpt, m); err != nil {
			panic(err)
		}
	}
	rounds, alive := 0, g.N()
	for t := 0; t == 0 || (t <= maxRounds && alive > 0); t++ {
		rounds = t
		for i := range d {
			d[i].StepList(own[i], t)
		}
		alive = 0
		for i := range d {
			for _, v := range own[i] {
				if m, ok := d[i].Slot(v); ok {
					inject(d[1-i], v, -1, m)
				}
				d[i].Queued(v, func(to graph.NodeID, m dist.Message) { inject(d[1-i], v, to, m) })
				if !d[i].Halted(v) {
					alive++
				}
			}
		}
		d[0].Deliver(nil)
		d[1].Deliver(nil)
	}
	met, other := d[0].Finish(rounds), d[1].Finish(rounds)
	met.Halted, other.Halted = alive == 0, alive == 0 // a half only sees its own nodes halt
	if other != met {
		panic(fmt.Sprintf("the two halves priced the run differently: %+v and %+v", met, other))
	}
	return met
}

// recoverEngine runs a streamed net.Cluster of three workers (which recovers)
// whose links pass through a fault schedule (net.Cluster.Wrap, the way
// internal/net's own fault tests drive one): worker 1 dies at the write that
// carries its ack of round kill — delivered, nothing of the next round in —
// and its successor re-steps the run, re-fed its flows — broadcast and unicast
// entries, in chunks of a few — by its peers' resend.
type recoverEngine struct {
	kill, recoveries int
}

// streamAck is internal/net's stream-ack record (DESIGN.md §8.2).
const streamAck = 24

func (e *recoverEngine) WithWireLambda(quantize.Lambda) dist.Engine { return e }

func (e *recoverEngine) Run(g *graph.Graph, factory dist.Factory, maxRounds int) dist.Metrics {
	assign := shard.Hash{}.Partition(g, 3)
	body := func(s net.Seat) error {
		w := s.Worker(g, assign)
		w.ChunkBytes = 64
		w.Run(g, factory, maxRounds)
		return nil
	}
	death := faultnet.Fault{Shard: 1, Peer: faultnet.Control, Type: streamAck, Body: binary.AppendUvarint(nil, uint64(e.kill)), Action: faultnet.Before}
	cl := &net.Cluster{P: 3, IOTimeout: 10 * time.Second, Stream: true, Wrap: faultnet.New(death).Wrap}
	if err := cl.Start(body); err != nil {
		panic(err)
	}
	defer cl.Close()
	met, rep, err := cl.Run(net.Spec{MaxRounds: maxRounds,
		GraphHash: g.Fingerprint(), PartDigest: shard.PartitionDigest(assign)}, body)
	if err != nil {
		panic(err)
	}
	e.recoveries = rep.Recoveries
	return met
}

func TestEnginesMatchDeliveryOracle(t *testing.T) {
	multi := graph.NewBuilder(9)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {2, 3}, {3, 4}, {4, 2}, {4, 4}, {5, 6}, {6, 5}, {7, 0}, {7, 7}} {
		multi.AddUnitEdge(e[0], e[1]) // parallel edges, self-loops, node 8 isolated
	}
	graphs := map[string]*graph.Graph{
		"ba":       graph.BarabasiAlbert(70, 3, 11),
		"multi":    multi.Build(),
		"isolated": graph.ErdosRenyi(50, 0.02, 5),
	}
	streamed := func(p int, part shard.Partitioner) *net.Engine {
		e := net.NewEngine(p, part)
		e.Stream = true
		return e
	}
	// recov loses worker 1 once it has delivered the run's first mixed round.
	recov := &recoverEngine{}
	engines := []struct {
		name string
		eng  dist.Engine
	}{
		{"seq", dist.SeqEngine{}},
		{"seam", seamEngine{}},
		{"par:1", dist.ParEngine{W: 1}}, {"par:2", dist.ParEngine{W: 2}}, {"par:4", dist.ParEngine{W: 4}},
		{"shard", shard.NewEngine(3, shard.Hash{})},
		{"net:pipe", net.NewEngine(3, shard.Hash{})},
		{"net:pipe:stream", streamed(3, shard.Hash{})},
		{"net:pipe:stream/greedy", streamed(3, shard.Greedy{})},
		{"net:pipe:stream/p4", streamed(4, shard.Hash{})},
		{"net:pipe:stream/recover", recov},
	}
	// The script never keeps an inbox, so it must read the same under the
	// retention check's poisoning.
	dist.CheckInboxRetention = true
	defer func() { dist.CheckInboxRetention = false }()
	type row struct {
		seed   uint64
		hush   int
		sleepy bool
	}
	for gname, g := range graphs {
		// Rows four and five: a round of silence. The last two: hooks that ask to sleep.
		for _, r := range []row{{1, 0, false}, {2, 0, false}, {3, 0, false}, {2, 2, false}, {3, 4, false}, {4, 0, true}, {5, 3, true}} {
			seed := r.seed
			for _, budget := range []int{6, 300} { // cut off mid-run, and run until all have halted
				want, wantMet, skipped := oracle(g, &script{seed: seed, hush: r.hush, sleepy: r.sleepy}, budget)
				if (skipped > 0) != r.sleepy {
					t.Fatalf("%s seed %d budget %d: the model passed over %d hooks, sleepy %v", gname, seed, budget, skipped, r.sleepy)
				}
				for _, e := range engines {
					sc := &script{seed: seed, hush: r.hush, sleepy: r.sleepy, got: make([][]uint64, g.N())}
					id := fmt.Sprintf("%s seed %d hush %d sleepy %v budget %d on %s", gname, seed, r.hush, r.sleepy, budget, e.name)
					recov.kill = sc.mixedRound()
					met := e.eng.Run(g, func(v graph.NodeID) dist.Program { return &scriptProg{sc: sc, id: v} }, budget)
					if e.eng == dist.Engine(recov) && recov.recoveries != 1 {
						t.Fatalf("%s: %d recoveries, want the one armed at round %d", id, recov.recoveries, sc.mixedRound())
					}
					if wantMet.Halted != (budget == 300) {
						t.Fatalf("%s: the script no longer covers both ways a run ends", id)
					}
					if met != wantMet {
						t.Errorf("%s: metrics %+v, oracle %+v", id, met, wantMet)
					}
					for v := range want {
						if !reflect.DeepEqual(sc.got[v], want[v]) {
							t.Errorf("%s: node %d inbox transcript %x, oracle %x", id, v, sc.got[v], want[v])
							break
						}
					}
				}
			}
		}
	}
}
