package dist_test

import (
	"reflect"
	"testing"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/shard"
)

// A schedule is a protocol spelled out byte by byte, the actor the sleep
// contract's hand-built cases and FuzzSleepSchedule share:
//
//	n-1, m, m × (u, v), budget-1, then one byte per (round, node), row-major
//
// for a multigraph on n ≤ 8 nodes with m ≤ 15 unit edges (endpoints mod n:
// self-loops and parallel edges welcome) run for budget ≤ 16 rounds. A script
// byte is an op in its low three bits and an argument in the rest; a hook the
// bytes do not reach stays quiet. Every message carries its byte and round,
// and a two-word Vec when the argument is odd.
const (
	opQuiet      = iota
	opBcast      // Broadcast
	opSend       // Send to peer number arg (mod the peer count; nothing without peers)
	opSleep      // SleepUntil(round + arg)
	opHalt       // Halt
	opBcastSleep // Broadcast, then SleepUntil(round + arg)
	opSendBcast  // Send, then Broadcast: the broadcast is queued, the round scatters
	opBcastHalt  // Broadcast, then Halt
)

func op(code, arg int) byte { return byte(code | arg<<3) }

type schedule struct {
	g      *graph.Graph
	budget int
	script []byte
	got    [][]uint64
}

func (sc *schedule) rows() [][]uint64 { return sc.got }

// parseSchedule decodes data; ok is false when it ends before the script starts.
func parseSchedule(data []byte) (sc *schedule, ok bool) {
	if len(data) < 2 {
		return nil, false
	}
	n, m := 1+int(data[0])%8, int(data[1])%16
	if len(data) < 3+2*m {
		return nil, false
	}
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddUnitEdge(int(data[2+2*i])%n, int(data[3+2*i])%n)
	}
	return &schedule{g: b.Build(), budget: 1 + int(data[2+2*m])%16, script: data[3+2*m:]}, true
}

// encodeSchedule is parseSchedule's inverse for a readable table: rows[t][v]
// is node v's byte in round t.
func encodeSchedule(n int, edges [][2]int, budget int, rows ...[]byte) []byte {
	data := []byte{byte(n - 1), byte(len(edges))}
	for _, e := range edges {
		data = append(data, byte(e[0]), byte(e[1]))
	}
	data = append(data, byte(budget-1))
	for _, r := range rows {
		if len(r) != n {
			panic("a schedule row holds one byte per node")
		}
		data = append(data, r...)
	}
	return data
}

func (sc *schedule) act(v graph.NodeID, t int, peers []graph.NodeID) (sends []scriptSend, halt bool, sleep int) {
	i := t*sc.g.N() + v
	if i >= len(sc.script) {
		return nil, false, 0
	}
	b := sc.script[i]
	code, arg := int(b&7), int(b>>3)
	m := dist.Message{Kind: uint8(arg % 4), I0: t, F0: float64(b)}
	if arg%2 == 1 {
		m.Vec = []float64{float64(v), float64(t)}
	}
	bcast := scriptSend{bcast: true, m: m}
	var send []scriptSend
	if len(peers) > 0 {
		send = []scriptSend{{to: peers[arg%len(peers)], m: m}}
	}
	switch code {
	case opBcast:
		return []scriptSend{bcast}, false, 0
	case opSend:
		return send, false, 0
	case opSleep:
		return nil, false, t + arg
	case opHalt:
		return nil, true, 0
	case opBcastSleep:
		return []scriptSend{bcast}, false, t + arg
	case opSendBcast:
		return append(send, bcast), false, 0
	case opBcastHalt:
		return []scriptSend{bcast}, true, 0
	}
	return nil, false, 0
}

// runSchedule holds SeqEngine, ParEngine{W: 3} and the two-Driver seam — and
// the shard engine, when asked — to the oracle model on data's schedule: every
// hook that ran, the inbox it was handed, and the run's Metrics. It returns the
// model's transcript.
func runSchedule(t testing.TB, data []byte, withShard bool) [][]uint64 {
	sc, ok := parseSchedule(data)
	if !ok {
		return nil
	}
	want, wantMet, _ := oracle(sc.g, sc, sc.budget)
	engines := map[string]dist.Engine{"seq": dist.SeqEngine{}, "par:3": dist.ParEngine{W: 3}, "seam": seamEngine{}}
	if withShard {
		engines["shard"] = shard.NewEngine(2, shard.Hash{})
	}
	for name, eng := range engines {
		sc.got = make([][]uint64, sc.g.N())
		met := eng.Run(sc.g, func(v graph.NodeID) dist.Program { return &scriptProg{sc: sc, id: v} }, sc.budget)
		if met != wantMet {
			t.Errorf("%s: metrics %+v, oracle %+v", name, met, wantMet)
		}
		for v := range want {
			if !reflect.DeepEqual(sc.got[v], want[v]) {
				t.Errorf("%s: node %d transcript (round, inbox hash)… %x, oracle %x", name, v, sc.got[v], want[v])
			}
		}
	}
	return want
}

// sleepCases are the hand-built schedules of the sleep contract, by what each
// shows; they seed the fuzzer too. hooks[v] lists the rounds node v's Round
// hook must run in.
var sleepCases = []struct {
	name  string
	data  []byte
	hooks [][]int
}{
	{
		// Path 0–1–2. Node 1 talks in rounds 2 and 9 and halts in round 10.
		// Node 0 asks in Init to sleep until 6: it is passed over in rounds 1
		// and 2, woken by mail in round 3 — which clears the request, so it
		// runs in round 4 as well — asks for round 7 and gets exactly that, asks
		// in 7 for 8 (the next round anyway: a no-op), halts in 8, and round
		// 10's mail does not bring it back. Node 2 asks for a round past the
		// budget every time: only mail (rounds 3, 10) wakes it, and the
		// invocation in round 10 that does not ask again puts it in round 11.
		name: "wake by mail, by the round asked for, never once halted",
		data: encodeSchedule(3, [][2]int{{0, 1}, {1, 2}}, 11,
			[]byte{op(opSleep, 6), opQuiet, op(opSleep, 31)}, // Init
			[]byte{opQuiet, opQuiet, opQuiet},                // 1
			[]byte{opQuiet, opBcast, opQuiet},                // 2
			[]byte{opQuiet, opQuiet, op(opSleep, 31)},        // 3: both woken
			[]byte{op(opSleep, 3), opQuiet, opQuiet},         // 4: node 0 → 7
			[]byte{opBcast, opQuiet, opBcast},                // 5: asleep, never played
			[]byte{opBcast, opQuiet, opBcast},                // 6
			[]byte{op(opSleep, 1), opQuiet, opBcast},         // 7: node 0 exactly here
			[]byte{opHalt, opQuiet, opBcast},                 // 8
			[]byte{opBcast, opBcast, opBcast},                // 9: only node 1 is up
			[]byte{opBcast, opHalt, opQuiet},                 // 10: node 2 woken, node 0 is not
			[]byte{opBcast, opBcast, opQuiet},                // 11
		),
		hooks: [][]int{{3, 4, 7, 8}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {3, 10, 11}},
	},
	{
		// A unicast wakes as a broadcast does, in a round that scatters; a
		// self-loop and a parallel edge are no mail. Node 3 is isolated and
		// sleeps through the run.
		name: "a queued send wakes its one receiver",
		data: encodeSchedule(4, [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 2}}, 6,
			[]byte{op(opSleep, 20), opQuiet, op(opSleep, 20), op(opSleep, 20)},
			[]byte{opQuiet, op(opSend, 1), opQuiet, opQuiet}, // 1: node 1 → its peer number 1, node 2
			[]byte{opQuiet, opQuiet, op(opSleep, 20), opQuiet},
			[]byte{opQuiet, op(opSendBcast, 0), opQuiet, opQuiet}, // 3: → node 0, then everyone
			[]byte{op(opBcastSleep, 9), opQuiet, op(opSleep, 9), opQuiet},
		),
		hooks: [][]int{{4}, {1, 2, 3, 4, 5, 6}, {2, 4}, nil},
	},
}

func TestSleepContract(t *testing.T) {
	for _, c := range sleepCases {
		want := runSchedule(t, c.data, true)
		for v, hooks := range c.hooks {
			var got []int
			for i := 0; i < len(want[v]); i += 2 {
				got = append(got, int(want[v][i]))
			}
			if !reflect.DeepEqual(got, hooks) {
				t.Errorf("%s: node %d ran in rounds %v, want %v", c.name, v, got, hooks)
			}
		}
	}
	// The first case's wake-up call carries the mail that caused it.
	sc, _ := parseSchedule(sleepCases[0].data)
	sc.got = make([][]uint64, 3)
	var woken []dist.Message
	dist.SeqEngine{}.Run(sc.g, func(v graph.NodeID) dist.Program {
		if v != 0 {
			return &scriptProg{sc: sc, id: v}
		}
		return wakeRecorder{&scriptProg{sc: sc, id: v}, &woken}
	}, sc.budget)
	if len(woken) != 1 || woken[0].From != 1 || woken[0].I0 != 2 {
		t.Errorf("node 0 was woken in round 3 with %+v, want node 1's round-2 broadcast", woken)
	}
}

// wakeRecorder keeps the inbox of its program's first Round call.
type wakeRecorder struct {
	*scriptProg
	first *[]dist.Message
}

func (w wakeRecorder) Round(c *dist.Ctx, inbox []dist.Message) {
	if *w.first == nil {
		*w.first = append([]dist.Message{}, inbox...)
	}
	w.scriptProg.Round(c, inbox)
}

// FuzzSleepSchedule lets the fuzzer write the schedule: any small multigraph,
// any interleaving of broadcasts, unicasts, sleep requests and halts. The
// engines must agree with the oracle model on every hook, inbox and metric.
func FuzzSleepSchedule(f *testing.F) {
	for _, c := range sleepCases {
		f.Add(c.data)
	}
	f.Add([]byte{7, 15, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0, 0, 4, 1, 5, 2, 6, 3, 7, 0, 0, 1, 1, 2, 3, 15,
		0x1b, 0x33, 0x0d, 0x2b, 0x01, 0x45, 0x16, 0x0f, 0x23, 0x01, 0x00, 0x13, 0x1e, 0x04, 0x2d, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		runSchedule(t, data, false)
	})
}
