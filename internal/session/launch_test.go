package session

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	net "distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/shard"
)

// What sharing net.Cluster with the engine newly makes true of a session:
// every transport the launcher dials is a session transport, its teardown is
// the session's, and the placement prologue refuses the same inputs with the
// same words everywhere.

// A session is transport-agnostic: over real unix sockets it seals the same
// epoch-0 run and the same epochs, bit for bit, as over pipes.
func TestSessionTransportsSealIdentically(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 11)
	deltas := recoveryDeltas(g, 3)
	type sealed struct {
		epochTrace
		met        dist.Metrics
		gh, pd, vd uint64
	}
	run := func(transport string) sealed {
		t.Helper()
		s, err := Open(g, Options{P: 3, Rounds: 8, Part: shard.Greedy{}, Transport: transport, IOTimeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("Open over %s: %v", transport, err)
		}
		defer s.Close()
		out := sealed{met: s.Metrics()}
		out.epochTrace = driveEpochs(t, s, g, deltas)
		out.gh, out.pd, out.vd = s.Digests()
		return out
	}
	pipe, unix := run(net.TransportPipe), run(net.TransportUnix)
	if !reflect.DeepEqual(pipe, unix) {
		t.Fatalf("unix session diverges from the pipe session:\n pipe %+v\n unix %+v", pipe, unix)
	}
	if len(pipe.chains) != len(deltas) || pipe.chains[0] == 0 {
		t.Fatalf("session sealed %d epochs, chain %#x", len(pipe.chains), pipe.chains)
	}
}

// settle gives the runtime a moment to reap what a teardown released, then
// holds the goroutine count to what it was before.
func settle(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%s leaked goroutines: %d before, %d after", what, before, got)
	}
}

// The launcher's teardown is the session's: a closed session, an Open that
// failed mid-run and a session that recovered a killed worker each leave
// nothing running. Run under -race in CI.
func TestSessionLeavesNoGoroutines(t *testing.T) {
	g := graph.BarabasiAlbert(120, 3, 4)
	base := Options{P: 2, Rounds: 6, Part: shard.Greedy{}, IOTimeout: 5 * time.Second}

	t.Run("open-close", func(t *testing.T) {
		before := runtime.NumGoroutine()
		for _, tr := range []string{net.TransportPipe, net.TransportUnix} {
			opt := base
			opt.Transport = tr
			s, err := Open(g, opt)
			if err != nil {
				t.Fatalf("Open over %s: %v", tr, err)
			}
			if _, err := s.Push(dist.RandomChurn(g, 20, 5), 0); err != nil {
				t.Fatalf("push over %s: %v", tr, err)
			}
			s.Close()
			s.Close() // idempotent
		}
		settle(t, before, "Open+Close")
	})

	t.Run("failed-open", func(t *testing.T) {
		before := runtime.NumGoroutine()
		for i := 0; i < 5; i++ {
			// Worker 1 dies in the epoch-0 run and nothing may respawn it: the
			// run fails, Open returns its diagnosis and owns the whole cleanup.
			opt := base
			opt.kill = killWorkerAt(1, obs.PhaseBarrierWait, 2)
			s, err := Open(g, opt)
			if err == nil {
				s.Close()
				t.Fatal("Open sealed an epoch-0 run whose worker died without recovery")
			}
			if !strings.Contains(err.Error(), "worker 1") {
				t.Fatalf("failed Open does not name the dead worker: %v", err)
			}
		}
		settle(t, before, "failed Open")
	})

	t.Run("recovered-epoch-kill", func(t *testing.T) {
		before := runtime.NumGoroutine()
		for i := 0; i < 5; i++ {
			opt := base
			opt.Recover = true
			opt.kill = killWorkerAt(i%2, sessionKillPhases[i%2], 1)
			s, err := Open(g, opt)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			driveEpochs(t, s, g, recoveryDeltas(g, 2))
			if s.Recoveries() < 1 {
				t.Fatalf("iteration %d never recovered", i)
			}
			s.Close()
		}
		settle(t, before, "recovered epoch kill")
	})
}

// offByOne places node 3 one past the last shard.
type offByOne struct{ shard.Hash }

func (offByOne) Name() string { return "off-by-one" }
func (offByOne) Partition(g *graph.Graph, p int) []int {
	a := shard.Hash{}.Partition(g, p)
	a[3] = p
	return a
}

// One placement prologue: the sharded engine, the socket cluster's engine,
// session.Open and cmd/cluster (which returns shard.Place's error as it is)
// refuse an out-of-range shard with the same message.
func TestBadPlacementRejectedAlike(t *testing.T) {
	g := graph.BarabasiAlbert(50, 3, 1)
	const want = "shard: partitioner off-by-one assigned node 3 to shard 2 (p=2)"
	panicOf := func(eng dist.Engine) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		core.RunDistributed(g, core.Options{Rounds: 4}, eng)
		return ""
	}
	_, placeErr := shard.Place(offByOne{}, g, 2)
	_, openErr := Open(g, Options{P: 2, Rounds: 4, Part: offByOne{}})
	for who, got := range map[string]string{
		"shard.Place (cmd/cluster)": fmt.Sprint(placeErr),
		"shard.Engine.Run":          panicOf(shard.NewEngine(2, offByOne{})),
		"net.Engine.Run":            panicOf(net.NewEngine(2, offByOne{})),
		"session.Open":              fmt.Sprint(openErr),
	} {
		if !strings.Contains(got, want) {
			t.Errorf("%s rejected the placement with %q, want it to carry %q", who, got, want)
		}
	}
}
