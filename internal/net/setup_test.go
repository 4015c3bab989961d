package net

import (
	"bytes"
	"errors"
	"io"
	stdnet "net"
	"runtime"
	"testing"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// emptyFreeList lets go of the Driver memory earlier runs released: the free
// list keeps it through one collection, not two (dist.Driver.Release).
func emptyFreeList() {
	runtime.GC()
	runtime.GC()
}

// allocated returns the bytes fn allocates, garbage included.
func allocated(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// workerSetupBytes returns what each of the p workers of a run on g allocates
// for the run state shard.NewLocal makes — step list, fan-out rows, Driver,
// streams and arenas — with the given factory.
func workerSetupBytes(g *graph.Graph, part shard.Partitioner, p int, factory dist.Factory) []uint64 {
	assign := part.Partition(g, p)
	out := make([]uint64, p)
	for q := range out {
		var l *shard.Local
		out[q] = allocated(func() { l = shard.NewLocal(g, assign, p, q, quantize.Reals{}, factory) })
		runtime.KeepAlive(l)
	}
	return out
}

// factoryOf captures the Factory a protocol driver hands its engine.
type factoryOf struct{ got *dist.Factory }

func (e factoryOf) WithWireLambda(quantize.Lambda) dist.Engine { return e }
func (e factoryOf) Run(_ *graph.Graph, factory dist.Factory, _ int) dist.Metrics {
	*e.got = factory
	return dist.Metrics{}
}

// What a worker builds before round 0 follows its shard. On a ring of
// cliques cut along clique boundaries (cut ≈ 0: a shard hears two remote
// nodes) the bytes fall with 1/P — all but the four bytes a node of the ID
// index, the one whole-graph term left; on the benchmark's graph, where the
// cut is 0.56 and the hubs' shard hears all but a few nodes, the busiest
// worker still builds under three quarters of what a Driver over the whole
// graph costs with the same programs, and the four together under three
// fifths of the four whole-graph Drivers they used to build.
func TestWorkerSetupBytesScaleWithShard(t *testing.T) {
	// Every Driver here is built in new memory, and none is released.
	emptyFreeList()
	idle := func(graph.NodeID) dist.Program { return flood{} } // zero-size: the runtime's own bytes
	cave := graph.Caveman(800, 10)
	at := func(p int) uint64 {
		var worst uint64
		for _, b := range workerSetupBytes(cave, shard.Range{}, p, idle) {
			worst = max(worst, b)
		}
		return worst
	}
	if p2, p8 := at(2), at(8); 3*p8 > p2 {
		t.Errorf("caveman n = %d: a worker builds %d bytes at P = 8, %d at P = 2 — more than a third", cave.N(), p8, p2)
	} else {
		t.Logf("caveman n = %d: %d bytes a worker at P = 2, %d at P = 8", cave.N(), p2, p8)
	}

	ba := graph.BarabasiAlbert(2000, 4, 1)
	var elim dist.Factory
	core.RunDistributed(ba, core.Options{Rounds: core.TForEpsilon(ba.N(), 0.5)}, factoryOf{&elim})
	whole := allocated(func() { runtime.KeepAlive(dist.NewDriver(ba, nil, elim)) })
	var busiest, sum uint64
	for _, b := range workerSetupBytes(ba, shard.Greedy{}, 4, elim) {
		busiest, sum = max(busiest, b), sum+b
	}
	t.Logf("ba n = %d, greedy × 4: whole-graph Driver %d bytes, busiest worker %d, the four %d", ba.N(), whole, busiest, sum)
	if 4*busiest > 3*whole {
		t.Errorf("the busiest worker builds %d bytes, over 0.75 × the whole-graph Driver's %d", busiest, whole)
	}
	if 5*sum > 3*4*whole {
		t.Errorf("the four workers build %d bytes, over 0.6 × four whole-graph Drivers (%d each)", sum, whole)
	}
}

// A connection's buffers follow what crosses it: a pair that has carried only
// barrier-sized records holds under 16 KiB in its four buffers together, and
// a record far larger than anything before it still arrives byte-exact — on
// the synchronous in-memory pipe and on a unix socket.
func TestConnBuffersFollowTraffic(t *testing.T) {
	for _, transport := range []string{TransportPipe, TransportUnix} {
		coord, workers, cleanup, err := DialCluster(transport, 1)
		if err != nil {
			t.Fatal(err)
		}
		a, b := coord[0], workers[0]
		const typ, last = byte(42), byte(43)
		echoed := make(chan error)
		echo := func() { // b echoes every record back, up to and including one of type last
			for {
				t, body, err := b.ReadRecord()
				if err == nil {
					err = b.Send(t, body)
				}
				if err != nil || t == last {
					echoed <- err
					return
				}
			}
		}
		exchange := func(typ byte, body []byte) {
			t.Helper()
			if err := a.Send(typ, body[:len(body)/2], body[len(body)/2:]); err != nil {
				t.Fatalf("%s: send %d bytes: %v", transport, len(body), err)
			}
			got, gotBody, err := a.ReadRecord()
			if err != nil || got != typ || !bytes.Equal(gotBody, body) {
				t.Fatalf("%s: a %d-byte record came back as type %d, %d bytes, err %v", transport, len(body), got, len(gotBody), err)
			}
		}
		small := bytes.Repeat([]byte{0xa5}, 100)
		go echo()
		for i := 0; i < 50; i++ {
			exchange(typ, small)
		}
		exchange(last, small)
		if err := <-echoed; err != nil {
			t.Fatalf("%s: echo: %v", transport, err)
		}
		if held := cap(a.rb) + cap(a.wb) + cap(b.rb) + cap(b.wb); held >= 16<<10 {
			t.Errorf("%s: after 100-byte records the pair holds %d bytes of buffer", transport, held)
		}
		big := make([]byte, 200<<10)
		for i := range big {
			big[i] = byte(i * 7)
		}
		go echo()
		exchange(typ, big)
		exchange(typ, small) // and the stream is still in step behind it
		exchange(last, big[:70<<10])
		if err := <-echoed; err != nil {
			t.Fatalf("%s: echo: %v", transport, err)
		}
		a.Close()
		b.Close()
		cleanup()
	}
}

// A link that closes between records — every link at a run's teardown —
// returns the connection's own error, unwrapped and at no allocation: no
// error is formatted that no one reads on a clean run.
func TestLinkClosedBetweenRecordsCostsNothing(t *testing.T) {
	a, b := stdnet.Pipe()
	defer b.Close()
	c := NewConn(a)
	a.Close()
	var err error
	allocs := testing.AllocsPerRun(100, func() { _, _, err = c.ReadRecord() })
	if !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read on a closed pipe end: %v, want io.ErrClosedPipe", err)
	}
	if allocs != 0 {
		t.Errorf("a read on a closed link allocates %.0f times, want 0", allocs)
	}
}
