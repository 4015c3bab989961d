package main

import (
	"fmt"
	"math"

	"distkcore/internal/cliutil"
	"distkcore/internal/core"
	"distkcore/internal/densest"
	"distkcore/internal/dist"
	"distkcore/internal/exact"
	"distkcore/internal/graph"
	dnet "distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/session"
	"distkcore/internal/shard"
)

const (
	eps       = 0.5 // T = ⌈log_{1+ε} n⌉, the 2(1+ε) guarantee of Theorem I.1
	gamma     = 3   // densest.Config.Gamma
	clusterP  = 4   // workers of every cluster surface (oversubscribed on 2 cores: time to solution only)
	probeSize = 32  // delta size the layer probes use on workloads that push none
)

// workload is one set of inputs the benchmark runs. README.md records why
// each exists; the why string is what BENCHMARK.json carries.
type workload struct {
	name string
	why  string
	n    int // BarabasiAlbert(n, 4, seed) node count
	// large is the node count of the traced run's large-n probe (the large.*
	// rows), the sizes ISSUE 11 gave the workloads themselves.
	large int
	// ops is the fixed count of timed ops one pass makes after its warm-up
	// op: 0.3–0.7 s of them, so a run of 20 s repeats every op 25–50 times.
	ops int
	// Session workloads push pre-generated deltas of batch edge ops, one per
	// op; the values digest is checked on every checkEvery-th epoch, and
	// ops+1 is a multiple of it, so the last epoch of a pass is checked.
	batch, checkEvery int
	open              func(in *inputs, g *graph.Graph, tr *obs.Tracer) (instance, error)
}

// deltas is how many churn batches a pass of w pushes: the warm-up's and one
// per timed op on a session workload, none elsewhere.
func (w workload) deltas() int {
	if w.batch == 0 {
		return 0
	}
	return w.ops + 1
}

var workloads = []workload{
	{
		name: "coreness-seq",
		why:  "Reference surface: dist deliver + core step do all the work on one thread, codec/shard/net/session none. The scatter fits in cache at this n; large.* layer rows keep the regime where it does not.",
		n:    1_000, large: 32_000, ops: 40,
		open: func(in *inputs, g *graph.Graph, tr *obs.Tracer) (instance, error) {
			return &corenessRun{in: in, g: g, eng: cliutil.Traced(dist.SeqEngine{}, tr)}, nil
		},
	},
	{
		name: "coreness-par",
		why:  "The same protocol through the worker pool and parallel fill at twice the n (below it the barriers outweigh the work): a deliver rewrite that helps seq but breaks the pool shows as the two diverging.",
		n:    2_000, large: 32_000, ops: 20,
		open: func(in *inputs, g *graph.Graph, tr *obs.Tracer) (instance, error) {
			return &corenessRun{in: in, g: g, eng: cliutil.Traced(dist.ParEngine{}, tr)}, nil
		},
	},
	{
		name: "densest-seq",
		why:  "Uses dist differently: unicast Send, Vec payloads, multi-kind messages, ~55 sparse rounds; a broadcast-only gain that costs unicast shows here.",
		n:    500, large: 16_000, ops: 40,
		open: func(in *inputs, g *graph.Graph, tr *obs.Tracer) (instance, error) {
			return &densestRun{in: in, g: g, eng: cliutil.Traced(dist.SeqEngine{}, tr)}, nil
		},
	},
	{
		name: "cluster-stream",
		why:  "4 streamed workers over unix sockets, dial and partition inside every op: send, verify and barrier wait are ~3/4 of worker phase time at this n, step + deliver the rest; the codec itself is ~4 ms.",
		n:    2_000, large: 16_000, ops: 10,
		open: func(in *inputs, g *graph.Graph, tr *obs.Tracer) (instance, error) {
			eng := netEngine(dnet.TransportUnix, true)
			return &corenessRun{in: in, g: g, eng: cliutil.Traced(eng, tr), recoveries: eng.Recoveries}, nil
		},
	},
	{
		name: "session-drip",
		why:  "Steady 32-op delta epochs on a hot 4-worker session: session + dynamic + graph rebuild/fingerprint do the work, dist deliver none after epoch 0.",
		n:    2_000, large: 16_000, ops: 59, batch: 32, checkEvery: 10,
		open: openSession,
	},
	{
		name: "session-burst",
		why:  "Same session, 128-op deltas: the opposite regime, where a design that wins at 32 ops can lose (128 sequential repairs on each of P oracles).",
		n:    2_000, large: 16_000, ops: 19, batch: 128, checkEvery: 5,
		open: openSession,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// netEngine is the socket cluster every net surface here uses: clusterP
// workers placed by Greedy, relayed or streamed, over the given transport.
func netEngine(transport string, stream bool) *dnet.Engine {
	eng := dnet.NewEngine(clusterP, shard.Greedy{})
	eng.Transport, eng.Stream = transport, stream
	return eng
}

// inputs is everything the generator derives from (workload, seed) before
// set-up starts. The program under test only ever receives edges and deltas;
// the rest is what the harness checks outputs against.
type inputs struct {
	n     int
	edges []graph.Edge
	T     int
	// ref pins a coreness run: β digest, messages and rounds of a SeqEngine
	// run the generator made and verified against exact k-cores.
	ref reference
	// g is the generator's own graph, kept for references computed on
	// first use (densestRef).
	g          *graph.Graph
	densestRef *densestReference
	// deltas chain from the generated graph; epochDigest[i] is the values
	// digest after deltas[0..i], present for the checked epochs only.
	deltas      []dist.GraphDelta
	epochDigest map[int]uint64
}

type reference struct {
	digest   uint64
	messages int64
	rounds   int
}

// densestReference pins a densest run: the subset collection of a SeqEngine
// run and the best density centralized densest.Weak finds.
type densestReference struct {
	digest  uint64
	density float64
}

// generate builds the inputs of w from seed, with a chain of `deltas` churn
// batches.
func generate(w workload, seed int64, deltas int) (*inputs, error) {
	g := graph.BarabasiAlbert(w.n, 4, seed)
	in := &inputs{n: w.n, edges: g.Edges(), T: core.TForEpsilon(w.n, eps), g: g}

	res, met := core.RunDistributed(g, core.Options{Rounds: in.T}, dist.SeqEngine{})
	if err := checkSandwich(g, res.B); err != nil {
		return nil, err
	}
	in.ref = reference{digest: session.ValuesDigest(res.B), messages: met.Messages, rounds: met.Rounds}

	batch, every := w.batch, w.checkEvery
	if batch == 0 {
		batch, every = probeSize, deltas+1 // probes check push errors only
	}
	in.epochDigest = map[int]uint64{}
	cur := g
	for i := 0; i < deltas; i++ {
		d := dist.RandomChurn(cur, batch, seed+int64(i)+1)
		next, err := d.Apply(cur)
		if err != nil {
			return nil, fmt.Errorf("generate: delta %d: %w", i, err)
		}
		cur = next
		in.deltas = append(in.deltas, d)
		if (i+1)%every == 0 {
			in.epochDigest[i] = session.ValuesDigest(core.Run(cur, core.Options{Rounds: in.T}).B)
		}
	}
	return in, nil
}

// checkSandwich asserts Theorem I.1 on b against exact k-cores:
// c(v) ≤ β(v) ≤ 2(1+ε)·c(v).
func checkSandwich(g *graph.Graph, b []float64) error {
	const slack = 1e-9
	c := exact.CoresWeighted(g)
	for v := range c {
		if b[v] < c[v]*(1-slack) || b[v] > 2*(1+eps)*c[v]*(1+slack) {
			return fmt.Errorf("Theorem I.1 sandwich violated at node %d: c=%g β=%g", v, c[v], b[v])
		}
	}
	return nil
}

// buildGraph is the program's CSR build from the edge list: the first step
// of every set-up, and the graph.build_ms probe.
func buildGraph(n int, edges []graph.Edge) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V, e.W)
	}
	return b.Build()
}

// instance is one set-up of a workload. Op i runs inside the timed span and
// check(i) verifies its output outside it; op 0 is the warm-up and ops run
// in order. close releases what the set-up holds (sessions, goroutines).
type instance interface {
	op(i int) error
	check(i int) error
	close()
}

// corenessRun is one core.RunDistributed per op on a fixed engine.
type corenessRun struct {
	in         *inputs
	g          *graph.Graph
	eng        dist.Engine
	recoveries func() int // nil off the net engine
	b          []float64
	met        dist.Metrics
}

func (r *corenessRun) op(int) error {
	res, met := core.RunDistributed(r.g, core.Options{Rounds: r.in.T}, r.eng)
	r.b, r.met = res.B, met
	return nil
}

func (r *corenessRun) check(int) error {
	if r.recoveries != nil && r.recoveries() != 0 {
		return fmt.Errorf("%d worker recoveries in a fault-free run", r.recoveries())
	}
	return r.in.ref.verify(r.b, r.met)
}

func (*corenessRun) close() {}

// verify holds a run's output to the reference: β bit for bit, and the two
// metrics every engine must reproduce.
func (ref reference) verify(b []float64, met dist.Metrics) error {
	if d := session.ValuesDigest(b); d != ref.digest {
		return fmt.Errorf("β digest %016x, reference %016x", d, ref.digest)
	}
	if met.Messages != ref.messages || met.Rounds != ref.rounds {
		return fmt.Errorf("messages/rounds %d/%d, reference %d/%d", met.Messages, met.Rounds, ref.messages, ref.rounds)
	}
	return nil
}

// densestRun is one densest.RunWeakDistributed per op.
type densestRun struct {
	in  *inputs
	g   *graph.Graph
	eng dist.Engine
	res *densest.Result
}

func (r *densestRun) op(int) error {
	r.res, _ = densest.RunWeakDistributed(r.g, densest.Config{Gamma: gamma}, r.eng)
	return nil
}

func (r *densestRun) check(int) error {
	ref := r.in.densest()
	if d := subsetsDigest(r.res); d != ref.digest {
		return fmt.Errorf("subset collection digest %016x, reference %016x", d, ref.digest)
	}
	if d := bestDensity(r.res); d != ref.density {
		return fmt.Errorf("best density %g, centralized densest.Weak gives %g", d, ref.density)
	}
	return nil
}

// densest computes the densest reference on first use (only runs that
// execute a densest op pay for it), outside any timed span.
func (in *inputs) densest() densestReference {
	if in.densestRef == nil {
		res, _ := densest.RunWeakDistributed(in.g, densest.Config{Gamma: gamma}, dist.SeqEngine{})
		in.densestRef = &densestReference{
			digest:  subsetsDigest(res),
			density: bestDensity(densest.Weak(in.g, densest.Config{Gamma: gamma})),
		}
	}
	return *in.densestRef
}

func (*densestRun) close() {}

// subsetsDigest folds the returned collection (leaders, members, densities,
// in the result's own order) into FNV-1a.
func subsetsDigest(r *densest.Result) uint64 {
	const prime = 1099511628211
	h := uint64(1469598103934665603)
	mix := func(x uint64) { h = (h ^ x) * prime }
	mix(uint64(len(r.Subsets)))
	for _, s := range r.Subsets {
		mix(uint64(s.Leader))
		mix(math.Float64bits(s.Density))
		mix(uint64(len(s.Members)))
		for _, v := range s.Members {
			mix(uint64(v))
		}
	}
	return h
}

func bestDensity(r *densest.Result) float64 {
	if b := r.Best(); b != nil {
		return b.Density
	}
	return 0
}

// sessionRun pushes in.deltas[i] as op i on one hot session.
type sessionRun struct {
	in  *inputs
	s   *session.Session
	rep *session.EpochReport
}

func openSession(in *inputs, g *graph.Graph, tr *obs.Tracer) (instance, error) {
	s, err := session.Open(g, session.Options{P: clusterP, Rounds: in.T, Part: shard.Greedy{}, Trace: tr})
	if err != nil {
		return nil, err
	}
	return &sessionRun{in: in, s: s}, nil
}

func (r *sessionRun) op(i int) error {
	rep, err := r.s.Push(r.in.deltas[i], 0)
	if err != nil {
		return err
	}
	r.rep = rep
	return r.s.Err()
}

func (r *sessionRun) check(i int) error {
	if want, ok := r.in.epochDigest[i]; ok && r.rep.ValuesDigest != want {
		return fmt.Errorf("epoch %d values digest %016x, fresh core.Run gives %016x", r.rep.Epoch, r.rep.ValuesDigest, want)
	}
	return nil
}

func (r *sessionRun) close() { r.s.Close() }
