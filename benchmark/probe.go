package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/core"
	"distkcore/internal/densest"
	"distkcore/internal/dist"
	"distkcore/internal/dynamic"
	"distkcore/internal/graph"
	dnet "distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
	"distkcore/internal/session"
	"distkcore/internal/shard"
)

// probeEpochs is how many deltas a traced run generates: enough for the
// session probe's epoch distribution and for the traced/untraced op pairs
// of a session workload. A fixed count, so the exact counters repeat.
const probeEpochs = 20

// probes is the state of one traced run: every layer is timed from outside
// through its public functions, on the workload's own graph.
type probes struct {
	w     workload
	in    *inputs
	g     *graph.Graph
	rec   *recorder
	v     values
	slice time.Duration // budget of one timing micro-kernel
	log   func(format string, a ...any)
	err   error // first correctness failure seen by a probe

	assign  []int
	crossTo []graph.NodeID // round-1 cross-shard sends, tapped by the driver probe
	crossM  []dist.Message
	// ladder terms that are not declared metrics of their own
	stepMs, deliverMs, dialPipeMs float64
}

// sink keeps the digest probes' results alive: both functions inline, and a
// discarded result leaves the compiler an empty loop to time.
var sink uint64

func (p *probes) fail(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// timeMs runs f at least three times and until the probe's slice is spent,
// all under one harness span, and returns the median duration of a call in
// ms.
func (p *probes) timeMs(name string, f func()) float64 {
	var calls []float64
	id := p.rec.begin(name, -1)
	for start := time.Now(); len(calls) < 3 || time.Since(start) < p.slice; {
		t0 := time.Now()
		f()
		calls = append(calls, ms(time.Since(t0)))
	}
	p.rec.end(id)
	return median(calls)
}

func (p *probes) graphLayer() {
	d := p.in.deltas[0]
	p.v["graph.build_ms"] = p.timeMs("graph.Build", func() { buildGraph(p.in.n, p.in.edges) })
	p.v["graph.delta_apply_ms"] = p.timeMs("dist.GraphDelta.Apply", func() {
		_, err := d.Apply(p.g)
		p.fail(err)
	})
	p.v["graph.fingerprint_ms"] = p.timeMs("graph.Fingerprint", func() { sink ^= p.g.Fingerprint() })
}

// driverEngine is a dist.Engine written in the harness: SeqEngine's round
// loop over the public dist.Driver, with a harness span around every
// StepRange and Deliver call. It is how core's step and dist's deliver are
// timed apart without editing either.
type driverEngine struct {
	p      *probes
	lam    quantize.Lambda
	parent int
	// tap additionally records core.allocs_per_node and copies round 1's
	// cross-shard sends for the codec probe.
	tap bool
}

func (e driverEngine) WithWireLambda(lam quantize.Lambda) dist.Engine {
	e.lam = lam
	return e
}

func (e driverEngine) Run(g *graph.Graph, factory dist.Factory, maxRounds int) dist.Metrics {
	p, n := e.p, g.N()
	m0 := mallocs()
	d := dist.NewDriver(g, e.lam, factory)
	step := func(t int) {
		id := p.rec.begin("core.step", e.parent)
		d.StepRange(0, n, t)
		p.rec.end(id)
	}
	deliver := func() {
		id := p.rec.begin("dist.deliver", e.parent)
		d.Deliver(nil)
		p.rec.end(id)
	}
	step(0)
	if e.tap {
		p.v["core.allocs_per_node"] = float64(mallocs()-m0) / float64(n)
	}
	deliver()
	rounds := 0
	for t := 1; t <= maxRounds && d.Alive() > 0; t++ {
		rounds = t
		step(t)
		if t == 1 && e.tap {
			p.tapCrossSends(d, n)
		}
		deliver()
	}
	return d.Finish(rounds)
}

// tapCrossSends copies round 1's cross-shard sends (the frame codec's real
// input) out of the driver, between the step and deliver spans.
func (p *probes) tapCrossSends(d *dist.Driver, n int) {
	for v := 0; v < n; v++ {
		d.Sends(v, func(to graph.NodeID, m dist.Message) {
			if p.assign[v] != p.assign[to] {
				p.crossTo = append(p.crossTo, to)
				p.crossM = append(p.crossM, m)
			}
		})
	}
}

// driverRun runs the coreness protocol once on the driver engine, holds its
// output to ref, and returns the metrics with the step and deliver totals.
func (p *probes) driverRun(g *graph.Graph, T int, ref reference, tap bool) (met dist.Metrics, step, deliver time.Duration) {
	runtime.GC() // as before every timed op
	op := p.rec.begin("core.RunDistributed(driver)", -1)
	res, met := core.RunDistributed(g, core.Options{Rounds: T}, driverEngine{p: p, parent: op, tap: tap})
	p.rec.end(op)
	p.fail(ref.verify(res.B, met))
	step = p.rec.childTotal(op, "core.step")
	deliver = p.rec.childTotal(op, "dist.deliver")
	p.log("driver probe n=%d: step %.1f ms + deliver %.1f ms = %.1f ms; harness self time %.1f ms\n",
		g.N(), ms(step), ms(deliver), ms(step+deliver), ms(p.rec.selfTime(op)))
	return met, step, deliver
}

// coreAndDist splits one coreness run on the workload's graph into step and
// deliver self times.
func (p *probes) coreAndDist() {
	T := p.in.T
	p.v["core.central_run_ms"] = p.timeMs("core.Run", func() { core.Run(p.g, core.Options{Rounds: T}) })

	met, step, deliver := p.driverRun(p.g, T, p.in.ref, true)
	p.stepMs, p.deliverMs = ms(step), ms(deliver)
	n := float64(p.g.N())
	p.v["core.step_ns_per_node"] = float64(step.Nanoseconds()) / (n * float64(met.Rounds+1))
	p.v["dist.deliver_ns_per_msg"] = float64(deliver.Nanoseconds()) / float64(met.Messages)
	p.v["dist.deliver_share"] = 100 * float64(deliver) / float64(step+deliver)
	p.v["dist.msgs_per_op"] = float64(met.Messages)
	p.v["dist.rounds_per_op"] = float64(met.Rounds)
	p.v["dist.wire_mb_per_op"] = float64(met.WireBytes) / 1e6
	p.v["dist.words_per_msg"] = float64(met.Words) / float64(met.Messages)
	p.v["dist.msgs_per_s"] = float64(met.Messages) / (step + deliver).Seconds()
}

// largeLayer is the large-n probe: SeqEngine's coreness run on
// BarabasiAlbert(w.large), whole and split into step and deliver. The
// workloads are small enough for the deliver scatter to stay in cache (that
// is what makes their times repeat); ROADMAP item 2 claims against the
// regime where it does not, so that regime keeps rows of its own, held to no
// bound. The allocation and message counts are exact; the times are context.
func (p *probes) largeLayer(seed int64) {
	g := graph.BarabasiAlbert(p.w.large, 4, seed)
	T := core.TForEpsilon(g.N(), eps)
	a0 := totalAlloc()
	res, met := core.RunDistributed(g, core.Options{Rounds: T}, dist.SeqEngine{})
	p.v["large.alloc_mb_per_op"] = float64(totalAlloc()-a0) / 1e6
	p.v["large.seq_op_ms"] = p.timeMs("large.seq", func() {
		runtime.GC()
		core.RunDistributed(g, core.Options{Rounds: T}, dist.SeqEngine{})
	})
	ref := reference{digest: session.ValuesDigest(res.B), messages: met.Messages, rounds: met.Rounds}
	_, step, deliver := p.driverRun(g, T, ref, false)
	p.v["large.nodes"] = float64(g.N())
	p.v["large.msgs_per_op"] = float64(met.Messages)
	p.v["large.step_ns_per_node"] = float64(step.Nanoseconds()) / (float64(g.N()) * float64(met.Rounds+1))
	p.v["large.deliver_ns_per_msg"] = float64(deliver.Nanoseconds()) / float64(met.Messages)
	p.v["large.deliver_share"] = 100 * float64(deliver) / float64(step+deliver)
}

// shardAndCodec times the frame body codec on the tapped round-1 sends and
// the record framing on the bytes that produced.
func (p *probes) shardAndCodec() {
	lam := quantize.Reals{}
	msgs := float64(len(p.crossM))
	var frame []byte
	encode := p.timeMs("shard.AppendMessage", func() {
		frame = frame[:0]
		for i, m := range p.crossM {
			frame = shard.AppendMessage(frame, lam, p.crossTo[i], m)
		}
	})
	arena := new(shard.VecArena)
	decode := p.timeMs("shard.DecodeMessage", func() {
		arena.Reset()
		for rest := frame; len(rest) > 0; {
			_, _, k, err := shard.DecodeMessage(rest, lam, arena)
			if err != nil {
				p.fail(err)
				return
			}
			rest = rest[k:]
		}
	})
	p.v["shard.append_ns_per_msg"] = encode * 1e6 / msgs
	p.v["shard.decode_ns_per_msg"] = decode * 1e6 / msgs
	p.v["shard.frame_bytes_per_msg"] = float64(len(frame)) / msgs

	const recSize = 64 << 10
	payload := frame
	for len(payload) < recSize {
		payload = append(payload, frame...)
	}
	payload = payload[:recSize]
	const recs = 64
	var wire, buf []byte
	record := p.timeMs("codec.AppendRecord+ReadRecord", func() {
		wire = wire[:0]
		for i := 0; i < recs; i++ {
			wire = codec.AppendRecord(wire, payload)
		}
		r := bufio.NewReader(bytes.NewReader(wire))
		for i := 0; i < recs; i++ {
			b, err := codec.ReadRecord(r, buf, 0)
			if err != nil {
				p.fail(err)
				return
			}
			buf = b[:0]
		}
	})
	p.v["codec.record_ns_per_kib"] = record * 1e6 / (recs * recSize / 1024)
}

func (p *probes) partition() {
	part := shard.Greedy{}
	p.v["shard.partition_ms"] = p.timeMs("shard.Greedy.Partition", func() { p.assign = part.Partition(p.g, clusterP) })
	p.v["shard.cut_fraction"] = shard.CutFraction(p.g, p.assign)
	d := p.in.deltas[0]
	g2, err := d.Apply(p.g)
	if err != nil {
		p.fail(err)
		return
	}
	p.v["shard.rebalance_us"] = 1e3 * p.timeMs("shard.RebalanceAssign", func() {
		shard.RebalanceAssign(part, g2, clusterP, p.assign, d, 0)
	})
}

// netLayer times the transport floor: record round trips and one-way bulk
// on one DialCluster pair, and the dial itself.
func (p *probes) netLayer() {
	for _, tr := range []string{dnet.TransportPipe, dnet.TransportUnix} {
		rtt, bulk, err := p.pingAndBulk(tr)
		p.fail(err)
		p.v["net.rtt_us_"+tr] = rtt
		p.v["net.bulk_mb_per_s_"+tr] = bulk
	}
	p.v["net.dial_ms"] = p.timeMs("net.DialCluster", func() { p.fail(dialAndClose(dnet.TransportUnix, clusterP)) })
	p.dialPipeMs = p.timeMs("net.DialCluster(pipe)", func() { p.fail(dialAndClose(dnet.TransportPipe, clusterP)) })
}

func dialAndClose(transport string, n int) error {
	coord, workers, cleanup, err := dnet.DialCluster(transport, n)
	if err != nil {
		return err
	}
	for i := range coord {
		coord[i].Close()
		workers[i].Close()
	}
	cleanup()
	return nil
}

// pingAndBulk measures, on one connection pair of the given transport, the
// median 16-byte record round trip (µs) — the barrier floor — and the
// one-way throughput of 64 KiB records (MB/s). The peer goroutine echoes
// small records and swallows large ones until its connection closes.
func (p *probes) pingAndBulk(transport string) (rttUs, mbPerS float64, err error) {
	coord, workers, cleanup, err := dnet.DialCluster(transport, 1)
	if err != nil {
		return 0, 0, err
	}
	defer cleanup()
	a, b := coord[0], workers[0]
	const typ, ack = byte(200), byte(201)
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		for {
			t, body, err := b.ReadRecord()
			if err != nil {
				return
			}
			if t == ack || len(body) <= 16 {
				if b.WriteRecord(t, body) != nil || b.Flush() != nil {
					return
				}
			}
		}
	}()
	defer func() {
		a.Close()
		b.Close()
		<-peerDone
	}()

	roundTrip := func(t byte, body []byte) error {
		if err := a.WriteRecord(t, body); err != nil {
			return err
		}
		if err := a.Flush(); err != nil {
			return err
		}
		_, _, err := a.ReadRecord()
		return err
	}
	ping := make([]byte, 16)
	var rtts []float64
	id := p.rec.begin("net.Conn ping-pong "+transport, -1)
	for start := time.Now(); len(rtts) < 100 || time.Since(start) < p.slice; {
		t0 := time.Now()
		if err := roundTrip(typ, ping); err != nil {
			return 0, 0, err
		}
		rtts = append(rtts, 1e3*ms(time.Since(t0)))
	}
	p.rec.end(id)

	big := make([]byte, 64<<10)
	sent := 0
	id = p.rec.begin("net.Conn bulk "+transport, -1)
	start := time.Now()
	for sent < 16 || time.Since(start) < p.slice {
		if err := a.WriteRecord(typ, big); err != nil {
			return 0, 0, err
		}
		if err := a.Flush(); err != nil {
			return 0, 0, err
		}
		sent++
	}
	// the ack's round trip proves every bulk record before it was read
	if err := roundTrip(ack, nil); err != nil {
		return 0, 0, err
	}
	took := p.rec.end(id)
	return median(rtts), float64(sent*len(big)) / 1e6 / took.Seconds(), nil
}

// phaseMs returns the wall time tr recorded per phase since the snapshot
// before, in ms (summed over workers, as obs.PhaseTotals does).
func phaseMs(before, after []obs.PhaseTotal) map[string]float64 {
	out := map[string]float64{}
	for _, a := range after {
		out[a.Phase] = float64(a.Micros) / 1e3
	}
	for _, b := range before {
		out[b.Phase] -= float64(b.Micros) / 1e3
	}
	return out
}

// netTraced runs the streamed unix cluster once with an obs tracer on its
// public SetTracer seam: the only in-program spans the benchmark reads.
func (p *probes) netTraced() {
	tr := obs.NewTracer()
	eng := netEngine(dnet.TransportUnix, true)
	eng.SetTracer(tr)
	id := p.rec.begin("net.Engine.Run(stream,unix,traced)", -1)
	res, met := core.RunDistributed(p.g, core.Options{Rounds: p.in.T}, eng)
	p.rec.end(id)
	p.fail(p.in.ref.verify(res.B, met))
	ph := phaseMs(nil, tr.Trace().PhaseTotals())
	for _, name := range []string{"step", "deliver", "send", "recv", "verify", "barrier-wait"} {
		p.v["net.phase_"+strings.ReplaceAll(name, "-", "_")+"_ms"] = ph[name]
	}
	var maxWorker, relayed, chunks, credits int64
	for _, w := range eng.StreamWire() {
		if b := w.Sent + w.Relayed; b > maxWorker {
			maxWorker = b
		}
		relayed += w.Relayed
		chunks += w.Chunks
		credits += w.Credits
	}
	p.v["net.max_worker_mb_per_op"] = float64(maxWorker) / 1e6
	p.v["net.relayed_mb_per_op"] = float64(relayed) / 1e6
	p.v["net.mesh_chunks_per_op"] = float64(chunks)
	p.v["net.credits_per_op"] = float64(credits)
}

// sessionLayer opens one traced session on the workload's graph and pushes
// the generated chain through it.
func (p *probes) sessionLayer() {
	tr := obs.NewTracer()
	id := p.rec.begin("session.Open", -1)
	s, err := session.Open(p.g, session.Options{P: clusterP, Rounds: p.in.T, Part: shard.Greedy{}, Trace: tr})
	p.v["session.open_ms"] = ms(p.rec.end(id))
	if err != nil {
		p.fail(err)
		return
	}
	defer s.Close()
	before := tr.Trace().PhaseTotals()
	var epochMs []float64
	var totalMs, edgeOps, changed, moved, bytes float64
	for i, d := range p.in.deltas {
		id := p.rec.begin("session.Push", -1)
		rep, err := s.Push(d, 0)
		epochMs = append(epochMs, ms(p.rec.end(id)))
		totalMs += epochMs[i]
		if err != nil {
			p.fail(err)
			return
		}
		if want, ok := p.in.epochDigest[i]; ok && rep.ValuesDigest != want {
			p.fail(fmt.Errorf("session probe: epoch %d values digest mismatch", rep.Epoch))
		}
		edgeOps += float64(d.Len())
		changed += float64(len(rep.Changed))
		moved += float64(rep.Churn.MovedNodes)
		bytes += float64(rep.Churn.DeltaBytes)
	}
	epochs := float64(len(epochMs))
	ph := phaseMs(before, tr.Trace().PhaseTotals())
	p.v["session.epoch_p90_ms"] = quantile(epochMs, 0.9)
	p.v["session.epoch_max_ms"] = quantile(epochMs, 1)
	p.v["session.delta_ops_per_s"] = edgeOps / (totalMs / 1e3)
	p.v["session.changed_per_epoch"] = changed / epochs
	p.v["session.moved_nodes_per_epoch"] = moved / epochs
	p.v["session.epoch_bytes"] = bytes / epochs
	for _, name := range []string{"repair", "rebalance", "publish", "epoch"} {
		p.v["session.phase_"+name+"_ms"] = ph[name] / epochs
	}
	b := s.Values()
	p.v["session.values_digest_us"] = 1e3 * p.timeMs("session.ValuesDigest", func() { sink ^= session.ValuesDigest(b) })
}

// dynamicLayer replays the chain on a standalone Maintainer: the repair
// cost one session worker pays per epoch, without the session around it.
func (p *probes) dynamicLayer() {
	var m *dynamic.Maintainer
	p.v["dynamic.new_ms"] = p.timeMs("dynamic.New", func() { m = dynamic.New(p.g, p.in.T) })
	edgeOps := 0
	id := p.rec.begin("dynamic.ApplyDelta", -1)
	for _, d := range p.in.deltas {
		if err := m.ApplyDelta(d); err != nil {
			p.fail(err)
			return
		}
		edgeOps += d.Len()
	}
	took := p.rec.end(id)
	p.v["dynamic.apply_us_per_edgeop"] = float64(took.Nanoseconds()) / 1e3 / float64(edgeOps)
	p.v["dynamic.reevaluated_per_edgeop"] = float64(m.Stats.Reevaluated) / float64(edgeOps)
	p.v["dynamic.changed_per_edgeop"] = float64(m.Stats.Changed) / float64(edgeOps)
}

func (p *probes) densestLayer() {
	cfg := densest.Config{Gamma: gamma}
	p.v["densest.central_ms"] = p.timeMs("densest.Weak", func() { densest.Weak(p.g, cfg) })
	id := p.rec.begin("densest.RunWeakDistributed", -1)
	res, met := densest.RunWeakDistributed(p.g, cfg, dist.SeqEngine{})
	p.rec.end(id)
	if subsetsDigest(res) != p.in.densest().digest {
		p.fail(fmt.Errorf("densest probe: subset collection differs from the reference"))
	}
	p.v["densest.rounds_per_op"] = float64(met.Rounds)
	p.v["densest.msgs_per_op"] = float64(met.Messages)
}

// obsLayer is the workload's own op, traced and untraced in alternation on
// two set-ups: the difference of the medians is what attaching a tracer
// costs, and the traced side's span count is what it buys.
func (p *probes) obsLayer(budget time.Duration) (attempted, failed int, wall []float64) {
	tr := obs.NewTracer()
	plain, _, err := setUp(p.w, p.in, nil)
	if err != nil {
		p.fail(err)
		return 0, 0, nil
	}
	defer plain.close()
	traced, _, err := setUp(p.w, p.in, tr)
	if err != nil {
		p.fail(err)
		return 0, 0, nil
	}
	defer traced.close()

	spans0 := len(tr.Trace().Spans)
	var tracedWall []float64
	sides := []struct {
		inst instance
		name string
		wall *[]float64
	}{{plain, "op", &wall}, {traced, "op(traced)", &tracedWall}}
	start := time.Now()
	for i := 1; i < len(p.in.deltas) && (i <= 2 || (i <= 5 && time.Since(start) < budget)); i++ {
		for k := range sides {
			side := sides[(i+k)%2] // alternate which side runs first
			id := p.rec.begin(side.name, -1)
			s, err := timedOp(side.inst, i)
			p.rec.end(id)
			*side.wall = append(*side.wall, s.wallMs)
			attempted++
			if err != nil {
				failed++
				p.log("FAILED %s %d: %v\n", side.name, i, err)
			}
		}
	}
	p.v["obs.trace_overhead_pct"] = 100 * (median(tracedWall) - median(wall)) / median(wall)
	p.v["obs.spans_per_op"] = float64(len(tr.Trace().Spans)-spans0) / float64(len(tracedWall))
	return attempted, failed, wall
}

// runPerLayer is the traced run: the workload's set-up once, its op traced
// against untraced, then every layer's probe on the workload's graph, and
// the cost ladder. cfg.seconds scales the probes' budgets.
func runPerLayer(w workload, cfg config) (*result, error) {
	tGen := time.Now()
	in, err := generate(w, cfg.seed, probeEpochs)
	if err != nil {
		return nil, err
	}
	genS := time.Since(tGen).Seconds()

	budget := time.Duration(cfg.seconds * float64(time.Second))
	p := &probes{
		w: w, in: in, g: buildGraph(in.n, in.edges), rec: newRecorder(), v: values{},
		slice: budget / 50,
		log:   func(format string, a ...any) { fmt.Fprintf(cfg.log, format, a...) },
	}
	reset := resetPeakRSS()
	ticks0, err := readCPUTicks()
	if err != nil {
		return nil, err
	}

	attempted, failed, wall := p.obsLayer(budget / 4)
	p.graphLayer()
	p.partition()
	p.coreAndDist()
	p.shardAndCodec()
	p.netLayer()
	p.netTraced()
	p.sessionLayer()
	p.dynamicLayer()
	p.densestLayer()
	p.largeLayer(cfg.seed)
	p.ladder()

	ticks1, err := readCPUTicks()
	if err != nil {
		return nil, err
	}
	if p.err != nil {
		p.log("FAILED probe: %v\n", p.err)
		failed++
	}
	if len(wall) == 0 {
		return nil, fmt.Errorf("traced run made no ops: %v", p.err)
	}
	hostRows(p.v, genS, len(wall), iqrPct(wall), reset, ticks0, ticks1)
	if cfg.traceOut != "" {
		if err := p.rec.writeChrome(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return &result{vals: p.v, attempted: attempted + 1, failed: failed}, nil
}
