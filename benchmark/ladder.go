package main

import (
	"fmt"
	"math"
	"runtime"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	dnet "distkcore/internal/net"
	"distkcore/internal/shard"
)

// rung is one surface of the cost ladder: the same coreness run, one more
// layer of machinery than its base rung. explain predicts the delta to the
// base from the layer rows measured earlier in the same traced run — the
// models were written down before measuring (README.md), so whatever they
// miss is printed as unexplained, not tuned away.
type rung struct {
	name    string
	base    string // rung the delta is taken against; "" for the first
	eng     func() dist.Engine
	explain func(f ladderFacts) (ms float64, terms string)
}

// ladderFacts are the layer rows the explanations are built from.
type ladderFacts struct {
	stepMs, deliverMs   float64 // driver probe totals
	rounds              float64
	cores               float64 // min(GOMAXPROCS, workers) a parallel step can use
	crossMsgs, frameMB  float64 // shard4 rung's ledger
	codecNsPerMsg       float64 // append + decode
	recordNsPerKiB      float64
	partitionMs         float64
	rttPipe, rttUnix    float64 // µs
	bulkPipe, bulkUnix  float64 // MB/s
	dialPipe, dialUnix  float64 // ms
	credits             float64
	parWorkers, cluster float64
}

func netRung(transport string, stream bool) func() dist.Engine {
	return func() dist.Engine { return netEngine(transport, stream) }
}

var rungs = []rung{
	{"seq", "", func() dist.Engine { return dist.SeqEngine{} },
		func(f ladderFacts) (float64, string) {
			return f.stepMs + f.deliverMs, "driver probe step + deliver"
		}},
	{"par", "seq", func() dist.Engine { return dist.ParEngine{} },
		func(f ladderFacts) (float64, string) {
			w := math.Min(f.parWorkers, f.cores)
			return -f.stepMs * (1 - 1/w), fmt.Sprintf("step spread over %.0f cores; deliver assumed unchanged", w)
		}},
	{"shard4", "seq", func() dist.Engine { return shard.NewEngine(clusterP, shard.Greedy{}) },
		func(f ladderFacts) (float64, string) {
			w := math.Min(f.cluster, f.cores)
			codec := f.crossMsgs * f.codecNsPerMsg / 1e6
			return f.partitionMs + codec - f.stepMs*(1-1/w),
				fmt.Sprintf("partition %.1f + codec ns/msg × cross msgs %.1f − step over %.0f cores", f.partitionMs, codec, w)
		}},
	{"net4_relay_pipe", "shard4", netRung(dnet.TransportPipe, false),
		func(f ladderFacts) (float64, string) {
			barrier := 2 * f.rounds * f.rttPipe / 1e3
			framing := 2 * f.frameMB * 1e6 / 1024 * f.recordNsPerKiB / 1e6
			transfer := 2 * f.frameMB / f.bulkPipe * 1e3
			return f.dialPipe + barrier + framing + transfer,
				fmt.Sprintf("dial %.1f + 2·rounds·rtt %.1f + record framing ×2 %.1f + frames over two links %.1f", f.dialPipe, barrier, framing, transfer)
		}},
	{"net4_relay_unix", "net4_relay_pipe", netRung(dnet.TransportUnix, false),
		func(f ladderFacts) (float64, string) {
			barrier := 2 * f.rounds * (f.rttUnix - f.rttPipe) / 1e3
			transfer := 2 * f.frameMB * (1/f.bulkUnix - 1/f.bulkPipe) * 1e3
			return f.dialUnix - f.dialPipe + barrier + transfer,
				fmt.Sprintf("dial %+.1f + 2·rounds·Δrtt %+.1f + frames at unix vs pipe speed %+.1f", f.dialUnix-f.dialPipe, barrier, transfer)
		}},
	{"net4_stream_pipe", "net4_relay_pipe", netRung(dnet.TransportPipe, true),
		func(f ladderFacts) (float64, string) {
			oneLink := -f.frameMB/f.bulkPipe*1e3 - f.frameMB*1e6/1024*f.recordNsPerKiB/1e6
			credit := f.credits * f.rttPipe / 2 / 1e3
			return oneLink + credit,
				fmt.Sprintf("frames cross one link, not two %+.1f + credits × rtt/2 %+.1f", oneLink, credit)
		}},
	{"net4_stream_unix", "net4_stream_pipe", netRung(dnet.TransportUnix, true),
		func(f ladderFacts) (float64, string) {
			barrier := 2 * f.rounds * (f.rttUnix - f.rttPipe) / 1e3
			return f.dialUnix - f.dialPipe + barrier,
				fmt.Sprintf("dial %+.1f + 2·rounds·Δrtt %+.1f (mesh links stay in-process pipes)", f.dialUnix-f.dialPipe, barrier)
		}},
}

// ladderReps is how many runs each rung's median is taken over.
const ladderReps = 3

// ladder runs every rung on the workload's graph ladderReps times (median
// each), records the ledgers only those runs expose, and prints the ladder
// with explained and unexplained columns.
func (p *probes) ladder() {
	T := p.in.T
	med := map[string]float64{}
	var stats dist.ParStats
	for _, r := range rungs {
		eng := r.eng()
		if pe, ok := eng.(dist.ParEngine); ok {
			pe.Stats = &stats
			eng = pe
		}
		var runs []float64
		for i := 0; i < ladderReps; i++ {
			runtime.GC() // as before every timed op
			id := p.rec.begin("ladder."+r.name, -1)
			res, met := core.RunDistributed(p.g, core.Options{Rounds: T}, eng)
			runs = append(runs, ms(p.rec.end(id)))
			p.fail(p.in.ref.verify(res.B, met))
		}
		med[r.name] = median(runs)
		p.v["ladder."+r.name+"_ms"] = med[r.name]
		if se, ok := eng.(*shard.Engine); ok {
			sm := se.ShardMetrics()
			p.v["shard.cross_msgs_per_op"] = float64(sm.CrossMessages)
			p.v["shard.frame_mb_per_op"] = float64(sm.CrossFrameBytes) / 1e6
			p.v["shard.max_shard_mb_per_op"] = float64(sm.MaxShardBytes) / 1e6
		}
	}
	p.v["dist.par_workers"] = float64(stats.Workers)
	p.v["dist.fused_node_rounds"] = float64(stats.FusedNodeRounds)
	p.v["dist.par_speedup"] = med["seq"] / med["par"]

	f := ladderFacts{
		stepMs: p.stepMs, deliverMs: p.deliverMs,
		rounds:         p.v["dist.rounds_per_op"],
		cores:          float64(runtime.GOMAXPROCS(0)),
		crossMsgs:      p.v["shard.cross_msgs_per_op"],
		frameMB:        p.v["shard.frame_mb_per_op"],
		codecNsPerMsg:  p.v["shard.append_ns_per_msg"] + p.v["shard.decode_ns_per_msg"],
		recordNsPerKiB: p.v["codec.record_ns_per_kib"], partitionMs: p.v["shard.partition_ms"],
		rttPipe: p.v["net.rtt_us_pipe"], rttUnix: p.v["net.rtt_us_unix"],
		bulkPipe: p.v["net.bulk_mb_per_s_pipe"], bulkUnix: p.v["net.bulk_mb_per_s_unix"],
		dialPipe: p.dialPipeMs, dialUnix: p.v["net.dial_ms"],
		credits:    p.v["net.credits_per_op"],
		parWorkers: float64(stats.Workers), cluster: clusterP,
	}
	p.log("cost ladder on n=%d, T=%d (median of %d per rung; unexplained = measured − explained)\n", p.g.N(), T, ladderReps)
	p.log("  %-18s %9s  %-16s %9s %10s %12s  %s\n", "rung", "median ms", "vs", "delta ms", "explained", "unexplained", "layer rows")
	worst := 0.0
	for _, r := range rungs {
		delta := med[r.name] - med[r.base] // med[""] is 0: the first rung is explained in full
		explained, terms := r.explain(f)
		rest := delta - explained
		pct := 100 * rest / med[r.name]
		worst = math.Max(worst, math.Abs(pct))
		p.log("  %-18s %9.1f  %-16s %+9.1f %+10.1f %+8.1f (%+.0f%%)  %s\n", r.name, med[r.name], r.base, delta, explained, rest, pct, terms)
	}
	p.v["ladder.max_unexplained_pct"] = worst
	p.log("  finding: the largest unexplained remainder is %.0f%% of its rung\n", worst)
}
