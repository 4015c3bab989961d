package main

import (
	"math"
	"sort"
	"time"
)

// metricDef declares one metric the benchmark prints. The two tables below
// are the single source of the names, units and directions; BENCHMARK.json
// and README.md repeat them; benchmark_test.go holds the file to the code.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median a later PR may lose
}

// endToEnd is what a user of the system sees. Every workload reports all
// five, measured with tracing off. The three time metrics sit at the largest
// bound allowed: the 2-vCPU VM this was written on slows by 10–30 % for
// minutes at a time, and although best-of-passes timing of short ops reads
// through most of that (README.md, Noise), the first submission's plain
// medians were refused for spreading past this very bound. The two memory
// metrics' bounds are about three times the widest spread ten seeds showed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer is what the traced run prints: every layer timed from outside
// through its public functions, on the workload's own graph. Names are
// <module>.<what>; README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{"graph.build_ms", "ms", "lower", 0},
	{"graph.delta_apply_ms", "ms", "lower", 0},
	{"graph.fingerprint_ms", "ms", "lower", 0},

	{"core.central_run_ms", "ms", "lower", 0},
	{"core.step_ns_per_node", "ns/node", "lower", 0},
	{"core.allocs_per_node", "count", "lower", 0},

	{"dist.deliver_ns_per_msg", "ns/msg", "lower", 0},
	{"dist.deliver_share", "pct", "lower", 0},
	{"dist.msgs_per_op", "count", "lower", 0},
	{"dist.rounds_per_op", "count", "lower", 0},
	{"dist.wire_mb_per_op", "MB", "lower", 0},
	{"dist.words_per_msg", "count", "lower", 0},
	{"dist.msgs_per_s", "1/s", "higher", 0},
	{"dist.par_workers", "count", "higher", 0},
	{"dist.par_speedup", "x", "higher", 0},
	{"dist.fused_node_rounds", "count", "higher", 0},

	{"shard.append_ns_per_msg", "ns/msg", "lower", 0},
	{"shard.decode_ns_per_msg", "ns/msg", "lower", 0},
	{"shard.frame_bytes_per_msg", "B/msg", "lower", 0},
	{"codec.record_ns_per_kib", "ns/KiB", "lower", 0},
	{"shard.partition_ms", "ms", "lower", 0},
	{"shard.cut_fraction", "ratio", "lower", 0},
	{"shard.cross_msgs_per_op", "count", "lower", 0},
	{"shard.frame_mb_per_op", "MB", "lower", 0},
	{"shard.max_shard_mb_per_op", "MB", "lower", 0},
	{"shard.rebalance_us", "us", "lower", 0},

	{"net.rtt_us_pipe", "us", "lower", 0},
	{"net.rtt_us_unix", "us", "lower", 0},
	{"net.bulk_mb_per_s_pipe", "MB/s", "higher", 0},
	{"net.bulk_mb_per_s_unix", "MB/s", "higher", 0},
	{"net.dial_ms", "ms", "lower", 0},
	{"net.max_worker_mb_per_op", "MB", "lower", 0},
	{"net.mesh_chunks_per_op", "count", "lower", 0},
	{"net.credits_per_op", "count", "lower", 0},
	{"net.relayed_mb_per_op", "MB", "lower", 0},
	{"net.phase_step_ms", "ms", "lower", 0},
	{"net.phase_deliver_ms", "ms", "lower", 0},
	{"net.phase_send_ms", "ms", "lower", 0},
	{"net.phase_recv_ms", "ms", "lower", 0},
	{"net.phase_verify_ms", "ms", "lower", 0},
	{"net.phase_barrier_wait_ms", "ms", "lower", 0},

	{"session.open_ms", "ms", "lower", 0},
	{"session.epoch_p90_ms", "ms", "lower", 0},
	{"session.epoch_max_ms", "ms", "lower", 0},
	{"session.delta_ops_per_s", "1/s", "higher", 0},
	{"session.changed_per_epoch", "count", "lower", 0},
	{"session.moved_nodes_per_epoch", "count", "lower", 0},
	{"session.values_digest_us", "us", "lower", 0},
	{"session.epoch_bytes", "B", "lower", 0},
	{"session.phase_repair_ms", "ms", "lower", 0},
	{"session.phase_rebalance_ms", "ms", "lower", 0},
	{"session.phase_publish_ms", "ms", "lower", 0},
	{"session.phase_epoch_ms", "ms", "lower", 0},

	{"dynamic.new_ms", "ms", "lower", 0},
	{"dynamic.apply_us_per_edgeop", "us", "lower", 0},
	{"dynamic.reevaluated_per_edgeop", "count", "lower", 0},
	{"dynamic.changed_per_edgeop", "count", "lower", 0},

	{"densest.central_ms", "ms", "lower", 0},
	{"densest.rounds_per_op", "count", "lower", 0},
	{"densest.msgs_per_op", "count", "lower", 0},

	{"large.nodes", "count", "higher", 0},
	{"large.seq_op_ms", "ms", "lower", 0},
	{"large.alloc_mb_per_op", "MB", "lower", 0},
	{"large.msgs_per_op", "count", "lower", 0},
	{"large.step_ns_per_node", "ns/node", "lower", 0},
	{"large.deliver_ns_per_msg", "ns/msg", "lower", 0},
	{"large.deliver_share", "pct", "lower", 0},

	{"obs.trace_overhead_pct", "pct", "lower", 0},
	{"obs.spans_per_op", "count", "lower", 0},

	{"ladder.seq_ms", "ms", "lower", 0},
	{"ladder.par_ms", "ms", "lower", 0},
	{"ladder.shard4_ms", "ms", "lower", 0},
	{"ladder.net4_relay_pipe_ms", "ms", "lower", 0},
	{"ladder.net4_relay_unix_ms", "ms", "lower", 0},
	{"ladder.net4_stream_pipe_ms", "ms", "lower", 0},
	{"ladder.net4_stream_unix_ms", "ms", "lower", 0},
	{"ladder.max_unexplained_pct", "pct", "lower", 0},

	{"harness.gen_s", "s", "lower", 0},
	{"harness.ops", "count", "higher", 0},
	{"harness.op_iqr_pct", "pct", "lower", 0},
	{"harness.gomaxprocs", "count", "higher", 0},
	{"harness.rss_reset", "count", "higher", 0},
	{"host.nproc", "count", "higher", 0},
	{"host.steal_pct", "pct", "lower", 0},
}

// values holds one run's measurements by metric name.
type values map[string]float64

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics; xs need not be sorted and is not modified.
// An empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqrPct is the run's stored noise floor: (p75 − p25) / p50, in percent.
func iqrPct(xs []float64) float64 {
	return 100 * (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}
