package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"distkcore/internal/obs"
)

// minPasses is how many passes a run makes however slow the host is: the
// best-of over fewer repeats is not a floor.
const minPasses = 5

// config is one invocation's arguments.
type config struct {
	seed     int64
	seconds  float64 // how long the passes measure, set-ups included
	traceOut string  // Chrome trace of the harness spans (traced runs)
	log      io.Writer
}

// result is what one run reports: the metric values plus the op counts.
type result struct {
	vals      values
	attempted int
	failed    int
}

// sample is one timed op. rssMB is VmHWM after the op: the op's own peak
// when the kernel let timedOp restart the mark before it, the process's
// peak so far when not.
type sample struct{ wallMs, cpuMs, allocMB, rssMB float64 }

// timedOp runs inst.op(i) inside the timed span and inst.check(i) after it.
// A panic in the program under test (the engines have no error channel)
// counts as a failed op, not a crashed benchmark.
//
// Every op starts from a collected heap. Without that, whether a GC cycle
// falls inside an op depends on what earlier ops left behind: on
// coreness-seq every second op paid one and op times alternated 21/28 ms,
// so the median jumped between the two modes from run to run. The cycles an
// op triggers by its own allocation still run inside its span.
func timedOp(inst instance, i int) (s sample, err error) {
	runtime.GC()
	resetPeakRSS()
	a0 := totalAlloc()
	c0 := cpuTime()
	t0 := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("op %d panicked: %v", i, r)
			}
		}()
		err = inst.op(i)
	}()
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	alloc := totalAlloc() - a0
	rss, rssErr := peakRSSMB()
	if rssErr != nil {
		rss = math.NaN() // report refuses to print a metric that was not measured
	}
	if err == nil {
		err = inst.check(i)
	}
	return sample{
		wallMs:  ms(wall),
		cpuMs:   ms(cpu),
		allocMB: float64(alloc) / 1e6,
		rssMB:   rss,
	}, err
}

// setUp is the program's set-up before the first timed op: CSR build from
// the edge list, engine construction or session.Open (epoch 0 included), and
// the warm-up op. It returns the live instance and how long that took; the
// warm-up's output check runs after the clock stops.
func setUp(w workload, in *inputs, tr *obs.Tracer) (instance, time.Duration, error) {
	t0 := time.Now()
	g := buildGraph(in.n, in.edges)
	inst, err := w.open(in, g, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if err = inst.op(0); err != nil {
		inst.close()
		return nil, 0, fmt.Errorf("warm-up op: %w", err)
	}
	d := time.Since(t0)
	if err = inst.check(0); err != nil {
		inst.close()
		return nil, 0, fmt.Errorf("warm-up op: %w", err)
	}
	return inst, d, nil
}

// timedPass is the closed loop with one client over one set-up: the
// workload's fixed count of ops, op i+1 starting when op i has returned and
// been checked. Every pass of a run executes the same ops on the same state,
// so sample i of one pass and sample i of another timed the same work.
func timedPass(w workload, inst instance, log io.Writer) (samples []sample, failed int) {
	for i := 1; i <= w.ops; i++ { // op 0 was the warm-up
		s, err := timedOp(inst, i)
		samples = append(samples, s)
		if err != nil {
			failed++
			fmt.Fprintf(log, "FAILED op %d: %v\n", i, err)
		}
	}
	return samples, failed
}

func column(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// bestOf returns, for each op of a pass, the smallest f any pass measured for
// it. The work is the same in every pass; what differs is what else the host
// was doing, and that only ever adds time.
func bestOf(passes [][]sample, f func(sample) float64) []float64 {
	best := make([]float64, len(passes[0]))
	for i := range best {
		best[i] = f(passes[0][i])
		for _, p := range passes[1:] {
			best[i] = math.Min(best[i], f(p[i]))
		}
	}
	return best
}

// noisePct is the run's stored noise floor: how far the passes' timings of
// one op lie apart, (p75 − p25) / p50 in percent, for the median op.
func noisePct(passes [][]sample) float64 {
	spread := make([]float64, len(passes[0]))
	for i := range spread {
		var wall []float64
		for _, p := range passes {
			wall = append(wall, p[i].wallMs)
		}
		spread[i] = iqrPct(wall)
	}
	return median(spread)
}

// runEndToEnd is the untraced run: generate, then for cfg.seconds pass after
// pass — set up, run the workload's ops, tear down — and report the five
// end-to-end metrics plus the harness/host rows that say how far to trust
// them.
//
// The three time metrics are best-of-passes: set-up and every op are
// deterministic work repeated once per pass, and the fastest repeat is the
// one the host disturbed least. This VM's neighbours slow an op by 0–40 %
// from one second to the next; in a noisy minute the median of a run's ops
// read 19 % above a quiet minute's, the floor 8 % (README.md, Noise).
func runEndToEnd(w workload, cfg config) (*result, error) {
	tGen := time.Now()
	in, err := generate(w, cfg.seed, w.deltas())
	if err != nil {
		return nil, err
	}
	genS := time.Since(tGen).Seconds()

	// The generator's garbage is not part of the program's peak: return it
	// to the OS, so VmHWM restarts from the live heap alone.
	debug.FreeOSMemory()
	reset := resetPeakRSS()
	ticks0, err := readCPUTicks()
	if err != nil {
		return nil, err
	}
	var (
		setups []float64
		passes [][]sample
		all    []sample
		failed int
	)
	for start := time.Now(); len(passes) < minPasses || time.Since(start).Seconds() < cfg.seconds; {
		runtime.GC() // as before every timed op
		inst, d, err := setUp(w, in, nil)
		if err != nil {
			return nil, err
		}
		samples, f := timedPass(w, inst, cfg.log)
		inst.close()
		setups = append(setups, d.Seconds())
		passes = append(passes, samples)
		all = append(all, samples...)
		failed += f
	}
	ticks1, err := readCPUTicks()
	if err != nil {
		return nil, err
	}
	// The median of the ops' own peaks, not the run's: one op in a few
	// hundred overshoots by a third when a GC cycle finishes late, and a
	// maximum would report that op (16.8 against 22.9 MB on unchanged code).
	// Where the mark cannot be restarted the largest sample is the run's peak.
	rss := column(all, func(s sample) float64 { return s.rssMB })
	peak := median(rss)
	if !reset {
		peak = quantile(rss, 1)
	}

	v := values{
		"setup_s":         quantile(setups, 0),
		"op_p50_ms":       median(bestOf(passes, func(s sample) float64 { return s.wallMs })),
		"cpu_ms_per_op":   median(bestOf(passes, func(s sample) float64 { return s.cpuMs })),
		"alloc_mb_per_op": median(column(all, func(s sample) float64 { return s.allocMB })),
		"peak_rss_mb":     peak,
	}
	fmt.Fprintf(cfg.log, "%d passes of %d ops\n", len(passes), w.ops)
	hostRows(v, genS, len(all), noisePct(passes), reset, ticks0, ticks1)
	return &result{vals: v, attempted: len(all), failed: failed}, nil
}

// hostRows fills the harness.* and host.* rows both kinds of run report.
func hostRows(v values, genS float64, ops int, iqr float64, reset bool, t0, t1 cpuTicks) {
	v["harness.gen_s"] = genS
	v["harness.ops"] = float64(ops)
	v["harness.op_iqr_pct"] = iqr
	v["harness.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	v["harness.rss_reset"] = 0
	if reset {
		v["harness.rss_reset"] = 1
	}
	v["host.nproc"] = float64(runtime.NumCPU())
	v["host.steal_pct"] = stealPct(t0, t1)
}
