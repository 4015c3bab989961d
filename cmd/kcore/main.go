// Command kcore computes approximate (distributed) and exact coreness
// values for a graph read from an edge-list file or a built-in generator.
//
// Usage:
//
//	kcore -gen ba -n 5000 -eps 0.5
//	kcore -in graph.txt -eps 0.25 -quantize 0.1
//	kcore -gen er -n 2000 -exact           # also run to convergence
//	kcore -gen ba -engine shard:8 -q       # run as a sharded cluster
//
// Output: one line per node "v beta [core]" plus a summary. With -engine
// the elimination runs as a real message-passing protocol on the selected
// engine (seq | par | shard:P[:partitioner]) and communication metrics are
// reported; every engine produces byte-identical values.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"distkcore/internal/cliutil"
	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/exact"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

func main() {
	in := flag.String("in", "", "edge-list file (see graph.ReadEdgeList); empty = use -gen")
	gen := flag.String("gen", "ba", "generator: er|ba|rmat|grid|caveman|planted")
	n := flag.Int("n", 2000, "generator size")
	seed := flag.Int64("seed", 1, "generator seed")
	eps := flag.Float64("eps", 0.5, "target approximation 2(1+eps)")
	lam := flag.Float64("quantize", 0, "message quantization λ (0 = exact reals)")
	exactToo := flag.Bool("exact", false, "also compute exact coreness and per-node ratios")
	quiet := flag.Bool("q", false, "summary only, no per-node lines")
	engineSpec := flag.String("engine", "", "run as a message-passing protocol on this engine; "+cliutil.EngineUsage+" (empty = centralized simulation)")
	traceOut := flag.String("trace", "", cliutil.TraceUsage)
	flag.Parse()

	g, err := cliutil.LoadGraph(*in, *gen, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kcore:", err)
		os.Exit(1)
	}
	T := core.TForEpsilon(g.N(), *eps)
	opt := core.Options{Rounds: T}
	if *lam > 0 {
		opt.Lambda = quantize.NewPowerGrid(*lam)
	}
	// Tracing needs an engine to thread through; a bare -trace runs the
	// protocol on the sequential reference engine.
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		if *engineSpec == "" {
			*engineSpec = "seq"
		}
	}
	var res *core.Result
	if *engineSpec != "" {
		eng, err := cliutil.ParseEngine(*engineSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kcore:", err)
			os.Exit(2)
		}
		eng = cliutil.Traced(eng, tracer)
		var met dist.Metrics
		res, met = core.RunDistributed(g, opt, eng)
		fmt.Printf("# engine=%s rounds=%d messages=%d words=%d wireBytes=%d\n",
			*engineSpec, met.Rounds, met.Messages, met.Words, met.WireBytes)
		if se, ok := eng.(*shard.Engine); ok {
			sm := se.ShardMetrics()
			fmt.Printf("# shards=%d edgeCut=%.1f%% crossMsgs=%d frameBytes=%d maxShardBytes=%d\n",
				sm.P, 100*sm.EdgeCutFraction, sm.CrossMessages, sm.CrossFrameBytes, sm.MaxShardBytes)
		}
	}
	if *engineSpec == "" {
		res = core.Run(g, opt)
	}
	fmt.Printf("# n=%d m=%d T=%d guarantee=%.3f\n", g.N(), g.M(), T, core.GuaranteeAtT(g.N(), T))

	var cores []float64
	if *exactToo {
		cores = exact.CoresWeighted(g)
	}
	if !*quiet {
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		for v := 0; v < g.N(); v++ {
			if cores != nil {
				fmt.Fprintf(w, "%d %g %g\n", v, res.B[v], cores[v])
			} else {
				fmt.Fprintf(w, "%d %g\n", v, res.B[v])
			}
		}
	}
	if cores != nil {
		maxR, sum, cnt := 0.0, 0.0, 0
		for v := 0; v < g.N(); v++ {
			if cores[v] > 0 {
				r := res.B[v] / cores[v]
				if r > maxR {
					maxR = r
				}
				sum += r
				cnt++
			}
		}
		if cnt > 0 {
			fmt.Printf("# max β/c = %.4f  mean β/c = %.4f over %d nodes\n", maxR, sum/float64(cnt), cnt)
		}
	}
	if err := cliutil.WriteTrace(*traceOut, tracer); err != nil {
		fmt.Fprintln(os.Stderr, "kcore:", err)
		os.Exit(1)
	}
}
