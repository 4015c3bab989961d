// Command benchmark is the repository's benchmark: one invocation runs one
// workload and prints every metric by name with its unit, the ops attempted
// and failed, and — as the last line of standard output — one JSON object
// for the driver. README.md has the workload and metric tables.
//
// Usage (from the repository root; benchmark/run.sh builds the binary once):
//
//	bash benchmark/run.sh --workload coreness-seq --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload cluster-stream --seed 1 --seconds 20 --trace 1 --trace-out ladder.json
//	bash benchmark/run.sh --selfcheck
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate per-layer run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "input seed: the same seed gives the same graph and deltas")
		seconds   = flag.Float64("seconds", 20, "how long the passes (set-up + timed ops) measure")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
		traceOut  = flag.String("trace-out", "", "with --trace 1: write the harness spans as Chrome trace-event JSON to this file")
		selfcheck = flag.Bool("selfcheck", false, "run every workload in back-to-back pairs and hold each metric's median pair to its bound")
	)
	flag.Parse()
	if *selfcheck {
		return selfCheck(*seed, *seconds)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	cleanup, err := privateTempDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer cleanup()

	cfg := config{seed: *seed, seconds: *seconds, traceOut: *traceOut, log: os.Stdout}
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", w.name, cfg.seed, cfg.seconds, *trace)
	run, defs := runEndToEnd, endToEnd
	if *trace != 0 {
		run, defs = runPerLayer, perLayer
	}
	res, err := run(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return report(res, defs)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// privateTempDir points TMPDIR at a fresh directory under the working
// directory, so the unix sockets the net engine creates with os.MkdirTemp
// stay inside the checkout (and their paths stay short enough for
// sockaddr_un). cleanup removes it.
func privateTempDir() (cleanup func(), err error) {
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return nil, err
	}
	if err := os.Setenv("TMPDIR", dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return func() { os.RemoveAll(dir) }, nil
}

// report prints every metric in defs by name with its unit, then the
// harness/host rows of an end-to-end run (a traced run declares them), then
// the driver's JSON line. It returns the process exit code.
func report(res *result, defs []metricDef) int {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}

	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.Name] = true
		v, ok := res.vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "benchmark: metric %s was not measured (%v)\n", d.Name, v)
			return 1
		}
		fmt.Printf("  %-32s %16.4f %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = metric{v, d.Unit}
	}
	for _, d := range perLayer { // harness.*/host.* context of an end-to-end run
		if v, ok := res.vals[d.Name]; ok && !declared[d.Name] {
			fmt.Printf("  %-32s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
	fmt.Printf("ops attempted %d failed %d\n", res.attempted, res.failed)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
