package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Pollution limits: a run above either is flagged, because its numbers say
// more about the host than about the code. harness.op_iqr_pct — how far the
// repeats of one op lie apart — reads 15–30 on an ordinary run of this host
// (a 3 ms preemption is half of a 6 ms op), so the limit is twice that.
const (
	maxStealPct = 2.0
	maxIQRPct   = 50.0
)

// selfCheckPairs is how many back-to-back pairs of runs the self-check
// makes per workload. The verdict is on the median pair: this host's speed
// steps by 10–30 % from one minute to the next (README.md, Noise), a step
// lands inside at most one pair in three, and pairs are how a claim on a
// time metric has to be made anyway.
const selfCheckPairs = 3

// selfCheck runs every workload's end-to-end run in selfCheckPairs
// back-to-back pairs, each run in a fresh process of this binary (so peak RSS
// and GC state start clean, exactly as under the driver), and prints per
// end-to-end metric how far the two runs of a pair disagree — the median pair
// against the metric's bound, and the worst pair beside it. It exits non-zero
// if any metric's median pair disagrees beyond its bound, in either
// direction, or any op failed.
func selfCheck(seed int64, seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	bad := 0
	for _, w := range workloads {
		var runs [2 * selfCheckPairs]childRun // pair i is runs 2i and 2i+1
		for i := range runs {
			if runs[i], err = runChild(exe, w.name, seed, seconds); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: selfcheck %s: %v\n", w.name, err)
				return 1
			}
			if runs[i].failed > 0 {
				fmt.Printf("%-15s run %d: %d of %d ops FAILED\n", w.name, i+1, runs[i].failed, runs[i].attempted)
				bad++
			}
			if s, q := runs[i].rows["host.steal_pct"], runs[i].rows["harness.op_iqr_pct"]; s > maxStealPct || q > maxIQRPct {
				fmt.Printf("%-15s run %d: POLLUTED (host.steal_pct %.1f, harness.op_iqr_pct %.1f)\n", w.name, i+1, s, q)
			}
		}
		for _, d := range endToEnd {
			var first, second, apart []float64
			for i := 0; i < len(runs); i += 2 {
				a, b := runs[i].rows[d.Name], runs[i+1].rows[d.Name]
				first, second, apart = append(first, a), append(second, b), append(apart, disagreement(a, b))
			}
			verdict := "ok"
			if median(apart) > d.Bound {
				verdict = "VIOLATION"
				bad++
			}
			fmt.Printf("%-15s %-16s %12.4f %12.4f %-3s median pair %5.1f%% apart, worst %5.1f%% (bound %.0f%%)  %s\n",
				w.name, d.Name, median(first), median(second), d.Unit, 100*median(apart), 100*quantile(apart, 1), 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d violations\n", bad)
		return 1
	}
	fmt.Printf("selfcheck: %d pairs per workload agree within every bound, zero failed ops\n", selfCheckPairs)
	return 0
}

// disagreement is how far two readings of one metric on unchanged code lie
// apart, as a share of the smaller: whichever of the two a later PR is
// compared against, the other must not read as a regression.
func disagreement(a, b float64) float64 {
	return math.Abs(b-a) / math.Min(a, b)
}

// childRun is what selfCheck reads back from one run's standard output.
type childRun struct {
	rows              map[string]float64 // every "name value unit" row printed
	attempted, failed int
}

func runChild(exe, workload string, seed int64, seconds float64) (childRun, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childRun{}, err
	}
	return parseRun(out)
}

func parseRun(out []byte) (childRun, error) {
	run := childRun{rows: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 3 && strings.HasPrefix(last, "  ") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				run.rows[f[0]] = v
			}
		}
	}
	var res struct {
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return childRun{}, fmt.Errorf("last line is not the result object: %w", err)
	}
	run.attempted, run.failed = res.Attempted, res.Failed
	return run, nil
}
