// Perf smoke for the PR 8 worker-pool rewrite: the parallel engine must at
// least keep up with the sequential reference on the bench workload once
// real cores are available. The old goroutine-per-node engine lost this by
// 2.3× (as recorded in BENCH_PR7.json: 340ms vs 152ms on BA n=10⁴); the
// pool is the fix, and this test is the tripwire that keeps it fixed. The
// live numbers for the pair are the trusted benchmark's `coreness-seq` /
// `coreness-par` workloads and its `dist.par_speedup` row.
//
// It is opt-in (DKC_PERF_SMOKE=1) because wall-clock assertions are only
// meaningful on an otherwise idle multi-core runner — CI sets the variable
// on a dedicated step; `go test ./...` stays timing-free. On a single-core
// box the comparison is vacuous (the pool degrades to the inline path) and
// the test skips.
package distkcore_test

import (
	"os"
	"runtime"
	"testing"
	"time"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
)

func TestParPoolKeepsUpWithSeqSmoke(t *testing.T) {
	if os.Getenv("DKC_PERF_SMOKE") == "" {
		t.Skip("perf smoke is opt-in: set DKC_PERF_SMOKE=1")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skipf("GOMAXPROCS=%d: no parallelism to measure", runtime.GOMAXPROCS(0))
	}
	g := graph.BarabasiAlbert(10_000, 4, 7)
	T := core.TForEpsilon(g.N(), 0.5)
	best := func(eng dist.Engine) time.Duration {
		core.RunDistributed(g, core.Options{Rounds: T}, eng) // warm-up
		b := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			core.RunDistributed(g, core.Options{Rounds: T}, eng)
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	seq := best(dist.SeqEngine{})
	par := best(dist.ParEngine{W: 4})
	t.Logf("BA n=10⁴ coreness, best of 3: seq %v, par:4 %v (%.2fx)", seq, par, float64(seq)/float64(par))
	// 10% margin: the assertion is "no longer slower than seq", not a
	// speedup target — shared CI runners are too noisy to pin a ratio.
	if par > seq+seq/10 {
		t.Errorf("par:4 regressed below seq: par %v vs seq %v (allowed up to 1.1× seq)", par, seq)
	}
}
