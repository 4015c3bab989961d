package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"
)

const tinyN = 150

// TestMain keeps the unix sockets of the net engine in a directory the
// tests remove, as main does for a real run.
func TestMain(m *testing.M) {
	cleanup, err := privateTempDir()
	if err != nil {
		panic(err)
	}
	code := m.Run()
	cleanup()
	os.Exit(code)
}

func tinyConfig(seed int64) config {
	return config{seed: seed, seconds: 0.02, log: io.Discard}
}

// tiny returns the named workload shrunk to tinyN nodes and short passes;
// a tiny session pushes small deltas (128 ops rewrite a fifth of a 600-edge
// graph).
func tiny(t *testing.T, name string) workload {
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.n, w.large, w.ops = tinyN, 8*tinyN, 3
	if w.batch > 0 {
		w.ops = 2*w.checkEvery - 1
	}
	if w.batch > 64 {
		w.batch = 64
	}
	return w
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTheCode holds BENCHMARK.json to the tables the
// binary prints from: same workloads, same metrics, same units and bounds.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q / %q, code %q / %q", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q breaks the name or why limits", w.name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the code %d+%d", len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(d metricDef, n, u, b string) {
		if d.Name != n || d.Unit != u || d.Better != b {
			t.Errorf("metric %s: file has %s/%s/%s, code %s/%s", d.Name, n, u, b, d.Unit, d.Better)
		}
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s breaks the name, unit or direction rules", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for i, d := range endToEnd {
		e := f.EndToEnd[i]
		check(d, e.Name, e.Unit, e.Better)
		if e.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v in the file, %v in the code", d.Name, e.Bound, d.Bound)
		}
	}
	for i, d := range perLayer {
		check(d, f.PerLayer[i].Name, f.PerLayer[i].Unit, f.PerLayer[i].Better)
	}
	if !reflect.DeepEqual(f.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", f.Paths)
	}
}

// TestInteractionsNameDeclaredMetrics holds interactions.json — which
// end-to-end metric each layer metric should move, on which workload; the
// part of the contract BENCHMARK.json's schema has no field for — to the
// names the binary prints.
func TestInteractionsNameDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("interactions.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Layer, Moves, On []string
		NotOn            []string `json:"not_on"`
	}
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	known := func(defs []metricDef) map[string]bool {
		m := map[string]bool{}
		for _, d := range defs {
			m[d.Name] = true
		}
		return m
	}
	layer, e2e, wl := known(perLayer), known(endToEnd), map[string]bool{}
	for _, name := range workloadNames() {
		wl[name] = true
	}
	for i, r := range rows {
		if len(r.Layer) == 0 || len(r.Moves) == 0 || len(r.On) == 0 {
			t.Errorf("row %d names no layer metric, end-to-end metric or workload", i)
		}
		for _, c := range []struct {
			names []string
			in    map[string]bool
		}{{r.Layer, layer}, {r.Moves, e2e}, {r.On, wl}, {r.NotOn, wl}} {
			for _, name := range c.names {
				if !c.in[name] {
					t.Errorf("row %d: %q is not a declared name", i, name)
				}
			}
		}
	}
}

// TestEveryWorkloadEmitsExactlyTheDeclaredMetrics runs both kinds of run of
// every workload at a tiny n: no gaps, no extras, all finite, no failed op.
func TestEveryWorkloadEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		w := tiny(t, w.name)
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // nothing here reads a timing
			res, err := runEndToEnd(w, tinyConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			assertMetrics(t, "end-to-end", res, endToEnd, false)
			res, err = runPerLayer(w, tinyConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			assertMetrics(t, "per-layer", res, perLayer, true)
		})
	}
}

func assertMetrics(t *testing.T, what string, res *result, defs []metricDef, exact bool) {
	t.Helper()
	if res.failed != 0 || res.attempted < 1 {
		t.Errorf("%s: %d of %d ops failed", what, res.failed, res.attempted)
	}
	for _, d := range defs {
		v, ok := res.vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s missing or not finite (%v)", what, d.Name, v)
		}
	}
	if exact && len(res.vals) != len(defs) {
		t.Errorf("%s: %d values for %d declared metrics", what, len(res.vals), len(defs))
	}
}

// TestExactCountersRepeat: the counters a later PR may claim as counts are
// functions of (workload, n, seed) only.
func TestExactCountersRepeat(t *testing.T) {
	exact := []string{"dist.msgs_per_op", "dist.wire_mb_per_op", "shard.frame_mb_per_op", "dynamic.reevaluated_per_edgeop"}
	w := tiny(t, "coreness-seq")
	counters := func(seed int64) []float64 {
		res, err := runPerLayer(w, tinyConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, name := range exact {
			out = append(out, res.vals[name])
		}
		return out
	}
	a, b, other := counters(1), counters(1), counters(2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different counters: %v vs %v", a, b)
	}
	if reflect.DeepEqual(a, other) {
		t.Errorf("seeds 1 and 2 give the same counters %v: they do not depend on the input", a)
	}
}

// corrupting flips one bit of β after every coreness op.
type corrupting struct{ *corenessRun }

func (c corrupting) op(i int) error {
	err := c.corenessRun.op(i)
	c.b[0] = math.Float64frombits(math.Float64bits(c.b[0]) ^ 1)
	return err
}

func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	w := tiny(t, "coreness-seq")
	in, err := generate(w, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := setUp(w, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	samples, failed := timedPass(w, inst, io.Discard)
	if failed != 0 || len(samples) != w.ops {
		t.Fatalf("%d of %d clean ops failed", failed, len(samples))
	}
	samples, failed = timedPass(w, corrupting{inst.(*corenessRun)}, io.Discard)
	if failed != len(samples) || failed != w.ops {
		t.Fatalf("%d of %d corrupted ops counted as failed", failed, len(samples))
	}
}

// TestSessionPassEndsOnACheckedEpoch: every session workload, as shipped
// and as the tests shrink it, checks the last epoch of a pass; and a closed
// session leaves no goroutine behind for the next pass to share the host
// with.
func TestSessionPassEndsOnACheckedEpoch(t *testing.T) {
	for _, w := range workloads {
		if w.batch > 0 && (w.ops+1)%w.checkEvery != 0 {
			t.Errorf("%s: %d ops after the warm-up, digests checked every %d: the last epoch is not a checked one", w.name, w.ops, w.checkEvery)
		}
	}
	w := tiny(t, "session-burst")
	in, err := generate(w, 1, w.deltas())
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	inst, _, err := setUp(w, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	samples, failed := timedPass(w, inst, io.Discard)
	inst.close()
	if failed != 0 || len(samples) != w.ops {
		t.Errorf("%d ops after the warm-up, %d failed", len(samples), failed)
	}
	if _, ok := in.epochDigest[w.ops]; !ok {
		t.Errorf("no reference digest for the last op %d", w.ops)
	}
	// close has waited for the workers; give exiting goroutines a moment
	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the session, %d after close", before, after)
	}
}

// TestBestOfPasses: each op is timed as the fastest of its repeats, and the
// noise floor is how far the repeats of one op lie apart, not how far the
// ops of a pass do.
func TestBestOfPasses(t *testing.T) {
	wall := func(xs ...float64) []sample {
		var out []sample
		for _, x := range xs {
			out = append(out, sample{wallMs: x})
		}
		return out
	}
	passes := [][]sample{wall(10, 50, 31), wall(12, 40, 30), wall(11, 45, 36), wall(13, 41, 32), wall(10, 44, 33)}
	got := bestOf(passes, func(s sample) float64 { return s.wallMs })
	if want := []float64{10, 40, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("bestOf = %v, want %v", got, want)
	}
	// per-op spreads 2/11, 4/44 and 2/32 of their medians: the middle one
	if got := noisePct(passes); math.Abs(got-100*4.0/44) > 1e-9 {
		t.Errorf("noisePct = %v, want %v", got, 100*4.0/44)
	}
}

func TestQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5}, 0.5, 5},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4, 5}, 0.75, 4},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{10, 20}, 0.9, 19},
		{[]float64{7, 9, 8}, 0, 7},
		{[]float64{7, 9, 8}, 1, 9},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	if got := iqrPct([]float64{1, 2, 3, 4, 5}); math.Abs(got-100*2.0/3) > 1e-9 {
		t.Errorf("iqrPct = %v", got)
	}
}

func TestProcParsers(t *testing.T) {
	a, err := parseCPUTicks([]byte("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"))
	if err != nil || a.steal != 35 || a.total != 1000 {
		t.Fatalf("parseCPUTicks = %+v, %v", a, err)
	}
	b := cpuTicks{steal: 45, total: 1200}
	if got := stealPct(a, b); got != 5 {
		t.Errorf("stealPct = %v, want 5", got)
	}
	if _, err := parseCPUTicks([]byte("intr 1 2 3\n")); err == nil {
		t.Error("no cpu line should be an error")
	}
	mb, err := parseVmHWM([]byte("Name:\tx\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n"))
	if err != nil || mb != 200 {
		t.Errorf("parseVmHWM = %v, %v", mb, err)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "core.step", start: 10, end: 30, parent: 0},
		{name: "dist.deliver", start: 30, end: 70, parent: 0},
		{name: "core.step", start: 70, end: 75, parent: 0},
		{name: "other", start: 0, end: 50, parent: -1},
	}}
	if got := r.selfTime(0); got != 35 {
		t.Errorf("selfTime = %v, want 35", got)
	}
	if got := r.childTotal(0, "core.step"); got != 25 {
		t.Errorf("childTotal = %v, want 25", got)
	}
}

// TestDisagreementIsSymmetric: the self-check must flag two readings that
// lie apart by more than the bound whichever came first (22.9 then 16.8 MB
// once passed as "-26.7 %, ok" against a 20 % bound).
func TestDisagreementIsSymmetric(t *testing.T) {
	for _, c := range []struct{ a, b, want float64 }{
		{100, 100, 0},
		{100, 110, 0.10},
		{110, 100, 0.10},
		{16.8164, 22.9336, 0.36376},
		{22.9336, 16.8164, 0.36376},
	} {
		if got := disagreement(c.a, c.b); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("disagreement(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestParseRun(t *testing.T) {
	out := "workload x seed 1\n  op_p50_ms     12.5000 ms\n  host.steal_pct   0.2500 pct\nops attempted 7 failed 1\n" +
		`{"correct":false,"attempted":7,"failed":1,"metrics":{}}` + "\n"
	run, err := parseRun([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if run.attempted != 7 || run.failed != 1 || run.rows["op_p50_ms"] != 12.5 || run.rows["host.steal_pct"] != 0.25 {
		t.Errorf("parseRun = %+v", run)
	}
	if _, err := parseRun([]byte("no result here\n")); err == nil {
		t.Error("output without a result line should be an error")
	}
}
