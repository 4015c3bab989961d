package dist

import (
	"fmt"
	"runtime"
	"sync"

	"distkcore/internal/graph"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
)

// ParEngine is the shared-memory parallel engine: a pool of W long-lived
// workers (default runtime.GOMAXPROCS(0)), each owning one contiguous,
// cost-balanced range of node IDs. A broadcast-only round is one barriered
// phase: each worker steps its range's hooks — gathering every inbox from
// the senders' slots into its own buffer — and prices the slots its range
// wrote; the coordinator merges the metric partials and, when few spoke,
// lists the speakers per receiver (sim.listSpeakers) before it releases the
// next round. A round in which any
// hook queued a send adds the scatter as two more barriered phases — count
// (each worker counts its senders' messages per receiver) and fill (each
// worker writes its senders' messages into precomputed disjoint cells of
// the shared inbox arena) — with the prefix offsets and arena sizing run by
// the coordinator in between. Because ranges are contiguous and ascending,
// "fill per worker" IS the deterministic global fill order of the package
// (ascending sender ID, ties in send order), and a gathered inbox is in
// Peers order whoever gathers it, so executions — values, inbox orders,
// Metrics — are byte-identical to SeqEngine's (DESIGN.md §12 has the
// argument; the pinned metrics rows and the dist equivalence tests hold
// the engine to it).
//
// The zero value is ready to use and runs with GOMAXPROCS workers; W == 1
// (or a single-CPU machine) runs the whole schedule inline on the calling
// goroutine — no pool, no channels. Lam and Trace are as in SeqEngine,
// except that step spans are per worker (round, worker) rather than one
// whole-wave span; deliver spans are per round, identical to seq's. Stats,
// when non-nil, receives the pool ledger of each Run.
type ParEngine struct {
	// W is the worker count; <= 0 means runtime.GOMAXPROCS(0). The count is
	// capped at the node count (empty ranges would only cost barriers).
	W     int
	Lam   quantize.Lambda
	Trace *obs.Tracer
	// Stats, when set, is overwritten by every Run with the pool's ledger.
	// Like the engine itself, the sink is not safe for use from concurrent
	// Runs.
	Stats *ParStats
}

// ParStats is the pool ledger of one ParEngine.Run.
type ParStats struct {
	// Workers is the effective worker count of the run (after the
	// GOMAXPROCS default and the node-count cap).
	Workers int
	// FusedNodeRounds is always 0: the pool fuses nothing — it steps what
	// SeqEngine steps, a node at a time, passing over those asleep
	// (Ctx.SleepUntil). The field stays only until the benchmark row that
	// reads it (dist.fused_node_rounds) is retired — ROADMAP item 1c.
	FusedNodeRounds int64
}

// Name identifies the engine in experiment tables and CLI flags.
func (e ParEngine) Name() string {
	if e.W > 0 {
		return fmt.Sprintf("par:%d", e.W)
	}
	return "par"
}

// WithWireLambda implements Engine.
func (e ParEngine) WithWireLambda(lam quantize.Lambda) Engine {
	e.Lam = lam
	return e
}

// rangeNodeWeight is what stepping a node costs beyond its arcs, in arcs.
// Fitted from the two workers' step spans of W = 2 coreness runs on
// BarabasiAlbert(n, 4) with the split point swept (DESIGN.md §12.1): in
// cache (n = 2 000) the per-node term vanishes and the split is flat; out of
// it a node costs 59–68 ns — the slot write is a cross-core invalidation —
// against 15–25 ns per arc, a ratio of 4.7 at n = 10⁴ and 2.3 at 10⁵. The
// scatter-era weight of 1 left the low-degree tail range 17 % slower than
// the hub range at n = 10⁴.
const rangeNodeWeight = 3

// parOp is a phase opcode on the pool's job channels.
type parOp uint8

const (
	opStep parOp = iota
	opCount
	opFill
)

// parJob is one phase of work handed to a worker.
type parJob struct {
	op parOp
	t  int
}

// parWorker is the per-worker state of one run. Everything here is owned by
// exactly one goroutine during a phase and read by the coordinator only
// between barriers, so none of it needs locking.
type parWorker struct {
	lo, hi int // owned node range [lo, hi)
	// buf is the worker's gather buffer (sim.inbox).
	buf []Message
	// msgs/words/wire are the range's metric partials for one round — its
	// slots, priced at the end of the step phase, plus its queued sends,
	// priced by the fill phase — merged by the coordinator in worker order.
	msgs, words, wire int64
}

// parRun is the schedule state shared by the coordinator and the pool.
type parRun struct {
	e  ParEngine
	s  *sim
	w  int
	ws []parWorker
	// cnt is the two-level counting matrix: row i (cnt[i*n:(i+1)*n]) is
	// worker i's per-receiver message count for the current round. cur is
	// the matching fill cursor matrix: cur[i*n+v] is the next arena slot for
	// a message from a range-i sender to receiver v. Both are allocated by
	// the first scatter.
	cnt, cur []int32
}

// Run implements Engine.
func (e ParEngine) Run(g *graph.Graph, factory Factory, maxRounds int) Metrics {
	s := newSim(g, e.Lam, factory)
	n := g.N()
	w := e.W
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}

	r := &parRun{e: e, s: s, w: w, ws: make([]parWorker, w)}

	// Cost-balanced contiguous ranges: split the CSR node order so every
	// worker owns about the same step cost, rangeNodeWeight + deg(v) per
	// node (so isolated nodes still spread). Contiguity is what makes the
	// deterministic parallel fill and the per-range slot pricing possible.
	total := int64(n) * rangeNodeWeight
	for v := 0; v < n; v++ {
		total += int64(g.Degree(v))
	}
	lo, acc := 0, int64(0)
	for i := 0; i < w; i++ {
		target := total * int64(i+1) / int64(w)
		// Leave at least one node for every worker after this one (w <= n,
		// so that is always feasible), and take at least one ourselves.
		maxHi := n - (w - 1 - i)
		hi := lo
		for hi < maxHi && (hi == lo || acc < target) {
			acc += rangeNodeWeight + int64(g.Degree(hi))
			hi++
		}
		r.ws[i].lo, r.ws[i].hi = lo, hi
		lo = hi
	}

	// The pool. Workers block on their job channel and exit when it closes;
	// the single deferred close owns the goroutines' lifetime on every exit
	// path, so an early-halting run (or a future error return) leaks
	// nothing. w == 1 runs every job inline instead — no goroutines at all.
	var wg sync.WaitGroup
	var jobs []chan parJob
	if w > 1 {
		jobs = make([]chan parJob, w)
		for i := 0; i < w; i++ {
			jobs[i] = make(chan parJob, 1)
			go func(i int) {
				for jb := range jobs[i] {
					r.runJob(i, jb)
					wg.Done()
				}
			}(i)
		}
		defer func() {
			for _, c := range jobs {
				close(c)
			}
		}()
	}
	// phase runs one opcode on every worker's range and waits for all of them.
	phase := func(op parOp, t int) {
		if w == 1 {
			r.runJob(0, parJob{op: op, t: t})
			return
		}
		wg.Add(w)
		for _, c := range jobs {
			c <- parJob{op: op, t: t}
		}
		wg.Wait()
	}

	deliver := func(t int) {
		wb0, mg0 := s.met.WireBytes, s.met.Messages
		sp := e.Trace.Begin(obs.PhaseDeliver, t, -1)
		if CheckVecAliasing {
			// The aliasing verifier keeps cross-round state in append order;
			// the test-only mode takes the sequential delivery (which picks
			// pull or scatter exactly as this one does).
			s.deliver(nil)
		} else {
			pull := !s.queued.Load()
			if !pull {
				r.parScatter(t, phase)
			}
			// Merge the metric partials in worker order (they are integer
			// sums, so any order would do — worker order keeps it obviously
			// deterministic) and close the round as the sequential deliver
			// does.
			for i := range r.ws {
				ws := &r.ws[i]
				s.account(ws.msgs, ws.words, ws.wire)
				ws.msgs, ws.words, ws.wire = 0, 0, 0
			}
			// In a pull round the partials are the slots' alone.
			s.endDelivery(pull, s.met.Messages-mg0)
		}
		sp.EndN(s.met.WireBytes-wb0, s.met.Messages-mg0)
	}

	phase(opStep, 0)
	deliver(0)
	rounds := 0
	for t := 1; t <= maxRounds && s.alive > 0; t++ {
		rounds = t
		phase(opStep, t)
		deliver(t)
	}
	if e.Stats != nil {
		*e.Stats = ParStats{Workers: w}
	}
	return s.finish(rounds)
}

// runJob executes one phase of one worker's schedule.
func (r *parRun) runJob(i int, jb parJob) {
	s, ws := r.s, &r.ws[i]
	switch jb.op {
	case opStep:
		r.stepRange(i, jb.t)
		if !CheckVecAliasing { // else the sequential deliver prices them
			ws.msgs, ws.words, ws.wire = s.priceSlots(ws.lo, ws.hi)
		}
	case opCount:
		n := len(s.ctxs)
		row := r.cnt[i*n : (i+1)*n]
		clear(row)
		s.countSends(ws.lo, ws.hi, row)
	case opFill:
		n := len(s.ctxs)
		msgs, words, wire := s.fillSends(ws.lo, ws.hi, r.cur[i*n:(i+1)*n], nil)
		ws.msgs, ws.words, ws.wire = ws.msgs+msgs, ws.words+words, ws.wire+wire
	}
}

// stepRange runs the hooks of worker i's live, wakeful nodes for round t —
// sim.step per node, exactly what Driver.StepRange runs — under the worker's
// step span, whose count is the hooks run.
func (r *parRun) stepRange(i, t int) {
	ws := &r.ws[i]
	sp := r.e.Trace.Begin(obs.PhaseStep, t, i)
	stepped := 0
	for v := ws.lo; v < ws.hi; v++ {
		if r.s.step(v, t, &ws.buf) {
			stepped++
		}
	}
	sp.EndN(0, int64(stepped))
}

// parScatter is the pool's scatter, for rounds in which some hook queued a
// send: parallel count, coordinator prefix, parallel fill. The inbox layout
// it produces is byte-identical to sim.scatter's: receiver v's inbox holds
// range-0 senders' messages first, then range-1's, and so on — which, ranges
// being contiguous ascending ID blocks, is exactly "ascending sender ID,
// ties in send order".
func (r *parRun) parScatter(t int, phase func(parOp, int)) {
	s, w := r.s, r.w
	n := len(s.ctxs)
	if r.cnt == nil {
		r.cnt = make([]int32, w*n)
		r.cur = make([]int32, w*n)
	}
	phase(opCount, t)
	// Prefix pass (coordinator): walk receivers in ascending ID and, within
	// one receiver, workers in ascending index, assigning each (worker,
	// receiver) cell its start cursor.
	total := int32(0)
	for v := 0; v < n; v++ {
		s.inboxOff[v] = total
		for base := v; base < w*n; base += n {
			r.cur[base] = total
			total += r.cnt[base]
		}
	}
	s.inboxOff[n] = total
	s.sizeArena(total)
	phase(opFill, t)
}
