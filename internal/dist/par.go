package dist

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"distkcore/internal/graph"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
)

// ParEngine is the shared-memory parallel engine: a pool of W workers
// (default runtime.GOMAXPROCS(0)) of which the goroutine that called Run is
// worker 0, so a phase costs the coordinator one hand-off — an atomic
// generation bump the other W − 1 workers are already watching — and its own
// share of the work overlaps their pick-up. A broadcast-only round is one
// such phase: every worker pulls blocks of parChunk node IDs off one shared
// cursor, steps each block's hooks — gathering every inbox from the senders'
// slots into its own buffer — and prices the slots the block wrote; the
// coordinator joins, merges the metric partials and, when few spoke, lists
// the speakers per receiver (sim.listSpeakers) before it publishes the next
// round. A round in which any hook queued a send adds the scatter as two more
// phases — count (each worker counts its senders' messages per receiver) and
// fill (each worker writes its senders' messages into precomputed disjoint
// cells of the shared inbox arena) — with the prefix offsets and arena sizing
// run by the coordinator in between. Those two phases, and only those, run
// over one contiguous range per worker: because the ranges are contiguous
// and ascending, "fill per worker" IS the deterministic global fill order of
// the package (ascending sender ID, ties in send order). A step phase needs
// no such order — any cover of [0, n) by disjoint blocks between two barriers
// runs every due hook once on the same inbox, and a gathered inbox is in
// Peers order whoever gathers it — so executions — values, inbox orders,
// Metrics — are byte-identical to SeqEngine's whichever worker took which
// block (DESIGN.md §12 has the argument and the barrier's; the pinned metrics
// rows and the dist equivalence tests hold the engine to it).
//
// The zero value is ready to use and runs with GOMAXPROCS workers; W == 1
// (or a single-CPU machine) runs the whole schedule inline on the calling
// goroutine — no goroutine, no waiting. Lam and Trace are as in SeqEngine,
// except that step spans are per worker (round, worker) rather than one
// whole-wave span: worker 0's runs from the hand-off to the join and carries
// the round's hook count, the others carry their time alone — who took how
// many blocks is the scheduler's business, not the execution's. Deliver spans
// are per round, identical to seq's. Stats, when non-nil, receives the pool
// ledger of each Run.
type ParEngine struct {
	// W is the worker count; <= 0 means runtime.GOMAXPROCS(0). The count is
	// capped at the node count.
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
	// reads it (dist.fused_node_rounds) is retired — ROADMAP item 9a.
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

// parChunk is how many consecutive node IDs a worker takes off the step
// phase's cursor at a time. The block is the unit of imbalance — the first 128
// nodes of BarabasiAlbert(2 000, 4, 1) hold 25 % of its arcs, the first 256
// hold 35 % — and of cache traffic, small blocks interleaving the cores' slot
// and state lines. Swept over {16, 32, 64, 128, 256, 512} with interleaved
// scratch builds (DESIGN.md §12.1 has the table): coreness-par's op_p50_ms at
// n = 2 000, W = 2 read 2.83, 2.60, 2.44, 2.38, 2.35, 2.49 ms against the
// channel pool's 3.01, and at n = 32 000 everything from 64 up is level and
// 16 is 10 % behind the channel pool. 128 is the smaller of the two sizes on
// the flat part: at 256 one block outweighs a worker's share from W = 3 on.
const parChunk = 128

// parSpin is how many times a waiter yields (runtime.Gosched) on its
// condition before it parks on its channel. A yield with nothing else to run
// is 0.11–0.15 µs on the host the sweep ran on, so 200 keeps a waiter hot for
// ≈ 28 µs — across all but one deliver of a coreness run at n = 2 000 and
// across the slower worker's tail of a step phase — and parks it before a
// long serial section (a scatter's prefix pass at n = 10⁶, a stalled hook, a
// host with fewer Ps than workers, other pools under t.Parallel()) has cost
// a core more than that. Swept over {0, 20, 200, 500, 1 000, 2 000}
// (DESIGN.md §12.1): op_p50_ms 3.18, 2.85, 2.44, —, 2.37, 2.37 on a quiet
// host with cpu_ms_per_op flat from 200 up, no order among 200–2 000 on a
// loaded one, no effect at n = 32 000; 0 is a futex wake-up per phase, the
// channel pool again. 200 is the smallest bound on the flat part, and
// smallest matters where the CPU quota is below GOMAXPROCS and a spinning
// worker competes with the coordinator's thread.
const parSpin = 200

// parOp is a phase opcode of the pool.
type parOp uint8

const (
	opStep parOp = iota
	opCount
	opFill
)

// parWaiter is one side's way to wait for the other without costing a
// wake-up when the wait is short: yield parSpin times on the condition, then
// park. Parking is the flag-then-recheck handshake: the waiter sets parked,
// looks at the condition once more and only then blocks; the side that makes
// the condition true does so first and looks at parked afterwards (rouse).
// Both accesses are sequentially consistent, so at least one of the two sees
// the other's write and no wake-up is lost; whoever swaps the flag back owns
// the wake-up, so a token is sent exactly when somebody is there (or about to
// be) to take it and the channel is empty again before the next park.
type parWaiter struct {
	parked atomic.Bool
	wake   chan struct{}
}

// await returns once ready reports true.
func (p *parWaiter) await(ready func() bool) {
	for {
		for i := 0; i < parSpin; i++ {
			if ready() {
				return
			}
			runtime.Gosched()
		}
		p.parked.Store(true)
		if ready() {
			if !p.parked.CompareAndSwap(true, false) {
				<-p.wake // the other side saw the flag first: its token is ours
			}
			return
		}
		// A token may also be one a slow rouser owed an earlier wait that
		// returned by yielding (the coordinator's join can); hence the loop.
		<-p.wake
	}
}

// rouse wakes the waiter if it is parked. Call it after making its condition
// true, never before.
func (p *parWaiter) rouse() {
	if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
	}
}

// parWorker is the per-worker state of one run. Everything but the waiter is
// owned by exactly one goroutine during a phase and read by the coordinator
// only after the join, so none of it needs locking.
type parWorker struct {
	parWaiter
	// lo, hi is the worker's contiguous sender range [lo, hi) in the count
	// and fill phases, cut by the first scatter.
	lo, hi int
	// buf is the worker's gather buffer (sim.inbox), borrowed from gatherBufs
	// for the run.
	buf *[]Message
	// stepped is the number of hooks the worker ran in the last step phase.
	stepped int64
	// msgs/words/wire are the worker's metric partials for one round — the
	// slots of the blocks it stepped, priced block by block, plus its range's
	// queued sends, priced by the fill phase — merged by the coordinator.
	msgs, words, wire int64
}

// parRun is the schedule state shared by the coordinator and the pool.
type parRun struct {
	e  ParEngine
	s  *sim
	w  int
	ws []parWorker // ws[0] is the coordinator's

	// The phase on offer. op and t are written by the coordinator before it
	// bumps gen and read by a worker after it has seen the bump; every worker
	// is waiting on gen whenever they are written, since the coordinator
	// joins a phase (pending back to 0) before it publishes the next. stop
	// is teardown's, which may come while a phase is still running.
	op      parOp
	t       int
	gen     atomic.Uint32
	stop    atomic.Bool
	pending atomic.Int32   // workers 1..w-1 that have not finished the phase
	cursor  atomic.Int64   // first node of the step phase nobody has taken
	exited  sync.WaitGroup // the workers' goroutines

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
	r.ws[0].buf = gatherBufs.Get().(*[]Message)
	// The pool: W − 1 goroutines beside this one. The single deferred
	// teardown owns their lifetime on every exit path — the normal end, an
	// early halt, a panic unwinding out of the coordinator's share of a
	// phase — and returns once they have all exited. w == 1 starts none.
	if w > 1 {
		r.ws[0].wake = make(chan struct{}, 1)
		r.exited.Add(w - 1)
		for i := 1; i < w; i++ {
			r.ws[i].wake = make(chan struct{}, 1)
			go r.work(i)
		}
	}
	defer func() {
		r.stop.Store(true)
		r.publish()
		r.exited.Wait()
		gatherBufs.Put(r.ws[0].buf)
	}()

	step := func(t int) {
		sp := e.Trace.Begin(obs.PhaseStep, t, 0)
		r.phase(opStep, t)
		stepped := int64(0)
		for i := range r.ws {
			stepped += r.ws[i].stepped
		}
		sp.EndN(0, stepped)
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
				r.parScatter(t)
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

	step(0)
	deliver(0)
	rounds := 0
	for t := 1; t <= maxRounds && s.alive > 0; t++ {
		rounds = t
		step(t)
		deliver(t)
	}
	if e.Stats != nil {
		*e.Stats = ParStats{Workers: w}
	}
	return s.finish(rounds)
}

// publish makes what the coordinator has written — a phase's job fields, or
// stop — the workers' next generation: the bump first, then a wake-up for
// exactly the workers that had parked.
func (r *parRun) publish() {
	r.gen.Add(1)
	for i := 1; i < r.w; i++ {
		r.ws[i].rouse()
	}
}

// phase runs one opcode on every worker and returns when all of them are
// done: publish, do worker 0's share, join.
func (r *parRun) phase(op parOp, t int) {
	if op == opStep {
		r.cursor.Store(0)
	}
	if r.w == 1 {
		r.runJob(0, op, t)
		return
	}
	r.op, r.t = op, t
	r.pending.Store(int32(r.w - 1))
	r.publish()
	r.runJob(0, op, t)
	r.ws[0].await(func() bool { return r.pending.Load() == 0 })
}

// work is the life of worker i > 0: wait for a generation it has not seen,
// leave if it is the last one, else run its share and report to the join —
// whoever finishes last wakes the coordinator if it has parked.
func (r *parRun) work(i int) {
	defer r.exited.Done()
	ws := &r.ws[i]
	ws.buf = gatherBufs.Get().(*[]Message)
	defer gatherBufs.Put(ws.buf)
	for seen := uint32(0); ; seen++ { // a generation is one phase, or the end
		ws.await(func() bool { return r.gen.Load() != seen })
		if r.stop.Load() {
			return
		}
		r.runJob(i, r.op, r.t)
		if r.pending.Add(-1) == 0 {
			r.ws[0].rouse()
		}
	}
}

// runJob executes worker i's share of one phase.
func (r *parRun) runJob(i int, op parOp, t int) {
	s, ws := r.s, &r.ws[i]
	switch op {
	case opStep:
		var sp obs.SpanRef // worker 0 is inside the coordinator's, which outlasts the join
		if i > 0 {
			sp = r.e.Trace.Begin(obs.PhaseStep, t, i)
		}
		r.stepChunks(ws, t)
		sp.End()
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

// stepChunks is one worker's step phase: take the next parChunk nodes off the
// round's cursor until there are none, run the hooks of each block's live,
// wakeful nodes — sim.step per node, exactly what Driver.StepRange runs — and
// price the slots the block wrote.
func (r *parRun) stepChunks(ws *parWorker, t int) {
	s := r.s
	n := len(s.ctxs)
	var stepped, msgs, words, wire int64
	for {
		hi := int(r.cursor.Add(parChunk))
		lo := hi - parChunk
		if lo >= n {
			break
		}
		hi = min(hi, n)
		for v := lo; v < hi; v++ {
			if s.step(v, t, ws.buf) {
				stepped++
			}
		}
		if !CheckVecAliasing { // else the sequential deliver prices them
			_, m, wd, wi := s.priceSlots(lo, hi)
			msgs, words, wire = msgs+m, words+wd, wire+wi
		}
	}
	ws.stepped, ws.msgs, ws.words, ws.wire = stepped, msgs, words, wire
}

// parScatter is the pool's scatter, for rounds in which some hook queued a
// send: parallel count, coordinator prefix, parallel fill. The inbox layout
// it produces is byte-identical to sim.scatter's: receiver v's inbox holds
// range-0 senders' messages first, then range-1's, and so on — which, ranges
// being contiguous ascending ID blocks, is exactly "ascending sender ID,
// ties in send order".
func (r *parRun) parScatter(t int) {
	s, w := r.s, r.w
	n := len(s.ctxs)
	if r.cnt == nil {
		r.cnt = make([]int32, w*n)
		r.cur = make([]int32, w*n)
		// The ranges: equal shares of the arcs, found on the CSR offsets (a
		// sender's count and fill cost its fan-out). One may be empty.
		arcs := s.g.ArcOffset(n)
		for i := 1; i < w; i++ {
			cut := sort.Search(n, func(v int) bool { return s.g.ArcOffset(v)*w >= arcs*i })
			r.ws[i-1].hi, r.ws[i].lo = cut, cut
		}
		r.ws[w-1].hi = n
	}
	r.phase(opCount, t)
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
	r.phase(opFill, t)
}
