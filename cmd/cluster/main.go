// Command cluster runs a protocol as a real multi-process cluster: one
// coordinator process plus P worker processes, each owning one shard of
// the graph, connected by unix-domain or TCP sockets and speaking the wire
// protocol of internal/net (DESIGN.md §8). The execution — results and
// dist.Metrics — is byte-identical to the single-process sequential
// engine, which -verify checks on the spot.
//
// Start workers first (each listens for exactly one coordinator
// connection), then the coordinator:
//
//	cluster worker -listen unix:/tmp/dkc-w0.sock
//	cluster worker -listen unix:/tmp/dkc-w1.sock
//	cluster coord -workers unix:/tmp/dkc-w0.sock,unix:/tmp/dkc-w1.sock \
//	    -gen ba -n 10000 -seed 7 -eps 0.5 -part greedy -verify
//
// or let the coordinator spawn its own workers over sockets in a temp
// directory (what the CI smoke job runs):
//
//	cluster coord -spawn 4 -gen ba -n 10000 -seed 7 -verify
//
// The coordinator ships only the run *description* — a generator spec,
// the partitioner name, the protocol spec, Λ — and 64-bit digests of the
// graph and the partition; every worker rebuilds the inputs locally and
// the handshake refuses to run unless all digests agree. TCP listeners work
// the same way (-listen tcp:127.0.0.1:7001), but the protocol has no
// authentication or encryption: keep it on localhost or a trusted link.
//
// With -stream (unix sockets only) round frames travel directly
// worker↔worker over a full mesh of data sockets at <control path>.mesh,
// and the peers' end markers close a round, while the coordinator shrinks to
// a digest-matrix verifier that follows behind (DESIGN.md §8.4, §14). The
// execution, ledger included, stays byte-identical. The senders on the mesh
// retain their flows, and with -spawn a dead worker is re-exec'd and runs
// again on them (DESIGN.md §13); a relayed or -workers run fails on a death. A
// worker keeps its mesh until the coordinator hangs up, before it reaps them.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"distkcore/internal/cliutil"
	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	dnet "distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
	"distkcore/internal/session"
	"distkcore/internal/shard"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "worker":
		runWorker(os.Args[2:])
	case "coord":
		runCoord(os.Args[2:])
	case "serve":
		runServe(os.Args[2:])
	case "push":
		runPush(os.Args[2:])
	case "sub":
		runSub(os.Args[2:])
	case "stat":
		runStat(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cluster worker -listen unix:/path.sock|tcp:host:port
  cluster coord  (-workers addr,addr,... | -spawn P) -gen ba -n 10000 [-seed S] [-eps E | -T T] [-lambda L] [-part NAME] [-stream] [-kill W:R] [-verify] [-json FILE] [-trace FILE]
  cluster serve  (-workers addr,addr,... | -spawn P) -control unix:/path.sock -gen ba -n 10000 [-seed S] [-eps E | -T T] [-part NAME] [-trace FILE] [-debug-addr host:port]
  cluster push   -connect unix:/path.sock -gen ba -n 10000 [-seed S] [-eps E | -T T] -epochs E [-ops N] [-churnseed S] [-budget M] [-verify] [-shutdown]
  cluster sub    -connect unix:/path.sock -topics coreness:5,topk:3 [-count N]
  cluster stat   -connect unix:/path.sock`)
	os.Exit(2)
}

// graphFlags declares on fs the flags that name the generated graph a command
// runs on and its round budget — -gen -n -seed, and -eps or -T — with note
// ending each usage line. The load it returns, called after fs.Parse, builds
// the graph and resolves T: -T when set, else ε's.
func graphFlags(fs *flag.FlagSet, note string) (load func() (spec string, g *graph.Graph, T int)) {
	gen := fs.String("gen", "ba", "graph generator (ba, er, rmat, grid, caveman, planted)"+note)
	n := fs.Int("n", 10000, "node count"+note)
	seed := fs.Int64("seed", 7, "generator seed"+note)
	eps := fs.Float64("eps", 0.5, "approximation parameter (sets T = ceil(log_{1+eps} n))"+note)
	tFlag := fs.Int("T", 0, "explicit round budget (overrides -eps)"+note)
	return func() (string, *graph.Graph, int) {
		spec := cliutil.GraphSpec(*gen, *n, *seed)
		g, err := cliutil.LoadGraphSpec(spec)
		if err != nil {
			fatal(err)
		}
		T := *tFlag
		if T <= 0 {
			T = core.TForEpsilon(g.N(), *eps)
		}
		return spec, g, T
	}
}

// splitAddr parses "unix:/path" or "tcp:host:port" into a (network,
// address) pair for net.Listen / net.Dial.
func splitAddr(s string) (network, addr string, err error) {
	switch {
	case strings.HasPrefix(s, "unix:"):
		return "unix", strings.TrimPrefix(s, "unix:"), nil
	case strings.HasPrefix(s, "tcp:"):
		return "tcp", strings.TrimPrefix(s, "tcp:"), nil
	default:
		return "", "", fmt.Errorf("bad address %q (want unix:/path or tcp:host:port)", s)
	}
}

// runWorker serves exactly one coordinator: accept it, resolve the inputs its
// hello describes and, as this shard, either run the protocol, ship the local
// result values and exit once the coordinator hangs up, or — a session's
// hello — serve its epochs until the goodbye.
func runWorker(args []string) {
	fs := flag.NewFlagSet("cluster worker", flag.ExitOnError)
	listen := fs.String("listen", "unix:/tmp/dkc-worker.sock", "address to await the coordinator on")
	meshGen := fs.Int("mesh-gen", 0, "mesh incarnation number for streamed respawns (set by the coordinator's respawn path, not by hand)")
	fs.Parse(args)

	network, addr, err := splitAddr(*listen)
	if err != nil {
		fatal(err)
	}
	if network == "unix" {
		os.Remove(addr) // a stale socket file from a previous run refuses the Listen
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		fatal(err)
	}
	defer ln.Close()
	nc, err := ln.Accept()
	if err != nil {
		fatal(err)
	}
	c := dnet.NewConn(nc)
	defer c.Close()

	// Worker.Run panics on protocol violations (its engine interface has no
	// error channel); surface those as an exit status, not a stack trace.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintln(os.Stderr, "cluster worker:", r)
			os.Exit(1)
		}
	}()

	h, err := dnet.ReadHello(c)
	if err != nil {
		fatal(err)
	}
	g, err := cliutil.LoadGraphSpec(h.GraphSpec)
	if err != nil {
		fatalTell(c, err)
	}
	part, err := cliutil.ParsePartitioner(h.PartName)
	if err != nil {
		fatalTell(c, err)
	}
	lam, err := dnet.LambdaFromHello(h)
	if err != nil {
		fatalTell(c, err)
	}
	proto, T, err := parseProto(h.ProtoSpec)
	if err != nil {
		fatalTell(c, err)
	}
	assign := part.Partition(g, h.P)
	if proto == "session" {
		// Session worker: build the oracle, answer the hello with epoch 0's
		// reconverge and every DeltaPush with the next until the coordinator
		// says goodbye — the same life an in-process session worker leads.
		ws, err := session.NewWorkerState(c, g, assign, h.Shard, h.P, T, part)
		if err == nil {
			err = ws.Serve(h)
		}
		if err != nil {
			fatalTell(c, err)
		}
		fmt.Printf("cluster worker: shard %d/%d session closed after epoch %d (chain %#x)\n",
			h.Shard, h.P, ws.Epoch(), ws.ChainDigest())
		return
	}
	w := dnet.NewWorker(c, g, assign)
	w.Hello = h

	// Streamed delivery (DESIGN.md §14): the hello carries every shard's
	// mesh endpoint; this worker binds its own (stable across respawns, so
	// peers always dial the same per-shard address) and hands raw dial and
	// accept closures to the mesh — link identity travels in the mesh hello
	// record, not in the address.
	if h.Stream {
		maddrs := strings.Split(h.MeshSpec, ",")
		if len(maddrs) != h.P {
			fatalTell(c, fmt.Errorf("mesh spec names %d endpoints for %d workers", len(maddrs), h.P))
		}
		network, maddr, err := splitAddr(maddrs[h.Shard])
		if err != nil {
			fatalTell(c, err)
		}
		if network != "unix" {
			fatalTell(c, fmt.Errorf("streamed delivery needs unix mesh sockets, got %q", maddrs[h.Shard]))
		}
		os.Remove(maddr) // a respawn rebinds the dead incarnation's address
		mln, err := net.Listen(network, maddr)
		if err != nil {
			fatalTell(c, err)
		}
		defer mln.Close()
		w.MeshDial = func(dst int) (net.Conn, error) {
			nw, a, err := splitAddr(maddrs[dst])
			if err != nil {
				return nil, err
			}
			return net.Dial(nw, a)
		}
		w.MeshAccept = mln.Accept
		w.MeshClose = func() { mln.Close() }
		w.MeshGen = *meshGen
	}

	// The worker side of the protocol is just core.RunDistributed with the
	// Worker as its engine — the same driver stack every other engine runs
	// under, which is the point: nothing protocol-specific lives here.
	res, met := core.RunDistributed(g, core.Options{Rounds: T, Lambda: lam}, w)
	if h.WantValues {
		if err := w.SendValues(res.B); err != nil {
			fatal(err)
		}
	}
	local := 0
	for _, s := range assign {
		if s == h.Shard {
			local++
		}
	}
	fmt.Printf("cluster worker: shard %d/%d done: %d of %d nodes, local share %d msgs / %d wire bytes, %d rounds\n",
		h.Shard, h.P, local, g.N(), met.Messages, met.WireBytes, met.Rounds)
	c.AwaitRecord() // the hang-up: a streamed worker's mesh serves a peer's successor until then
}

// parseProto resolves the handshake's protocol spec: a run of the coreness
// elimination ("coreness:T") or a session on its oracle ("session:T"); the
// weak-densest pipeline can slot in the same way once a deployment needs it.
func parseProto(spec string) (proto string, T int, err error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 2 || parts[0] != "coreness" && parts[0] != "session" {
		return "", 0, fmt.Errorf("unknown protocol spec %q (want coreness:T or session:T)", spec)
	}
	if T, err = strconv.Atoi(parts[1]); err != nil || T < 1 {
		return "", 0, fmt.Errorf("bad round budget in protocol spec %q", spec)
	}
	return parts[0], T, nil
}

func runCoord(args []string) {
	fs := flag.NewFlagSet("cluster coord", flag.ExitOnError)
	var (
		workers  = fs.String("workers", "", "comma-separated worker addresses (unix:/path or tcp:host:port)")
		spawn    = fs.Int("spawn", 0, "spawn P worker subprocesses over unix sockets instead of dialing -workers")
		load     = graphFlags(fs, "")
		lambda   = fs.Float64("lambda", 0, "quantize transmitted values to powers of (1+lambda); 0 means Λ = ℝ")
		partN    = fs.String("part", "greedy", "partitioner: hash, range or greedy")
		verify   = fs.Bool("verify", false, "run the sequential engine locally and demand byte-identical Metrics and values")
		stream   = fs.Bool("stream", false, "stream round frames directly worker↔worker over a unix-socket mesh (DESIGN.md §14) instead of relaying every frame through the coordinator; with -spawn a dead worker is re-exec'd and runs again on its peers' retained flows (DESIGN.md §13)")
		killSpec = fs.String("kill", "", "W:R — SIGKILL spawned worker W when its done record of round R reaches the coordinator (with -stream: wherever the free-running worker has got to by then), the fault-injection half of the recovery smoke (requires -spawn)")
		jsonOut  = fs.String("json", "", "write a JSON run report to this file")
		traceOut = fs.String("trace", "", cliutil.TraceUsage)
	)
	fs.Parse(args)

	spec, g, T := load()
	part, err := cliutil.ParsePartitioner(*partN)
	if err != nil {
		fatal(err)
	}
	var lam quantize.Lambda
	if *lambda > 0 {
		lam = quantize.NewPowerGrid(*lambda)
	}
	killW, killR, err := parseKillSpec(*killSpec)
	if err != nil {
		fatal(err)
	}
	if *killSpec != "" && *spawn <= 0 {
		fatal(fmt.Errorf("-kill only works with -spawn (the coordinator must own the worker processes)"))
	}

	// A streamed run over workers the coordinator spawned recovers: it can
	// re-exec a dead one.
	recoverable := *stream && *spawn > 0
	var timeout time.Duration
	if recoverable {
		// Deadlines on every conn: a run that can survive deaths must detect
		// them as timeouts, never block forever on one.
		timeout = 30 * time.Second
	}
	var f fleet
	if *killSpec != "" {
		f.kill = &killTap{w: killW, r: killR}
	}
	runErr := func() error {
		if err := f.open(*workers, *spawn, timeout); err != nil {
			return err
		}
		p := len(f.addrs)
		if *killSpec != "" && killW >= p {
			return fmt.Errorf("-kill worker %d of %d", killW, p)
		}
		// Mesh endpoints derive from the control sockets: shard i's data
		// plane lives at <control path>.mesh, stable across respawns.
		var meshSpec string
		if *stream {
			ms := make([]string, 0, p)
			for _, a := range f.addrs {
				network, path, err := splitAddr(a)
				if err != nil {
					return err
				}
				if network != "unix" {
					return fmt.Errorf("-stream derives mesh endpoints from unix control sockets; %q is not one", a)
				}
				ms = append(ms, "unix:"+path+".mesh")
			}
			meshSpec = strings.Join(ms, ",")
		}
		assign, err := shard.Place(part, g, p)
		if err != nil {
			return err
		}

		// The tracer sees the coordinator's side only — barrier waits, frame
		// relays and the funnel's flow matrix; worker timelines live in the
		// worker processes.
		var tracer *obs.Tracer
		if *traceOut != "" {
			tracer = obs.NewTracer()
		}
		rspec := dnet.Spec{
			P:          p,
			MaxRounds:  T,
			Lam:        lam,
			GraphHash:  g.Fingerprint(),
			PartDigest: shard.PartitionDigest(assign),
			GraphSpec:  spec,
			PartName:   part.Name(),
			ProtoSpec:  fmt.Sprintf("coreness:%d", T),
			WantValues: true,
			Trace:      tracer,
			Stream:     *stream,
			MeshSpec:   meshSpec,
			IOTimeout:  timeout,
		}
		if recoverable {
			rspec.Respawn = f.respawn
		}
		start := time.Now()
		met, rep, err := dnet.RunCoordinator(f.conns, rspec)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		f.hangUp()
		if err := f.reap(); err != nil {
			return err
		}
		rep.Sharding.EdgeCutFraction = shard.CutFraction(g, assign)
		b, err := rep.Assemble(g.N())
		if err != nil {
			return err
		}

		fmt.Printf("cluster: %s over %d workers (%s), T=%d: %v\n", spec, p, part.Name(), T, elapsed.Round(time.Millisecond))
		fmt.Printf("  metrics: rounds=%d messages=%d words=%d wireBytes=%d halted=%v\n",
			met.Rounds, met.Messages, met.Words, met.WireBytes, met.Halted)
		sm := rep.Sharding
		fmt.Printf("  cluster: cut=%.3f crossMsgs=%d frameBytes=%d maxShardBytes=%d\n",
			sm.EdgeCutFraction, sm.CrossMessages, sm.CrossFrameBytes, sm.MaxShardBytes)
		if *stream && len(rep.StreamWire) > 0 {
			var tot, busiest, chunks int64
			for _, sw := range rep.StreamWire {
				tot += sw.Sent
				chunks += sw.Chunks
				busiest = max(busiest, sw.Sent)
			}
			fmt.Printf("  stream: per-worker wire max=%d total=%d chunks=%d\n", busiest, tot, chunks)
		}

		verified := false
		if *verify {
			ref, refMet := core.RunDistributed(g, core.Options{Rounds: T, Lambda: lam}, dist.SeqEngine{})
			if met != refMet {
				return fmt.Errorf("METRICS DIVERGE from sequential engine:\n  cluster %+v\n  seq     %+v", met, refMet)
			}
			for v := range b {
				if math.Float64bits(b[v]) != math.Float64bits(ref.B[v]) {
					return fmt.Errorf("VALUE DIVERGES at node %d: cluster %v, seq %v", v, b[v], ref.B[v])
				}
			}
			verified = true
			fmt.Println("  verify: Metrics and all surviving numbers byte-identical to the sequential engine ✓")
		}

		if err := cliutil.WriteTrace(*traceOut, tracer); err != nil {
			return err
		}
		return writeReport(*jsonOut, spec, p, part.Name(), T, met, sm, verified, elapsed, tracer)
	}()
	f.close()
	if runErr != nil {
		fatal(runErr)
	}
}

// fleet is the worker side of a coordinating command (coord, serve) as the
// coordinator process sees it: the worker addresses, one connection to each
// and — under -spawn — the worker processes it started and must not strand.
// open, respawn, reap and close are the whole life; every step returns its
// error instead of exiting, so close always runs.
type fleet struct {
	addrs []string
	conns []*dnet.Conn
	procs []*exec.Cmd
	dir   string
	// timeout is installed on every connection, respawned ones included.
	timeout time.Duration
	// kill, under -kill, watches its worker's first connection; killed marks
	// the process it is armed to SIGKILL — whose non-zero exit is the point.
	kill   *killTap
	killed map[*exec.Cmd]bool
}

// open resolves the worker set — spawn > 0 starts that many worker
// subprocesses on unix sockets in a fresh temp directory, otherwise workers
// is a comma-separated address list — and dials every worker.
func (f *fleet) open(workers string, spawn int, timeout time.Duration) error {
	f.timeout, f.killed = timeout, map[*exec.Cmd]bool{}
	switch {
	case spawn > 0:
		var err error
		if f.dir, err = os.MkdirTemp("", "dkc-cluster-"); err != nil {
			return err
		}
		for i := 0; i < spawn; i++ {
			a := fmt.Sprintf("unix:%s", filepath.Join(f.dir, fmt.Sprintf("w%d.sock", i)))
			if err := f.spawn(a); err != nil {
				return err
			}
			f.addrs = append(f.addrs, a)
		}
	case workers != "":
		f.addrs = strings.Split(workers, ",")
	default:
		return fmt.Errorf("need -workers or -spawn")
	}
	for i, a := range f.addrs {
		cn, err := f.dial(a, i)
		if err != nil {
			return fmt.Errorf("worker %d at %s: %w", i, a, err)
		}
		f.conns = append(f.conns, cn)
	}
	return nil
}

// spawn starts one worker subprocess listening on a.
func (f *fleet) spawn(a string, extra ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args := append([]string{"worker", "-listen", a}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	f.procs = append(f.procs, cmd)
	return nil
}

// dial connects to worker i at a (retrying while it binds its listener) and
// arms the fleet's IO timeout; -kill watches its worker's first connection.
func (f *fleet) dial(a string, i int) (*dnet.Conn, error) {
	network, addr, err := splitAddr(a)
	if err != nil {
		return nil, err
	}
	nc, err := dialRetry(network, addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if k := f.kill; k != nil && k.w == i && k.Conn == nil {
		k.Conn, k.cmd = nc, f.procs[i]
		f.killed[k.cmd], nc = true, k
	}
	cn := dnet.NewConn(nc)
	cn.SetIOTimeout(f.timeout)
	return cn, nil
}

// respawn re-execs the worker binary for shard s — incarnation gen, the hub's
// count (dnet.Spec.Respawn) — on a fresh socket in the run directory and dials
// it; the coordinator then re-handshakes and the worker runs the run again on
// the retained flows. The new incarnation is told its generation, which on a
// streamed run lets peers tell its mesh links from the dead one's.
func (f *fleet) respawn(s, gen int) (*dnet.Conn, error) {
	a := fmt.Sprintf("unix:%s", filepath.Join(f.dir, fmt.Sprintf("w%d-r%d.sock", s, gen)))
	if err := f.spawn(a, "-mesh-gen", strconv.Itoa(gen)); err != nil {
		return nil, err
	}
	cn, err := f.dial(a, s)
	if err != nil {
		return nil, fmt.Errorf("respawned worker %d at %s: %w", s, a, err)
	}
	fmt.Printf("cluster: respawned worker %d on %s\n", s, a)
	return cn, nil
}

// killTap is -kill W:R on the coordinator's connection to spawned worker W:
// it SIGKILLs the process as W's done record of round R arrives.
type killTap struct {
	net.Conn
	w, r int
	cmd  *exec.Cmd // nil once fired
	buf  []byte    // what has arrived of the record in flight
}

// The record types of internal/net's wire whose body opens with the round
// (DESIGN.md §8.2): the relayed and the streamed done record.
const recDone, recStreamDone = 5, 23

func (k *killTap) Read(p []byte) (int, error) {
	n, err := k.Conn.Read(p)
	for k.buf = append(k.buf, p[:n]...); k.cmd != nil; {
		size, m := binary.Uvarint(k.buf)
		if end := m + int(size); m <= 0 || size == 0 || end > len(k.buf) {
			return n, err
		}
		rec := k.buf[m : m+int(size)]
		k.buf = k.buf[m+int(size):]
		if t, j := binary.Uvarint(rec[1:]); j > 0 && int(t) == k.r && (rec[0] == recDone || rec[0] == recStreamDone) {
			k.cmd.Process.Kill()
			fmt.Printf("cluster: SIGKILLed worker %d at round %d\n", k.w, k.r)
			k.cmd = nil
		}
	}
	k.buf = nil
	return n, err
}

// hangUp closes the worker connections: a worker exits once it reads the
// hang-up, which it waits for to keep its mesh up for a peer's successor.
func (f *fleet) hangUp() {
	for _, c := range f.conns {
		c.Close()
	}
}

// reap waits for the spawned workers to exit by themselves; an exit status
// this harness did not cause is an error (the rest stay for close to kill).
func (f *fleet) reap() error {
	for len(f.procs) > 0 {
		cmd := f.procs[0]
		f.procs = f.procs[1:]
		if err := cmd.Wait(); err != nil && !f.killed[cmd] {
			return fmt.Errorf("worker process: %w", err)
		}
	}
	return nil
}

// close releases whatever is still held: connections, unreaped worker
// processes (killed), the socket directory.
func (f *fleet) close() {
	f.hangUp()
	for _, cmd := range f.procs {
		cmd.Process.Kill()
		cmd.Wait()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// writeReport writes the optional JSON run report (obs.RunReport).
func writeReport(path, spec string, p int, part string, T int, met dist.Metrics, sm shard.ShardMetrics, verified bool, elapsed time.Duration, tracer *obs.Tracer) error {
	if path == "" {
		return nil
	}
	rep := obs.RunReport{
		Graph:     spec,
		Workers:   p,
		Part:      part,
		Rounds:    T,
		Metrics:   met,
		Sharding:  sm,
		Verified:  verified,
		ElapsedMS: elapsed.Milliseconds(),
	}
	if tracer != nil {
		rep.Phases = tracer.Trace().PhaseTotals()
	}
	return obs.WriteReportFile(path, rep)
}

// parseKillSpec parses the -kill fault spec "W:R" into a worker index and a
// round. Empty means no kill; W and R must be non-negative.
func parseKillSpec(s string) (w, r int, err error) {
	if s == "" {
		return -1, -1, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -kill spec %q (want W:R)", s)
	}
	if w, err = strconv.Atoi(parts[0]); err != nil || w < 0 {
		return 0, 0, fmt.Errorf("bad worker in -kill spec %q", s)
	}
	if r, err = strconv.Atoi(parts[1]); err != nil || r < 0 {
		return 0, 0, fmt.Errorf("bad round in -kill spec %q", s)
	}
	return w, r, nil
}

// dialRetry dials with a retry loop, giving spawned workers time to bind
// their listeners.
func dialRetry(network, addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	for {
		nc, err := net.Dial(network, addr)
		if err == nil {
			return nc, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cluster:", err)
	os.Exit(1)
}

// fatalTell reports a resolution failure to the coordinator (so it aborts
// with the reason instead of a dead connection) and exits.
func fatalTell(c *dnet.Conn, err error) {
	c.SendError(err)
	fatal(err)
}
