package main

import (
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // /debug/pprof on the -debug-addr mux
	"os"
	"strings"
	"time"

	"distkcore/internal/cliutil"
	"distkcore/internal/codec"
	"distkcore/internal/core"
	"distkcore/internal/dist"
	dnet "distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/session"
	"distkcore/internal/shard"
)

// runServe opens a long-lived session (DESIGN.md §10): seal epoch 0 over P
// workers in one hello-and-reconverge exchange, keep the connections hot, and
// expose the epoch protocol to push/sub clients on a control socket. Sessions
// always run Λ = ℝ.
func runServe(args []string) {
	fs := flag.NewFlagSet("cluster serve", flag.ExitOnError)
	var (
		workers   = fs.String("workers", "", "comma-separated worker addresses")
		spawn     = fs.Int("spawn", 0, "spawn P worker subprocesses over unix sockets instead of dialing -workers")
		load      = graphFlags(fs, "")
		partN     = fs.String("part", "greedy", "partitioner: hash, range or greedy")
		control   = fs.String("control", "unix:/tmp/dkc-session.sock", "control address push/sub clients connect to")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-operation IO deadline on worker connections (0 = none)")
		traceOut  = fs.String("trace", "", cliutil.TraceUsage)
		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof and expvar (incl. the live session snapshot) on this address, e.g. 127.0.0.1:6060")
	)
	fs.Parse(args)

	spec, g, T := load()
	part, err := cliutil.ParsePartitioner(*partN)
	if err != nil {
		fatal(err)
	}

	var f fleet
	runErr := func() error {
		if err := f.open(*workers, *spawn, *timeout); err != nil {
			return err
		}
		p := len(f.addrs)
		assign, err := shard.Place(part, g, p)
		if err != nil {
			return err
		}

		// Epoch 0: the hello names the inputs every worker rebuilds and the
		// oracle it builds on them; the reconverges seal it. The tracer (when
		// asked for) spans the whole session life: per-epoch seal/publish
		// spans.
		var tracer *obs.Tracer
		if *traceOut != "" {
			tracer = obs.NewTracer()
		}
		hub := dnet.NewHub(f.conns)
		defer hub.Close()
		hub.Timeout = *timeout
		start := time.Now()
		co, err := session.NewCoordinator(hub, g, spec, assign, part, T, nil)
		if err != nil {
			return err
		}
		co.SetTracer(tracer)
		if *debugAddr != "" {
			// StatView is the lock-free snapshot, safe to read from the HTTP
			// goroutines while the session goroutine pushes epochs.
			expvar.Publish("session", expvar.Func(func() any { return co.StatView() }))
			go func() {
				if err := http.ListenAndServe(*debugAddr, nil); err != nil {
					fmt.Fprintln(os.Stderr, "cluster serve: debug server:", err)
				}
			}()
			fmt.Printf("cluster serve: pprof/expvar on http://%s/debug/\n", *debugAddr)
		}
		fmt.Printf("cluster serve: epoch 0 sealed in %v (%s over %d workers, T=%d, chain %#x)\n",
			time.Since(start).Round(time.Millisecond), spec, p, T, co.ChainDigest())

		network, addr, err := splitAddr(*control)
		if err != nil {
			return err
		}
		if network == "unix" {
			os.Remove(addr)
		}
		ln, err := net.Listen(network, addr)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Printf("cluster serve: control listening on %s\n", *control)
		serveErr := session.Serve(co, ln, func(f string, a ...any) { fmt.Printf(f+"\n", a...) })

		// The trace covers the whole session: every epoch's seal and publish
		// spans, on one clock.
		if err := cliutil.WriteTrace(*traceOut, tracer); err != nil && serveErr == nil {
			serveErr = err
		}

		// Clean goodbye to the workers (best-effort even when serveErr is a
		// broken session — the error record already went out then).
		co.Bye()
		if err := f.reap(); err != nil && serveErr == nil {
			serveErr = err
		}
		return serveErr
	}()
	f.close()
	if runErr != nil {
		fatal(runErr)
	}
	fmt.Println("cluster serve: session closed")
}

// runPush streams delta epochs into a running session server. Each epoch's
// batch is dist.RandomChurn over the client's cumulatively mutated local
// copy of the graph — a pure function of (graph, ops, seed), so -verify can
// demand the receipt's digests match a fresh local sequential run.
func runPush(args []string) {
	fs := flag.NewFlagSet("cluster push", flag.ExitOnError)
	var (
		connect   = fs.String("connect", "unix:/tmp/dkc-session.sock", "session server control address")
		load      = graphFlags(fs, "; must match serve")
		epochs    = fs.Int("epochs", 1, "number of delta epochs to push")
		ops       = fs.Int("ops", 100, "mutations per epoch")
		churnSeed = fs.Int64("churnseed", 1, "base churn seed (epoch e uses churnseed+e)")
		budget    = fs.Int("budget", 0, "rebalance move budget (0 = whole frontier)")
		verify    = fs.Bool("verify", false, "verify each receipt against a fresh local sequential run on the mutated graph")
		shutdown  = fs.Bool("shutdown", false, "ask the server to stop after the last epoch")
	)
	fs.Parse(args)

	_, g, T := load()
	network, addr, err := splitAddr(*connect)
	if err != nil {
		fatal(err)
	}
	nc, err := dialRetry(network, addr, 10*time.Second)
	if err != nil {
		fatal(err)
	}
	c := dnet.NewConn(nc)
	defer c.Close()

	cur := g
	var prevChain uint64
	havePrev := false
	for e := 1; e <= *epochs; e++ {
		d := dist.RandomChurn(cur, *ops, *churnSeed+int64(e))
		if err := c.Send(dnet.RecDeltaPush, session.AppendDeltaPush(nil, 0, *budget, d)); err != nil {
			fatal(err)
		}
		typ, body, err := c.AwaitRecord()
		if err != nil {
			fatal(fmt.Errorf("awaiting receipt: %w", err))
		}
		if typ == dnet.RecError {
			fatal(fmt.Errorf("server: %s", body))
		}
		if typ != dnet.RecValuesDigest {
			fatal(fmt.Errorf("expected stamp receipt, got record type %d", typ))
		}
		st, err := codec.DecodeStamp(body)
		if err != nil {
			fatal(err)
		}
		if cur, err = d.Apply(cur); err != nil {
			fatal(err)
		}
		fmt.Printf("cluster push: epoch %d sealed: ops=%d changed=%d graph=%#x values=%#x chain=%#x\n",
			st.Epoch, d.Len(), st.Changed, st.GraphHash, st.ValuesDigest, st.ChainDigest)
		if *verify {
			// The receipt's graph field is the hash the cluster kept rolling
			// through its in-place mutations; recompute it from scratch here.
			if gh := cur.EdgeSetHash(); st.GraphHash != gh {
				fatal(fmt.Errorf("epoch %d: GRAPH DIVERGES: receipt %#x, local edge-set hash %#x", st.Epoch, st.GraphHash, gh))
			}
			ref, _ := core.RunDistributed(cur, core.Options{Rounds: T}, dist.SeqEngine{})
			if vd := session.ValuesDigest(ref.B); st.ValuesDigest != vd {
				fatal(fmt.Errorf("epoch %d: VALUES DIVERGE: receipt %#x, fresh seq %#x", st.Epoch, st.ValuesDigest, vd))
			}
			if havePrev {
				if want := session.ChainNext(prevChain, st.GraphHash, st.PartDigest, st.ValuesDigest); st.ChainDigest != want {
					fatal(fmt.Errorf("epoch %d: CHAIN BREAKS: receipt %#x, want %#x", st.Epoch, st.ChainDigest, want))
				}
			}
			fmt.Printf("  verify: graph and values digests match a fresh sequential run ✓\n")
		}
		prevChain, havePrev = st.ChainDigest, true
	}
	if *shutdown {
		_ = c.Send(dnet.RecBye, []byte("shutdown"))
	}
}

// runStat queries a running session server for its live counters over the
// control socket (wire record RecStat, DESIGN.md §11) and prints them in a
// stable one-key-per-line form. On a broken session the latched cause —
// epoch, phase and faulting worker — is included, so a dead cluster can be
// diagnosed without grepping server logs.
func runStat(args []string) {
	fs := flag.NewFlagSet("cluster stat", flag.ExitOnError)
	connect := fs.String("connect", "unix:/tmp/dkc-session.sock", "session server control address")
	fs.Parse(args)

	network, addr, err := splitAddr(*connect)
	if err != nil {
		fatal(err)
	}
	nc, err := dialRetry(network, addr, 10*time.Second)
	if err != nil {
		fatal(err)
	}
	c := dnet.NewConn(nc)
	defer c.Close()

	if err := c.Send(dnet.RecStat, nil); err != nil {
		fatal(err)
	}
	typ, body, err := c.AwaitRecord()
	if err != nil {
		fatal(err)
	}
	if typ == dnet.RecError {
		fatal(fmt.Errorf("server: %s", body))
	}
	if typ != dnet.RecStat {
		fatal(fmt.Errorf("expected stat record, got record type %d", typ))
	}
	st, err := codec.DecodeStat(body)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("epoch         %d\n", st.Epoch)
	fmt.Printf("chain         %#x\n", st.ChainDigest)
	fmt.Printf("workers       %d\n", st.Workers)
	fmt.Printf("nodes         %d\n", st.Nodes)
	fmt.Printf("subscribers   %d\n", st.Subscribers)
	fmt.Printf("pushes        %d (rejected %d)\n", st.Pushes, st.Rejected)
	fmt.Printf("changed       %d values over %d delta bytes\n", st.Changed, st.DeltaBytes)
	fmt.Printf("notifications %d\n", st.Notifications)
	fmt.Printf("recoveries    %d\n", st.Recoveries)
	fmt.Printf("epoch time    %s total", time.Duration(st.EpochMicros)*time.Microsecond)
	if st.Pushes > 0 {
		fmt.Printf(" (%s/epoch)", time.Duration(st.EpochMicros/st.Pushes)*time.Microsecond)
	}
	fmt.Println()
	if st.Broken {
		if st.CauseWorker >= 0 {
			fmt.Printf("BROKEN        epoch %d, %s, worker %d: %s\n", st.CauseEpoch, st.CausePhase, st.CauseWorker, st.Cause)
		} else {
			fmt.Printf("BROKEN        epoch %d, %s: %s\n", st.CauseEpoch, st.CausePhase, st.Cause)
		}
		os.Exit(1)
	}
}

// runSub subscribes to session topics and prints each notification in its
// canonical transcript line form until the server closes or -count is
// reached.
func runSub(args []string) {
	fs := flag.NewFlagSet("cluster sub", flag.ExitOnError)
	var (
		connect = fs.String("connect", "unix:/tmp/dkc-session.sock", "session server control address")
		topicsF = fs.String("topics", "", "comma-separated topics, e.g. coreness:5,topk:3,threshold:2.5")
		count   = fs.Int("count", 0, "exit after this many notifications (0 = until the server closes)")
	)
	fs.Parse(args)
	if *topicsF == "" {
		fatal(fmt.Errorf("need -topics"))
	}
	var topics []session.Topic
	for _, s := range strings.Split(*topicsF, ",") {
		t, err := session.ParseTopic(strings.TrimSpace(s))
		if err != nil {
			fatal(err)
		}
		topics = append(topics, t)
	}
	network, addr, err := splitAddr(*connect)
	if err != nil {
		fatal(err)
	}
	nc, err := dialRetry(network, addr, 10*time.Second)
	if err != nil {
		fatal(err)
	}
	c := dnet.NewConn(nc)
	defer c.Close()

	if err := c.Send(dnet.RecSubscribe, session.AppendSubscribe(nil, topics)); err != nil {
		fatal(err)
	}
	typ, body, err := c.AwaitRecord()
	if err != nil {
		fatal(err)
	}
	if typ == dnet.RecError {
		fatal(fmt.Errorf("server: %s", body))
	}
	if typ != dnet.RecSubscribe {
		fatal(fmt.Errorf("expected subscribe echo, got record type %d", typ))
	}
	id, err := session.DecodeSubscribeEcho(body)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cluster sub: registered as sub%d (%d topics)\n", id, len(topics))

	for got := 0; *count == 0 || got < *count; {
		typ, body, err := c.AwaitRecord()
		if err != nil {
			fmt.Println("cluster sub: server closed")
			return
		}
		switch typ {
		case dnet.RecNotify:
			nf, err := session.DecodeNotify(body)
			if err != nil {
				fatal(err)
			}
			fmt.Println(nf.String())
			got++
		case dnet.RecError:
			fatal(fmt.Errorf("server: %s", body))
		default:
			fatal(fmt.Errorf("unexpected record type %d", typ))
		}
	}
}
