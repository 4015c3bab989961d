package cliutil

import (
	"fmt"
	"os"

	"distkcore/internal/dist"
	dnet "distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/shard"
)

// TraceUsage is the -trace flag help text shared by cmd/kcore and
// cmd/cluster.
const TraceUsage = "write a Chrome trace-event JSON timeline of the run to this file (open in chrome://tracing or ui.perfetto.dev; - = stdout)"

// Traced installs tr on every engine kind that has a tracing seam and
// returns the engine to run (the value engines are returned as modified
// copies). A nil tracer or an engine without a seam passes through
// unchanged, so call sites need no conditionals.
func Traced(eng dist.Engine, tr *obs.Tracer) dist.Engine {
	if tr == nil {
		return eng
	}
	switch e := eng.(type) {
	case dist.SeqEngine:
		e.Trace = tr
		return e
	case dist.ParEngine:
		e.Trace = tr
		return e
	case *shard.Engine:
		e.SetTracer(tr)
		return e
	case *dnet.Engine:
		e.SetTracer(tr)
		return e
	}
	return eng
}

// WriteTrace exports everything tr collected as Chrome trace-event JSON to
// path ("-" means stdout). A nil tracer writes nothing.
func WriteTrace(path string, tr *obs.Tracer) error {
	if tr == nil || path == "" {
		return nil
	}
	rt := tr.Trace()
	if path == "-" {
		return rt.WriteChromeTrace(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rt.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans, %d flows -> %s\n", len(rt.Spans), len(rt.Flows), path)
	return nil
}
