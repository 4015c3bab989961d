package dist

import (
	"distkcore/internal/graph"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
)

// SeqEngine executes the protocol single-threaded, visiting nodes in
// ascending ID order within each round. It is the reference scheduler:
// deterministic, allocation-light, and the semantics ParEngine must
// reproduce byte for byte.
//
// The zero value is ready to use. Lam, when set, prices every transmitted
// value under that threshold set in Metrics.WireBytes (nil means Λ = ℝ,
// i.e. full 64-bit words). Trace, when set, collects per-round step and
// deliver spans; it observes values the engine already computed, so a
// traced run is byte-identical to an untraced one (obs package comment has
// the argument).
type SeqEngine struct {
	Lam   quantize.Lambda
	Trace *obs.Tracer
}

// Name identifies the engine in experiment tables and CLI flags.
func (SeqEngine) Name() string { return "seq" }

// WithWireLambda implements Engine.
func (e SeqEngine) WithWireLambda(lam quantize.Lambda) Engine {
	e.Lam = lam
	return e
}

// Run implements Engine.
func (e SeqEngine) Run(g *graph.Graph, factory Factory, maxRounds int) Metrics {
	s := newSim(g, e.Lam, factory)
	buf := gatherBufs.Get().(*[]Message)
	defer gatherBufs.Put(buf)
	rounds := 0
	for t := 0; t == 0 || (t <= maxRounds && s.alive > 0); t++ {
		rounds = t
		sp := e.Trace.Begin(obs.PhaseStep, t, -1)
		stepped := 0
		for v := 0; v < g.N(); v++ {
			if s.step(v, t, buf) {
				stepped++
			}
		}
		sp.EndN(0, int64(stepped))
		s.traceDeliver(e.Trace, t, nil)
	}
	return s.finish(rounds)
}
