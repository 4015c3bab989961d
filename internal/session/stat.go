package session

import (
	"errors"
	"fmt"

	"distkcore/internal/codec"
)

// BreakCause diagnoses a broken session: which epoch was being sealed,
// which protocol phase was in flight, which worker is implicated (-1 when
// the failure is not attributable to one — a coordinator-side check, or a
// timeout with no sender) and the underlying error. It is the error the
// broken latch holds, so Session.Err / Coordinator.Err yield it directly
// and errors.As recovers the structure.
type BreakCause struct {
	Epoch  int
	Phase  string
	Worker int
	Err    error
}

// Error implements error: the attribution, then the underlying error.
func (b *BreakCause) Error() string {
	if b.Worker >= 0 {
		return fmt.Sprintf("session broken at epoch %d (%s, worker %d): %v", b.Epoch, b.Phase, b.Worker, b.Err)
	}
	return fmt.Sprintf("session broken at epoch %d (%s): %v", b.Epoch, b.Phase, b.Err)
}

// Unwrap exposes the underlying error to errors.Is/As chains.
func (b *BreakCause) Unwrap() error { return b.Err }

// workerFault tags an error with the worker connection it arrived on, so
// fail can attribute the break. It stays internal: collect paths wrap,
// fail unwraps.
type workerFault struct {
	worker int
	err    error
}

func (f *workerFault) Error() string { return f.err.Error() }
func (f *workerFault) Unwrap() error { return f.err }

// faultOf tags err with a worker index (-1 passes through untagged).
func faultOf(worker int, err error) error {
	if worker < 0 || err == nil {
		return err
	}
	return &workerFault{worker: worker, err: err}
}

// fail breaks the session: the cause is latched, best-effort shipped to
// every worker, and returned. epoch and phase say what was being sealed
// when the failure hit; the worker, if any, is recovered from the error
// chain.
func (c *Coordinator) fail(epoch int, phase string, err error) error {
	worker := -1
	var wf *workerFault
	if errors.As(err, &wf) {
		worker = wf.worker
	}
	bc := &BreakCause{Epoch: epoch, Phase: phase, Worker: worker, Err: err}
	c.broken = bc
	c.publishStat()
	c.hub.SendError(err)
	return bc
}

// Cause returns the structured break diagnosis, nil while the session is
// live.
func (c *Coordinator) Cause() *BreakCause {
	var bc *BreakCause
	if c.broken != nil && errors.As(c.broken, &bc) {
		return bc
	}
	return nil
}

// Stat snapshots the session for introspection (the cluster stat reply and
// the expvar export). Call it from the goroutine that owns the session.
func (c *Coordinator) Stat() codec.Stat {
	st := codec.Stat{
		Epoch:         c.epoch,
		ChainDigest:   c.chain,
		Workers:       c.p,
		Nodes:         c.adj.N(),
		Subscribers:   len(c.subs.Subscribers()),
		Pushes:        c.pushes,
		Rejected:      c.rejected,
		Changed:       c.changed,
		DeltaBytes:    c.deltaBytes,
		Notifications: c.notifs,
		EpochMicros:   c.epochMicros,
		Recoveries:    c.recovered,
		CauseWorker:   -1,
	}
	if bc := c.Cause(); bc != nil {
		st.Broken = true
		st.CauseEpoch = bc.Epoch
		st.CauseWorker = bc.Worker
		st.CausePhase = bc.Phase
		st.Cause = bc.Err.Error()
	} else if c.broken != nil {
		st.Broken = true
		st.Cause = c.broken.Error()
	}
	return st
}

// publishStat refreshes the lock-free snapshot StatView serves.
func (c *Coordinator) publishStat() {
	st := c.Stat()
	c.statp.Store(&st)
}

// StatView returns the last published Stat snapshot without touching
// session state, so goroutines that do not own the session — the
// -debug-addr expvar handler — can read it concurrently with pushes. The
// snapshot refreshes at every seal, rejection and break.
func (c *Coordinator) StatView() codec.Stat {
	if p := c.statp.Load(); p != nil {
		return *p
	}
	return codec.Stat{CauseWorker: -1}
}
