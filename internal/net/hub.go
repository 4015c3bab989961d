package net

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// inRec is one record (or terminal read error) from one worker, as pushed
// by the hub's per-connection reader goroutines. gen is the connection
// generation the record came from: records from a dead incarnation that was
// replaced by Respawn are dropped on receipt.
type inRec struct {
	from int
	gen  int
	typ  byte
	body []byte
	err  error
}

// maxRecoveries caps respawns per worker over a hub's lifetime: a worker
// that keeps dying (a crash loop, a poisoned input) eventually fails the run
// or breaks the session instead of respawning forever.
const maxRecoveries = 8

// errAborted marks the fault a worker's error record makes, not a dead link.
var errAborted = errors.New("aborted")

// Hub owns the coordinator side of P established worker connections: one
// reader goroutine per connection pumping records into a shared channel, the
// receive/respawn discipline every protocol on top needs (Collect,
// AwaitFrom, Respawn), and the run protocol itself (Run). Unlike the
// one-shot RunCoordinator wrapper, a Hub outlives a run — its readers keep
// pumping after Run returns, which is what lets a session
// (internal/session) keep the same workers hot across an epoch stream on
// one set of connections. All methods but Close belong to the single
// protocol-driving goroutine. Close it exactly once, after the last
// exchange; the caller still owns and closes the connections themselves.
type Hub struct {
	// Timeout, when non-zero, bounds every wait for a worker record: silence
	// longer than this fails the exchange with a timeout error instead of
	// hanging. Respawn installs it on replacement connections too.
	Timeout time.Duration

	conns []*Conn
	// gens[i] is worker i's connection generation — the number of respawns
	// it has had. Readers get their generation as a parameter at spawn.
	gens []int
	// stash defers records other workers interleave while AwaitFrom waits
	// on one specific worker; every receive drains it FIFO before touching
	// the channel again, so per-worker order holds.
	stash []inRec
	// timer is take's reply deadline, re-armed by each call.
	timer *time.Timer
	ch    chan inRec
	done  chan struct{}
	once  sync.Once
}

// NewHub wraps conns (conns[i] is shard i) and starts the per-connection
// reader goroutines.
func NewHub(conns []*Conn) *Hub {
	h := &Hub{
		conns: conns,
		gens:  make([]int, len(conns)),
		// Eight records of slack per worker: a round's frames and done record
		// park here while the coordinator is writing.
		ch:   make(chan inRec, 8*len(conns)),
		done: make(chan struct{}),
	}
	for i, cn := range conns {
		go h.reader(i, 0, cn)
	}
	return h
}

// P returns the worker count.
func (h *Hub) P() int { return len(h.conns) }

// Conn returns worker i's current connection for writes (re-read it after a
// Respawn). Reads stay with the Hub's readers — never read a hub-owned
// connection directly.
func (h *Hub) Conn(i int) *Conn { return h.conns[i] }

// Close releases the reader goroutines: any reader parked on the bounded
// channel unblocks and exits, and readers blocked in a connection read exit
// as soon as the caller closes the connections. Idempotent.
func (h *Hub) Close() { h.once.Do(func() { close(h.done) }) }

// SendError best-effort ships an error record to every worker, so an abort
// carries its reason instead of a bare broken connection.
func (h *Hub) SendError(err error) {
	for _, cn := range h.conns {
		cn.SendError(err)
	}
}

// Send writes and flushes one record to worker i's current connection (a
// Respawn's replacement included).
func (h *Hub) Send(i int, typ byte, chunks ...[]byte) error {
	return h.conns[i].Send(typ, chunks...)
}

// reader pumps one connection's records into the shared channel, copying
// each payload out of the Conn's reused buffer. It exits on the first read
// error (EOF included, which is the normal end once the caller closes the
// connection after the last exchange) or when the hub is closed and nobody
// will drain the channel again.
func (h *Hub) reader(i, gen int, cn *Conn) {
	for {
		typ, body, err := cn.AwaitRecord()
		if err != nil {
			select {
			case h.ch <- inRec{from: i, gen: gen, err: err}:
			case <-h.done:
			}
			return
		}
		cp := make([]byte, len(body))
		copy(cp, body)
		select {
		case h.ch <- inRec{from: i, gen: gen, typ: typ, body: cp}:
		case <-h.done:
			return
		}
	}
}

// take receives one live record from the readers: records from a replaced
// connection generation are dropped — the dead incarnation's terminal read
// error included, so a replaced death never resurfaces — and a reply timeout
// folds into a from: -1 error record.
func (h *Hub) take() inRec {
	var expired <-chan time.Time
	if h.Timeout > 0 {
		if h.timer == nil {
			h.timer = time.NewTimer(h.Timeout)
		} else {
			h.timer.Reset(h.Timeout)
		}
		defer h.timer.Stop()
		expired = h.timer.C
	}
	for {
		select {
		case r := <-h.ch:
			if r.gen == h.gens[r.from] {
				return r
			}
		case <-expired:
			return inRec{from: -1, err: fmt.Errorf("net: no worker record within %v (dead peer?)", h.Timeout)}
		}
	}
}

// fault turns a record's transport error or worker error record into a Go
// error, nil for an ordinary record.
func (r inRec) fault() error {
	switch {
	case r.err != nil && r.from < 0:
		return r.err
	case r.err != nil:
		return fmt.Errorf("net: worker %d: %w", r.from, r.err)
	case r.typ == recError:
		return fmt.Errorf("net: worker %d %w: %s", r.from, errAborted, r.body)
	}
	return nil
}

// AwaitFrom receives the next record from worker w specifically — a
// respawned worker's welcome, a redo's reply — stashing whatever other
// workers interleave: their records and even their deaths are deferred, not
// lost, and come back FIFO per worker through the next Collect. A reply
// timeout, w's death or its error record surface as the error.
func (h *Hub) AwaitFrom(w int) (typ byte, body []byte, err error) {
	for i, r := range h.stash {
		if r.from == w && r.gen == h.gens[w] {
			h.stash = append(h.stash[:i], h.stash[i+1:]...)
			return r.typ, r.body, r.fault()
		}
	}
	for {
		r := h.take()
		if r.from >= 0 && r.from != w {
			h.stash = append(h.stash, r)
			continue
		}
		return r.typ, r.body, r.fault()
	}
}

// Pending reports whether a record or a fault is waiting to be received.
func (h *Hub) Pending() bool { return len(h.stash)+len(h.ch) > 0 }

// Everyone returns a fresh owed set for Collect with every worker marked.
func (h *Hub) Everyone() []bool {
	owed := make([]bool, len(h.conns))
	for i := range owed {
		owed[i] = true
	}
	return owed
}

// Collect receives records until no worker marked in owed owes one. handle
// consumes each record and reports whether it settles its sender (the
// worker then owes nothing, and any further record from it is a protocol
// violation). A fault — a dead connection, a worker's error record, a reply
// timeout — goes to died with the worker it is attributed to; died may
// recover the worker and mark it owed again, note the death and return nil,
// or return the error that ends the collection (a nil died ends it on the
// first fault). Collect returns that error together with the implicated
// worker, -1 when the failure cannot be pinned on one.
func (h *Hub) Collect(owed []bool,
	handle func(from int, typ byte, body []byte) (settled bool, err error),
	died func(w int, cause error) error) (worker int, err error) {
	for {
		cand, lagging := -1, 0
		for i, o := range owed {
			if o {
				cand, lagging = i, lagging+1
			}
		}
		if lagging == 0 {
			return -1, nil
		}
		var r inRec
		if len(h.stash) > 0 {
			if r, h.stash = h.stash[0], h.stash[1:]; r.gen != h.gens[r.from] {
				continue // stashed before its sender was replaced
			}
		} else {
			r = h.take()
		}
		if err := r.fault(); err != nil {
			w := r.from
			if w < 0 && lagging == 1 {
				// A timeout names nobody; blame it on a worker only when
				// exactly one still owes a record.
				w = cand
			}
			if w >= 0 && died != nil {
				err = died(w, err)
			}
			if err != nil {
				return w, err
			}
			continue
		}
		if !owed[r.from] {
			return r.from, fmt.Errorf("net: worker %d sent record type %d while owing none", r.from, r.typ)
		}
		settled, err := handle(r.from, r.typ, r.body)
		if err != nil {
			return r.from, err
		}
		owed[r.from] = !settled
	}
}

// Respawn swaps worker w's dead connection for a fresh incarnation obtained
// from spawn and starts a reader for it, returning the connection and w's
// new generation — the number of respawns it has had. The hub is the one
// owner of that count: spawn is handed it, so the incarnation it starts can
// carry it (streamed runs name the incarnation's mesh links by it). The dead
// connection is closed (releasing its descriptor and unparking its reader);
// records still in flight from it are dropped by generation. A worker past
// maxRecoveries respawns fails instead.
func (h *Hub) Respawn(w int, spawn func(shard, gen int) (*Conn, error)) (*Conn, int, error) {
	if h.gens[w] >= maxRecoveries {
		return nil, 0, fmt.Errorf("net: worker %d died %d times; giving up", w, h.gens[w]+1)
	}
	gen := h.gens[w] + 1
	cn, err := spawn(w, gen)
	if err != nil {
		return nil, 0, fmt.Errorf("net: respawning worker %d: %w", w, err)
	}
	if h.Timeout > 0 {
		cn.SetIOTimeout(h.Timeout)
	}
	h.conns[w].Close()
	h.gens[w], h.conns[w] = gen, cn
	go h.reader(w, gen, cn)
	return cn, gen, nil
}
