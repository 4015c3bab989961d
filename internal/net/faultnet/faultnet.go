// Package faultnet runs fault schedules on net.Cluster.Wrap, the seam every
// link of a worker incarnation passes through; like testing/iotest it needs
// the standard library only, and only test files import it. An incarnation
// shares memory with its successor, so a death executes only in a write its
// own loop makes on its control link: the write fails with every link of the
// incarnation closed, and no hook of the dead runs once the death shows.
package faultnet

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
)

const Control = -1 // as a Fault's Peer: the incarnation's control link

// Action is what a Fault does to the write that carries its record.
type Action uint8

const (
	Before Action = iota // die, the write unsent (control links only)
	After                // die once the write is out (control links only)
	Hold                 // stall the write until Release or the death
	Flip                 // send the record with its last byte's low bit flipped
)

// Fault keys an Action to the first record of type Type whose body begins
// with Body (a round is most records' first uvarint) that incarnation Gen of
// Shard writes toward Peer. A write hands its connection whole records.
type Fault struct {
	Shard, Gen, Peer int
	Type             byte
	Body             []byte
	Action           Action
}

// Net runs one schedule: its holds are armed from the start, its other
// faults one at a time, in order, each once the one before has fired.
type Net struct {
	mu       sync.Mutex
	cond     *sync.Cond
	sched    []Fault
	fired    []bool
	links    map[[2]int][]net.Conn // by incarnation
	dead     map[[2]int]bool
	released bool
}

// New returns a Net that runs sched.
func New(sched ...Fault) *Net {
	n := &Net{sched: sched, fired: make([]bool, len(sched)), links: map[[2]int][]net.Conn{}, dead: map[[2]int]bool{}}
	n.cond = sync.NewCond(&n.mu)
	return n
}

// Fired reports whether fault i of the schedule has fired.
func (n *Net) Fired(i int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fired[i]
}

// Release ends every hold, present and future.
func (n *Net) Release() {
	n.mu.Lock()
	n.released = true
	n.cond.Broadcast()
	n.mu.Unlock()
}

// Wrap is the seam: link c of incarnation gen of shard, toward peer, through
// the schedule — closed on arrival if the incarnation is dead.
func (n *Net) Wrap(shard, gen, peer int, c net.Conn) net.Conn {
	inc := [2]int{shard, gen}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.links[inc] = append(n.links[inc], c); n.dead[inc] {
		c.Close()
	}
	return &link{c, n, inc, peer}
}

type link struct {
	net.Conn
	n    *Net
	inc  [2]int
	peer int
}

func (l *link) Write(p []byte) (int, error) {
	n := l.n
	n.mu.Lock()
	defer n.mu.Unlock()
	out := func(q []byte) (int, error) { // the write itself, unlocked
		n.mu.Unlock()
		defer n.mu.Lock()
		return l.Conn.Write(q)
	}
	i, end := n.match(l, p)
	switch {
	case i < 0:
		return out(p)
	case n.sched[i].Action == Flip:
		q := append([]byte(nil), p...)
		q[end-1] ^= 1
		k, err := out(q)
		n.fired[i] = n.fired[i] || k >= end // a flip into a dead link has not happened
		return k, err
	case n.sched[i].Action == Hold:
		for n.fired[i] = true; !n.released && !n.dead[l.inc]; {
			n.cond.Wait()
		}
		return out(p) // dead, its links are closed
	}
	k := 0
	if n.sched[i].Action == After {
		k, _ = out(p)
	}
	// The death: it fires, every link of the incarnation closed, holds woken.
	n.fired[i], n.dead[l.inc] = true, true
	for _, c := range n.links[l.inc] {
		c.Close()
	}
	n.cond.Broadcast()
	return k, net.ErrClosed
}

// match returns the armed fault that keys a record of p on link l and the
// end of that record, -1 when there is none.
func (n *Net) match(l *link, p []byte) (int, int) {
	ordered := false
	for i, f := range n.sched {
		if n.fired[i] || ordered && f.Action != Hold || n.dead[l.inc] { // the dead's writes just fail
			continue
		}
		ordered = ordered || f.Action != Hold
		if f.Shard != l.inc[0] || f.Gen != l.inc[1] || f.Peer != l.peer {
			continue
		}
		for at, end := 0, 0; at < len(p); at = end {
			size, k := binary.Uvarint(p[at:])
			if end = at + k + int(size); k <= 0 || size == 0 || end > len(p) {
				break
			}
			if p[at+k] == f.Type && bytes.HasPrefix(p[at+k+1:end], f.Body) {
				return i, end
			}
		}
	}
	return -1, 0
}
