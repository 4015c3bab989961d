package session

import (
	"encoding/binary"
	"fmt"
	stdnet "net"

	"distkcore/internal/codec"
	net "distkcore/internal/net"
)

// client is one control-socket peer of a session server: a pusher, a
// subscriber, or both.
type client struct {
	id   int
	c    *net.Conn
	subs []int // subscriber IDs owned by this client
}

// clientEvent is one record (or terminal read error) from one client. A nil
// cl marks an accept-loop failure.
type clientEvent struct {
	cl   *client
	typ  byte
	body []byte
	err  error
}

// Serve exposes a live session over a control listener: clients connect and
// speak the client half of the session protocol —
//
//	Subscribe   register a want-list; the reply carries the subscriber ID
//	DeltaPush   push a batch (epoch 0 = "assign the next"); the reply is
//	            the sealing stamp, after subscribers got their notifies
//	Bye         disconnect; the body "shutdown" stops the server
//
// All client events are serialized onto one goroutine, so concurrent
// pushers see a total epoch order and notifications keep the deterministic
// order Publish produced. A rejected batch (validation failure) errors only
// the pushing client and the session stays live; a broken session stops the
// server with the breaking error. Serve returns nil on a clean shutdown.
// The caller owns ln and closes it after Serve returns (which also releases
// the accept goroutine).
func Serve(co *Coordinator, ln stdnet.Listener, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ev := make(chan clientEvent, 16)
	done := make(chan struct{})
	defer close(done)
	go acceptLoop(ln, ev, done)

	subOwner := map[int]*client{}
	drop := func(cl *client) {
		for _, id := range cl.subs {
			co.Subs().Unsubscribe(id)
			delete(subOwner, id)
		}
		cl.subs = nil
		cl.c.Close()
	}
	// Replies are best-effort: a client that died is dropped when its reader
	// reports the broken connection.
	for e := range ev {
		if e.cl == nil {
			return fmt.Errorf("session server: accept: %w", e.err)
		}
		cl := e.cl
		if e.err != nil {
			logf("session server: client %d disconnected (%v)", cl.id, e.err)
			drop(cl)
			continue
		}
		switch e.typ {
		case net.RecSubscribe:
			topics, err := DecodeSubscribe(e.body)
			if err != nil {
				cl.c.SendError(err)
				drop(cl)
				continue
			}
			id := co.Subs().Subscribe(topics)
			cl.subs = append(cl.subs, id)
			subOwner[id] = cl
			_ = cl.c.Send(net.RecSubscribe, binary.AppendUvarint(nil, uint64(id)))
			logf("session server: client %d subscribed as sub%d (%d topics)", cl.id, id, len(topics))

		case net.RecDeltaPush:
			epoch, budget, d, err := DecodeDeltaPush(e.body)
			if err != nil {
				cl.c.SendError(err)
				drop(cl)
				continue
			}
			if epoch != 0 && epoch != co.Epoch()+1 {
				cl.c.SendError(fmt.Errorf("session: push for epoch %d, next is %d", epoch, co.Epoch()+1))
				continue
			}
			rep, err := co.Push(d, budget)
			if err != nil {
				if co.Err() != nil {
					// The session forked or a worker died: nothing left to
					// serve.
					cl.c.SendError(err)
					return err
				}
				// Rejected before broadcast — only the pusher hears about it.
				cl.c.SendError(err)
				continue
			}
			for _, n := range rep.Notifications {
				owner := subOwner[n.Sub]
				if owner == nil {
					continue
				}
				_ = owner.c.Send(net.RecNotify, AppendNotify(nil, n))
			}
			_ = cl.c.Send(net.RecValuesDigest, codec.AppendStamp(nil, rep.Stamp()))
			logf("session server: epoch %d sealed: %d ops, %d changed, %d notifications, chain %#x",
				rep.Epoch, d.Len(), len(rep.Changed), len(rep.Notifications), rep.ChainDigest)

		case net.RecStat:
			// Introspection: a read-only snapshot, served from the same
			// goroutine that owns the session, so no locking is needed.
			_ = cl.c.Send(net.RecStat, codec.AppendStat(nil, co.Stat()))
			logf("session server: client %d probed stat (epoch %d)", cl.id, co.Epoch())

		case net.RecBye:
			shutdown := string(e.body) == "shutdown"
			logf("session server: client %d said goodbye%s", cl.id,
				map[bool]string{true: " (shutdown)", false: ""}[shutdown])
			drop(cl)
			if shutdown {
				return nil
			}

		default:
			cl.c.SendError(fmt.Errorf("session: unexpected record type %d from client", e.typ))
			drop(cl)
		}
	}
	return nil
}

// acceptLoop admits clients and spawns their readers.
func acceptLoop(ln stdnet.Listener, ev chan clientEvent, done chan struct{}) {
	nextID := 1
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case ev <- clientEvent{err: err}:
			case <-done:
			}
			return
		}
		cl := &client{id: nextID, c: net.NewConn(nc)}
		nextID++
		go func() {
			for {
				typ, body, err := cl.c.AwaitRecord()
				if err != nil {
					select {
					case ev <- clientEvent{cl: cl, err: err}:
					case <-done:
					}
					return
				}
				cp := append([]byte(nil), body...)
				select {
				case ev <- clientEvent{cl: cl, typ: typ, body: cp}:
				case <-done:
					return
				}
			}
		}()
	}
}
