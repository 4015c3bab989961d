package net

import (
	stdnet "net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestHubDiscipline exercises the receive/respawn discipline directly (the
// kill sweeps of net and session only reach it through whole runs): each
// case gets a fresh hub over three net.Pipe connections and the workers'
// ends of them.
func TestHubDiscipline(t *testing.T) {
	const recA = byte(200) // any number outside the protocol's tables
	pipe := func() (*Conn, *Conn) {
		a, b := stdnet.Pipe()
		return NewConn(a), NewConn(b)
	}
	say := func(t *testing.T, c *Conn, msgs ...string) {
		t.Helper()
		for _, m := range msgs {
			if err := c.WriteRecord(recA, []byte(m)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// buffered waits until n records sit in the hub's channel: a pipe write
	// returns once the reader goroutine has the bytes, a moment before it
	// pushes them.
	buffered := func(t *testing.T, h *Hub, n int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); len(h.ch) < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("hub buffered %d records, want %d", len(h.ch), n)
			}
		}
	}
	// gather collects until the owed workers settle on the record "end",
	// logging every record and death per worker in arrival order.
	gather := func(h *Hub, owed []bool) (map[int][]string, int, error) {
		got := map[int][]string{}
		w, err := h.Collect(owed, func(from int, _ byte, body []byte) (bool, error) {
			got[from] = append(got[from], string(body))
			return string(body) == "end", nil
		}, func(w int, cause error) error {
			got[w] = append(got[w], "died")
			owed[w] = false
			return nil
		})
		return got, w, err
	}

	cases := []struct {
		name string
		run  func(t *testing.T, h *Hub, ws []*Conn)
	}{
		{"records of a replaced generation are dropped, terminal error included", func(t *testing.T, h *Hub, ws []*Conn) {
			say(t, ws[0], "from the dead incarnation")
			buffered(t, h, 1)
			cc, wc := pipe()
			defer wc.Close()
			if _, gen, err := h.Respawn(0, func(int, int) (*Conn, error) { return cc, nil }); err != nil || gen != 1 {
				t.Fatalf("Respawn: generation %d, %v", gen, err)
			}
			buffered(t, h, 2) // the stale record and the old reader's terminal error
			say(t, wc, "end")
			say(t, ws[1], "end")
			got, _, err := gather(h, []bool{true, true, false})
			want := map[int][]string{0: {"end"}, 1: {"end"}}
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("collected %v (%v), want %v", got, err, want)
			}
		}},
		{"records interleaved during AwaitFrom come back FIFO per worker, deaths included", func(t *testing.T, h *Hub, ws []*Conn) {
			say(t, ws[1], "a", "end")
			say(t, ws[2], "c")
			ws[2].Close()
			buffered(t, h, 4)
			say(t, ws[0], "x")
			if _, body, err := h.AwaitFrom(0); err != nil || string(body) != "x" {
				t.Fatalf("AwaitFrom(0) = %q, %v", body, err)
			}
			if len(h.stash) != 4 {
				t.Fatalf("stash holds %d records, want the 4 interleaved ones", len(h.stash))
			}
			got, _, err := gather(h, []bool{false, true, true})
			want := map[int][]string{1: {"a", "end"}, 2: {"c", "died"}}
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("collected %v (%v), want %v", got, err, want)
			}
		}},
		{"a timeout is blamed on a worker only when exactly one is owed", func(t *testing.T, h *Hub, ws []*Conn) {
			h.Timeout = 20 * time.Millisecond
			blamed := -2
			died := func(w int, cause error) error { blamed = w; return cause }
			if w, err := h.Collect([]bool{true, true, false}, nil, died); err == nil || w != -1 || blamed != -2 {
				t.Fatalf("two laggards: worker %d, died(%d), %v; want nobody blamed", w, blamed, err)
			}
			if w, err := h.Collect([]bool{false, true, false}, nil, died); err == nil || w != 1 || blamed != 1 {
				t.Fatalf("sole laggard: worker %d, died(%d), %v; want worker 1 blamed", w, blamed, err)
			}
		}},
		{"the 9th recovery of one worker fails with the cap error", func(t *testing.T, h *Hub, ws []*Conn) {
			told := 0 // the generation the hub handed the spawn callback
			spawn := func(_, gen int) (*Conn, error) {
				told = gen
				cc, wc := pipe()
				t.Cleanup(func() { wc.Close() })
				return cc, nil
			}
			for i := 1; i <= maxRecoveries; i++ {
				if _, gen, err := h.Respawn(2, spawn); err != nil || gen != i || told != i {
					t.Fatalf("recovery %d: generation %d (spawn told %d), %v", i, gen, told, err)
				}
			}
			if _, _, err := h.Respawn(2, spawn); err == nil || !strings.Contains(err.Error(), "giving up") {
				t.Fatalf("recovery %d: %v, want the cap error", maxRecoveries+1, err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conns, ws := make([]*Conn, 3), make([]*Conn, 3)
			for i := range conns {
				conns[i], ws[i] = pipe()
			}
			h := NewHub(conns)
			defer func() {
				h.Close()
				for i := range ws {
					h.Conn(i).Close()
					ws[i].Close()
				}
			}()
			tc.run(t, h, ws)
		})
	}
}
