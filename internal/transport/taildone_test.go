package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/msg"
	"cn/internal/wire"
)

// hooked returns a bulk-lane reply of kind with a 32 KiB tail and a TailDone
// hook that counts its calls.
func hooked(kind msg.Kind, to string) (*msg.Message, *atomic.Int32) {
	var fired atomic.Int32
	m := msg.New(kind, msg.Address{Node: "a"}, msg.Address{Node: to}, nil)
	m.Tail = bytes.Repeat([]byte{0x5a}, 32<<10)
	m.TailDone = func() { fired.Add(1) }
	return m, &fired
}

// firedOnce waits for each hook's first call, then closes the fabric — which
// runs whatever drop path is left, so a second call would have happened by
// the time Close returns — and reports whether every hook was called once.
func firedOnce(t *testing.T, n Network, what string, hooks ...*atomic.Int32) {
	t.Helper()
	for _, fired := range hooks {
		waitFor(t, 5*time.Second, func() bool { return fired.Load() > 0 }, "the hook "+what)
	}
	n.Close()
	for i, fired := range hooks {
		if got := fired.Load(); got != 1 {
			t.Errorf("frame %d: hook fired %d times %s", i, got, what)
		}
	}
}

// TestTailDoneFiresOnceOnEveryPath: a sender whose tail aliases a counted
// buffer lets go of it in TailDone, so the hook must fire exactly once
// wherever the frame's life ends — after the writev, when a full control
// lane sheds it, when the one dial its batch waited on fails, when the
// endpoint closes under it, and on the Send that never queued it at all.
// (Never twice: the second call would release a buffer someone else holds.
// Never zero on a path a healthy cluster takes: the buffer would stay with
// the collector for good.)
func TestTailDoneFiresOnceOnEveryPath(t *testing.T) {
	pair := func(t *testing.T) (*TCPNetwork, Endpoint, *collector) {
		n := NewTCPNetwork()
		t.Cleanup(func() { n.Close() })
		recv := newCollector()
		a, err := n.Attach("a", func(*msg.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Attach("b", recv.handle); err != nil {
			t.Fatal(err)
		}
		return n, a, recv
	}
	// holdDial parks every dial until the returned release is called; the
	// dial then fails.
	holdDial := func(t *testing.T) (dialing chan struct{}, release func()) {
		realDial := tcpDial
		t.Cleanup(func() { tcpDial = realDial })
		dialing, gate := make(chan struct{}, 8), make(chan struct{})
		tcpDial = func(string, string, time.Duration) (net.Conn, error) {
			dialing <- struct{}{}
			<-gate
			return nil, fmt.Errorf("connection refused (simulated)")
		}
		var once atomic.Bool
		release = func() {
			if once.CompareAndSwap(false, true) {
				close(gate)
			}
		}
		t.Cleanup(release)
		return dialing, release
	}

	t.Run("written", func(t *testing.T) {
		n, a, recv := pair(t)
		m, fired := hooked(msg.KindBlobChunkAck, "b")
		if err := a.Send("b", m); err != nil {
			t.Fatal(err)
		}
		recv.wait(t, 1, 5*time.Second)
		firedOnce(t, n, "after a written frame", fired)
	})
	t.Run("shed", func(t *testing.T) {
		defer func(c int) { pipeControlCap = c }(pipeControlCap)
		pipeControlCap = 2
		dialing, _ := holdDial(t)
		n, a, _ := pair(t)
		var hooks []*atomic.Int32
		var shed int
		for i := 0; i < 4; i++ {
			m, fired := hooked(msg.KindPong, "b") // a control-lane kind
			hooks = append(hooks, fired)
			err := a.Send("b", m)
			if i == 0 {
				<-dialing // the writer is parked: the lane can only fill
			}
			if errors.Is(err, ErrShed) {
				shed++
				if fired.Load() != 1 {
					t.Errorf("frame %d was shed and its hook fired %d times by the time Send returned", i, fired.Load())
				}
			} else if err != nil {
				t.Fatal(err)
			} else if fired.Load() != 0 {
				t.Errorf("frame %d is queued and its hook already fired", i)
			}
		}
		if shed != 2 {
			t.Fatalf("%d of 4 frames shed into a two-frame lane, want 2", shed)
		}
		// The two that were queued are dropped when the fabric closes.
		n.Close()
		for i, fired := range hooks {
			if got := fired.Load(); got != 1 {
				t.Errorf("frame %d: hook fired %d times, shed or dropped at Close", i, got)
			}
		}
	})
	t.Run("failed dial", func(t *testing.T) {
		dialing, release := holdDial(t)
		n, a, _ := pair(t)
		var hooks []*atomic.Int32
		for i := 0; i < 3; i++ {
			m, fired := hooked(msg.KindBlobChunkAck, "b")
			hooks = append(hooks, fired)
			if err := a.Send("b", m); err != nil {
				t.Fatal(err)
			}
		}
		<-dialing
		release()
		for _, fired := range hooks {
			waitFor(t, 5*time.Second, func() bool { return fired.Load() > 0 }, "the hook after the failed dial")
		}
		// The pipe has failed: the next Send learns of it at enqueue or
		// finds a fresh connection record (whose dial fails too); either
		// way its hook is called.
		m, fired := hooked(msg.KindBlobChunkAck, "b")
		_ = a.Send("b", m)
		firedOnce(t, n, "after a failed dial", append(hooks, fired)...)
	})
	t.Run("closed under the queue", func(t *testing.T) {
		dialing, _ := holdDial(t)
		n, a, _ := pair(t)
		m, fired := hooked(msg.KindBlobChunkAck, "b")
		if err := a.Send("b", m); err != nil {
			t.Fatal(err)
		}
		<-dialing
		if fired.Load() != 0 {
			t.Fatal("hook fired while the frame was queued")
		}
		a.Close()
		if fired.Load() != 1 {
			t.Errorf("hook fired %d times by the time Close returned", fired.Load())
		}
		firedOnce(t, n, "for a frame queued at Close", fired)
	})
	t.Run("never queued", func(t *testing.T) {
		_, a, _ := pair(t)
		for name, send := range map[string]func(m *msg.Message) error{
			"unknown node": func(m *msg.Message) error { return a.Send("nobody", m) },
			"oversized": func(m *msg.Message) error {
				m.Tail = make([]byte, wire.MaxFrameBytes+1)
				return a.Send("b", m)
			},
		} {
			m, fired := hooked(msg.KindBlobChunkAck, "b")
			if err := send(m); err == nil {
				t.Errorf("%s: Send succeeded", name)
			}
			if fired.Load() != 1 {
				t.Errorf("%s: hook fired %d times by the time the failed Send returned", name, fired.Load())
			}
		}
		a.Close()
		m, fired := hooked(msg.KindBlobChunkAck, "b")
		if err := a.Send("b", m); !errors.Is(err, ErrClosed) {
			t.Errorf("Send on a closed endpoint = %v, want ErrClosed", err)
		}
		if fired.Load() != 1 {
			t.Errorf("ErrClosed: hook fired %d times", fired.Load())
		}
	})
}

// TestMemTailDoneGetsTailOfItsOwn: the in-memory fabric hands the receiver
// the sender's message. One that carries the hook is therefore delivered
// with a tail of its own — the receiver never aliases the buffer the sender
// lets go of — and the hook has fired, once, by the time Send returns, on
// the failing paths too. Clone leaves the hook behind.
func TestMemTailDoneGetsTailOfItsOwn(t *testing.T) {
	n := NewIdealNetwork()
	defer n.Close()
	recv := newCollector()
	a, err := n.Attach("a", func(*msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach("b", recv.handle); err != nil {
		t.Fatal(err)
	}
	m, fired := hooked(msg.KindBlobChunkAck, "b")
	sent := m.Tail
	if err := a.Send("b", m); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 1 {
		t.Fatalf("hook fired %d times by the time Send returned", fired.Load())
	}
	for i := range sent {
		sent[i] = 0xDB // the sender's buffer is reused at once
	}
	got := recv.wait(t, 1, 5*time.Second)[0]
	if &got.Tail[0] == &sent[0] || !bytes.Equal(got.Tail, bytes.Repeat([]byte{0x5a}, len(sent))) {
		t.Error("the receiver's tail aliases the buffer the sender was told it could reuse")
	}
	if got.TailDone != nil {
		t.Error("the hook travelled")
	}

	m, fired = hooked(msg.KindBlobChunkAck, "nobody")
	if err := a.Send("nobody", m); err == nil || fired.Load() != 1 {
		t.Errorf("send to an unknown node: %v, hook fired %d times", err, fired.Load())
	}
	m, fired = hooked(msg.KindBlobChunkAck, "b")
	if c := m.Clone(); c.TailDone != nil || &c.Tail[0] != &m.Tail[0] {
		t.Error("Clone kept the hook or copied the tail")
	}
	a.Close()
	if err := a.Send("b", m); !errors.Is(err, ErrClosed) || fired.Load() != 1 {
		t.Errorf("send on a closed endpoint: %v, hook fired %d times", err, fired.Load())
	}
}
