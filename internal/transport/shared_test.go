package transport

import (
	"context"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/msg"
	"cn/internal/wire"
)

// countDials counts every dial the TCP fabric makes for the rest of the test.
func countDials(t testing.TB) *atomic.Int32 {
	t.Helper()
	realDial := tcpDial
	t.Cleanup(func() { tcpDial = realDial })
	dials := new(atomic.Int32)
	tcpDial = func(network, addr string, d time.Duration) (net.Conn, error) {
		dials.Add(1)
		return realDial(network, addr, d)
	}
	return dials
}

// written returns the socket e writes to peer on, nil when it has none.
func written(e *tcpEndpoint, peer string) net.Conn {
	e.mu.Lock()
	defer e.mu.Unlock()
	if tc, ok := e.conns[peer]; ok {
		c, _ := tc.cval.Load().(net.Conn)
		return c
	}
	return nil
}

// sockets returns how many sockets e has open.
func sockets(e *tcpEndpoint) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.socks)
}

func ping(from, to string) *msg.Message {
	return msg.New(msg.KindPing, msg.Address{Node: from}, msg.Address{Node: to}, nil)
}

// TestTCPCallAndReplyShareOneSocket: a call from a to b and b's reply cross
// one socket — a dials, b writes its reply back on the socket it accepted,
// and b dials nothing.
func TestTCPCallAndReplyShareOneSocket(t *testing.T) {
	dials := countDials(t)
	n := NewTCPNetwork()
	defer n.Close()
	var bep Endpoint
	bep, err := n.Attach("b", func(m *msg.Message) {
		if err := bep.Send(m.From.Node, m.Reply(msg.KindPong, nil)); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var caller *Caller
	aep, err := n.Attach("a", func(m *msg.Message) { caller.Handle(m) })
	if err != nil {
		t.Fatal(err)
	}
	caller = NewCaller(aep)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := caller.Call(ctx, "b", ping("a", "b")); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("%d dials for calls from a to b and their replies, want 1", got)
	}
	a, b := aep.(*tcpEndpoint), bep.(*tcpEndpoint)
	ac, bc := written(a, "b"), written(b, "a")
	if ac == nil || bc == nil {
		t.Fatalf("a writes to b on %v and b to a on %v, want a socket each", ac, bc)
	}
	if ac.LocalAddr().String() != bc.RemoteAddr().String() || ac.RemoteAddr().String() != bc.LocalAddr().String() {
		t.Errorf("a writes on %v→%v, b on %v→%v: not the two ends of one socket",
			ac.LocalAddr(), ac.RemoteAddr(), bc.LocalAddr(), bc.RemoteAddr())
	}
	if sa, sb := sockets(a), sockets(b); sa != 1 || sb != 1 {
		t.Errorf("a has %d sockets open and b %d, want 1 each", sa, sb)
	}
}

// TestTCPBothEndsSendFromTheFirstInstant: two nodes that start sending each
// other at the same moment may both dial; each then writes on the socket it
// registered first, and each receives every frame the other sent, in order.
// Repeated on fresh fabrics so the simultaneous dial happens.
func TestTCPBothEndsSendFromTheFirstInstant(t *testing.T) {
	const frames, rounds = 300, 20
	for r := 0; r < rounds; r++ {
		n := NewTCPNetwork()
		var mu sync.Mutex
		next := map[string]int{} // receiver -> sequence number it expects next
		got := make(chan struct{}, 2*frames)
		handler := func(node string) Handler {
			return func(m *msg.Message) {
				seq, _ := strconv.Atoi(m.Header("seq"))
				mu.Lock()
				if seq != next[node] {
					t.Errorf("round %d: %s got frame %d, want %d", r, node, seq, next[node])
				}
				next[node] = seq + 1
				mu.Unlock()
				got <- struct{}{}
			}
		}
		a, err := n.Attach("a", handler("a"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := n.Attach("b", handler("b"))
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, p := range [][2]Endpoint{{a, b}, {b, a}} {
			from, to := p[0], p[1].Node()
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < frames; i++ {
					m := ping(from.Node(), to).SetHeader("seq", strconv.Itoa(i))
					if err := from.Send(to, m); err != nil {
						t.Errorf("round %d: %s send %d: %v", r, from.Node(), i, err)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		for i := 0; i < 2*frames; i++ {
			select {
			case <-got:
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: %d of %d frames arrived", r, i, 2*frames)
			}
		}
		if sa := sockets(a.(*tcpEndpoint)); sa > 2 {
			t.Errorf("round %d: a has %d sockets open, want at most 2", r, sa)
		}
		n.Close()
	}
}

// TestTCPPeerCloseRetiresTheWriteSide: when the peer closes a connection,
// the side still holding it retires its write side at once — no Send has
// to fail first — and the next Send re-dials. That holds for the side that
// dialed and for the side that adopted the socket.
func TestTCPPeerCloseRetiresTheWriteSide(t *testing.T) {
	dials := countDials(t)
	n := NewTCPNetwork()
	defer n.Close()
	recv := newCollector()
	a, err := n.Attach("a", recv.handle)
	if err != nil {
		t.Fatal(err)
	}
	bep, err := n.Attach("b", func(m *msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", ping("a", "b")); err != nil {
		t.Fatal(err)
	}
	b := bep.(*tcpEndpoint)
	waitFor(t, 2*time.Second, func() bool { return written(b, "a") != nil }, "b to adopt a's socket")
	if err := bep.Send("a", ping("b", "a")); err != nil {
		t.Fatal(err)
	}
	recv.wait(t, 1, 2*time.Second)

	// The dialing side: b goes away, and a forgets its connection unasked.
	if err := bep.Close(); err != nil {
		t.Fatal(err)
	}
	ae := a.(*tcpEndpoint)
	waitFor(t, 2*time.Second, func() bool { return written(ae, "b") == nil && sockets(ae) == 0 }, "a to retire its connection to b")
	recv2 := newCollector()
	b2, err := n.Attach("b", recv2.handle)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", ping("a", "b")); err != nil {
		t.Fatalf("send after b came back: %v", err)
	}
	recv2.wait(t, 1, 2*time.Second)
	if got := dials.Load(); got != 2 {
		t.Errorf("%d dials, want 2: one per incarnation of b", got)
	}

	// The adopting side: a goes away, and b2 forgets the socket it adopted.
	be := b2.(*tcpEndpoint)
	waitFor(t, 2*time.Second, func() bool { return written(be, "a") != nil }, "b to adopt a's socket again")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return written(be, "a") == nil && sockets(be) == 0 }, "b to retire the socket it adopted")
}

// TestTCPBadPreambleDropsConnection: a connection whose preamble is
// malformed — foreign magic, another version, a name over the bound, a name
// no node has, the acceptor's own name, or cut off — is dropped and counted
// as a frame error, and leaves nothing behind: no connection record, no
// socket, nothing handed to the handler.
func TestTCPBadPreambleDropsConnection(t *testing.T) {
	good := func(name string) []byte {
		p, err := wire.AppendConnPreamble(nil, name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	long := append([]byte{wire.Magic0, wire.Magic1, wire.ConnVersion, wire.MaxPeerName + 1}, make([]byte, wire.MaxPeerName+1)...)
	cases := map[string][]byte{
		"magic":     append([]byte{'X'}, good("raw")[1:]...),
		"version":   append([]byte{wire.Magic0, wire.Magic1, wire.Version}, good("raw")[3:]...),
		"long name": long,
		"no name":   {wire.Magic0, wire.Magic1, wire.ConnVersion, 0},
		"unknown":   good("ghost"),
		"own name":  good("victim"),
		"truncated": good("raw")[:5],
	}
	for name, pre := range cases {
		t.Run(name, func(t *testing.T) {
			n := NewTCPNetwork()
			defer n.Close()
			received := victim(t, n)
			addr, err := n.lookup("victim")
			if err != nil {
				t.Fatal(err)
			}
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(pre); err != nil {
				t.Fatal(err)
			}
			if name == "truncated" {
				c.(*net.TCPConn).CloseWrite()
			}
			waitFor(t, 2*time.Second, func() bool { return n.Stats().FrameErrors.Load() == 1 }, "frame error counter")
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := c.Read(make([]byte, 1)); err == nil {
				t.Error("connection still open after a bad preamble")
			}
			n.mu.RLock()
			v := n.nodes["victim"]
			n.mu.RUnlock()
			waitFor(t, 2*time.Second, func() bool { return sockets(v) == 0 }, "the victim to let go of the socket")
			v.mu.Lock()
			records := len(v.conns)
			v.mu.Unlock()
			if records != 0 {
				t.Errorf("%d connection records after a bad preamble, want 0", records)
			}
			if got := received.Load(); got != 0 {
				t.Errorf("handler invoked %d times", got)
			}
		})
	}
}

// TestTCPRoutedUserFrameNamesNoConnection: a USER frame names its task's
// node in From, not the node that sent it — a JobManager routes tasks'
// messages. The receiver delivers it and takes the peer's name from the
// preamble alone: the socket becomes its connection to the sender, and no
// record is made for the node in From.
func TestTCPRoutedUserFrameNamesNoConnection(t *testing.T) {
	dials := countDials(t)
	n := NewTCPNetwork()
	defer n.Close()
	recv := newCollector()
	if _, err := n.Attach("task-node", func(*msg.Message) {}); err != nil {
		t.Fatal(err)
	}
	jm, err := n.Attach("jm", func(*msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := n.Attach("dest", recv.handle)
	if err != nil {
		t.Fatal(err)
	}
	routed := msg.New(msg.KindUser, msg.Address{Node: "task-node", Job: "j1", Task: "t1"},
		msg.Address{Node: "dest", Job: "j1", Task: "t2"}, []byte("hello"))
	if err := jm.Send("dest", routed); err != nil {
		t.Fatal(err)
	}
	got := recv.wait(t, 1, 2*time.Second)
	if m := got[0]; m.From.Node != "task-node" || m.From.Task != "t1" || m.To.Task != "t2" || string(m.Payload) != "hello" {
		t.Errorf("delivered %+v → %+v %q", m.From, m.To, m.Payload)
	}
	d := dep.(*tcpEndpoint)
	if written(d, "task-node") != nil {
		t.Error("the node named in a routed frame's From got a connection record")
	}
	if written(d, "jm") == nil {
		t.Error("the receiver did not adopt the socket as its connection to the sender")
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("%d dials, want 1", got)
	}
}

// TestTCPCloseBetweenFramesDropsNothing: an endpoint's Close ends the read
// loop of every idle connection, dialed or accepted, and none of them was
// partway through a frame, so nothing counts as dropped. A frame the peer
// cuts off partway still does.
func TestTCPCloseBetweenFramesDropsNothing(t *testing.T) {
	n := NewTCPNetwork()
	recv := newCollector()
	eps := map[string]Endpoint{}
	for _, node := range []string{"a", "b", "c"} {
		ep, err := n.Attach(node, recv.handle)
		if err != nil {
			t.Fatal(err)
		}
		eps[node] = ep
	}
	for _, p := range [][2]string{{"a", "b"}, {"b", "a"}, {"a", "c"}} {
		if err := eps[p[0]].Send(p[1], ping(p[0], p[1])); err != nil {
			t.Fatal(err)
		}
	}
	recv.wait(t, 3, 2*time.Second)
	n.Close()
	if got := n.Stats().Dropped.Load(); got != 0 {
		t.Errorf("closing idle connections counted %d dropped frames, want 0", got)
	}

	n = NewTCPNetwork()
	defer n.Close()
	victim(t, n)
	c := dialEndpoint(t, n, "victim", "raw")
	frame, err := wire.AppendFrame(nil, ping("raw", "victim"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(frame[:len(frame)-1]); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitFor(t, 2*time.Second, func() bool { return n.Stats().Dropped.Load() == 1 }, "the cut-off frame to count as dropped")
}
