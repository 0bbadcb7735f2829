package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/msg"
	"cn/internal/wire"
)

// selfNode attaches node "a", alone, to a fresh TCP fabric, and counts every
// dial the fabric makes from then on.
func selfNode(t testing.TB, handler Handler) (*TCPNetwork, *tcpEndpoint, *atomic.Int32) {
	t.Helper()
	dials := countDials(t)
	n := NewTCPNetwork()
	t.Cleanup(func() { n.Close() })
	ep, err := n.Attach("a", handler)
	if err != nil {
		t.Fatal(err)
	}
	return n, ep.(*tcpEndpoint), dials
}

// selfMsg is a message from node a to node a, numbered by a header.
func selfMsg(kind msg.Kind, seq string) *msg.Message {
	return msg.New(kind, msg.Address{Node: "a"}, msg.Address{Node: "a"}, nil).SetHeader("seq", seq)
}

// TestTCPSelfNeverDials: a Send, a Call and a Multicast from a node to
// itself are delivered without a socket — no dial, no accepted connection,
// no connection record for the node itself. A unicast hands over the
// sender's message, a multicast a clone of it.
func TestTCPSelfNeverDials(t *testing.T) {
	var (
		ep     *tcpEndpoint
		caller *Caller
	)
	recv := newCollector()
	_, ep, dials := selfNode(t, func(m *msg.Message) {
		if caller.Handle(m) {
			return
		}
		recv.handle(m)
		if m.Kind == msg.KindPing {
			if err := ep.Send(m.From.Node, m.Reply(msg.KindPong, nil)); err != nil {
				t.Errorf("reply: %v", err)
			}
		}
	})
	caller = NewCaller(ep)
	if err := ep.Join("g"); err != nil {
		t.Fatal(err)
	}
	uni := selfMsg(msg.KindUser, "uni")
	if err := ep.Send("a", uni); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if r, err := caller.Call(ctx, "a", selfMsg(msg.KindPing, "call")); err != nil || r.Kind != msg.KindPong {
		t.Fatalf("self call: %v, %v", r, err)
	}
	multi := selfMsg(msg.KindBroadcast, "multi")
	if err := ep.Multicast("g", multi); err != nil {
		t.Fatal(err)
	}
	got := recv.wait(t, 3, 5*time.Second)
	for _, m := range got {
		switch m.Header("seq") {
		case "uni":
			if m != uni {
				t.Error("a self unicast was not handed the sender's message")
			}
		case "multi":
			if m == multi {
				t.Error("the own-node member of a multicast was handed the sender's message, not a clone")
			}
		}
	}
	if n := dials.Load(); n != 0 {
		t.Errorf("%d dials for frames a node sent itself", n)
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if _, ok := ep.conns["a"]; ok || len(ep.conns) != 0 {
		t.Errorf("connection records %v, want none", ep.conns)
	}
	if len(ep.socks) != 0 {
		t.Errorf("%d sockets, want none", len(ep.socks))
	}
}

// TestTCPSelfLaneOrder: self frames keep a socket's order rules — FIFO
// within a lane, and control overtakes bulk still queued.
func TestTCPSelfLaneOrder(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var (
		mu  sync.Mutex
		got []string
	)
	_, ep, _ := selfNode(t, func(m *msg.Message) {
		if m.Header("seq") == "hold" {
			close(entered)
			<-release
			return
		}
		mu.Lock()
		got = append(got, m.Header("seq"))
		mu.Unlock()
	})
	if err := ep.Send("a", selfMsg(msg.KindPing, "hold")); err != nil {
		t.Fatal(err)
	}
	<-entered // the delivering goroutine is busy: everything below queues
	var want []string
	for _, lane := range []string{"bulk", "control"} {
		for i := 0; i < 5; i++ {
			want = append(want, fmt.Sprintf("%s%d", lane, i))
		}
	}
	for i := 0; i < 5; i++ {
		if err := ep.Send("a", selfMsg(msg.KindUser, fmt.Sprintf("bulk%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := ep.Send("a", selfMsg(msg.KindPong, fmt.Sprintf("control%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	want = append(want[5:], want[:5]...) // control first
	waitFor(t, 5*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == len(want) }, "ten frames")
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
}

// TestTCPSelfOversizedFails: the wire-size limit holds for a frame that
// never touches the wire — the Send fails at once with ErrFrameTooLarge,
// the hook has fired, and nothing is delivered.
func TestTCPSelfOversizedFails(t *testing.T) {
	recv := newCollector()
	n, ep, _ := selfNode(t, recv.handle)
	m, fired := hooked(msg.KindBlobChunkAck, "a")
	m.Tail = make([]byte, wire.MaxFrameBytes+1)
	if err := ep.Send("a", m); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("oversized self Send = %v, want ErrFrameTooLarge", err)
	}
	if fired.Load() != 1 {
		t.Errorf("hook fired %d times by the time the refused Send returned", fired.Load())
	}
	if err := ep.Send("a", selfMsg(msg.KindPing, "marker")); err != nil {
		t.Fatal(err)
	}
	if got := recv.wait(t, 1, 5*time.Second); len(got) != 1 || got[0].Header("seq") != "marker" {
		t.Errorf("delivered %v, want the marker alone", got)
	}
	if sent := n.Stats().Sent.Load(); sent != 1 {
		t.Errorf("%d frames counted sent, want 1", sent)
	}
}

// TestTCPSelfTail: a tail sent to self is delivered under TCP's rules. It is
// copied once — into the buffer a CallInto posted, or into one of its own —
// and the sender's hook fires exactly once, after the copy: the receiver
// never aliases the buffer the sender was told it could reuse.
func TestTCPSelfTail(t *testing.T) {
	t.Run("unposted", func(t *testing.T) {
		recv := newCollector()
		n, ep, _ := selfNode(t, recv.handle)
		m, fired := hooked(msg.KindBlobChunkAck, "a")
		sent := m.Tail
		if err := ep.Send("a", m); err != nil {
			t.Fatal(err)
		}
		got := recv.wait(t, 1, 5*time.Second)[0]
		if fired.Load() != 1 {
			t.Fatalf("hook fired %d times by the time the handler ran", fired.Load())
		}
		for i := range sent {
			sent[i] = 0xDB // the sender's buffer is reused at once
		}
		if &got.Tail[0] == &sent[0] || !bytes.Equal(got.Tail, bytes.Repeat([]byte{0x5a}, len(sent))) {
			t.Error("the receiver's tail aliases the sender's buffer")
		}
		if got.TailDone != nil {
			t.Error("the hook travelled")
		}
		firedOnce(t, n, "for a delivered self frame", fired)
	})
	t.Run("posted", func(t *testing.T) {
		src := pattern(300<<10, 11)
		var fired atomic.Int32
		n, caller := selfServer(t, src, func() { fired.Add(1) })
		dst := make([]byte, 512<<10)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		reply, err := caller.CallInto(ctx, "a", selfMsg(msg.KindDataFetch, "req"), dst, 0)
		if err != nil {
			t.Fatal(err)
		}
		if &reply.Tail[0] != &dst[0] || !bytes.Equal(reply.Tail, src) {
			t.Error("the reply's tail did not land in the posted buffer")
		}
		if !bytes.Equal(dst[len(src):], make([]byte, len(dst)-len(src))) {
			t.Error("bytes past the tail were written")
		}
		firedOnce(t, n, "for a self reply read into a posted buffer", &fired)
	})
}

// selfServer attaches node "a" with a Caller, answering every DATA_FETCH
// with src as the reply's tail and done as its hook.
func selfServer(t testing.TB, src []byte, done func()) (*TCPNetwork, *Caller) {
	var (
		ep     *tcpEndpoint
		caller *Caller
	)
	n, ep, _ := selfNode(t, func(m *msg.Message) {
		if caller.Handle(m) || m.Kind != msg.KindDataFetch {
			return
		}
		r := tailReply(m, src)
		r.TailDone = done
		if err := ep.Send(m.From.Node, r); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	caller = NewCaller(ep)
	return n, caller
}

// TestTCPSelfCallIntoAllocs: a self CallInto whose 768 KiB reply tail lands
// in the posted buffer allocates nothing the size of the tail — the copy is
// the only move the bytes make.
func TestTCPSelfCallIntoAllocs(t *testing.T) {
	src := pattern(768<<10, 12)
	_, caller := selfServer(t, src, nil)
	dst := make([]byte, len(src))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	call := func() {
		reply, err := caller.CallInto(ctx, "a", selfMsg(msg.KindDataFetch, "req"), dst, 0)
		if err != nil || &reply.Tail[0] != &dst[0] {
			t.Fatalf("self CallInto: %v (tail in the posted buffer: %v)", err, err == nil && &reply.Tail[0] == &dst[0])
		}
	}
	call()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			call()
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 4<<10 {
		t.Errorf("a self CallInto of a 768 KiB tail allocates %d bytes (%d allocs), want under 4 KiB", got, res.AllocsPerOp())
	} else {
		t.Logf("a self CallInto of a 768 KiB tail allocates %d bytes in %d allocs", got, res.AllocsPerOp())
	}
	if !bytes.Equal(dst, src) {
		t.Error("the posted buffer does not hold the tail")
	}
}

// TestTCPSelfClose: Close drops the self frames still queued and those the
// delivering goroutine had taken but not yet handed over — each hook fires
// once — waits for a handler already running, and no handler runs after it
// returns.
func TestTCPSelfClose(t *testing.T) {
	entered, release := make(chan struct{}, 2), make(chan struct{})
	var closed atomic.Bool
	var ran atomic.Int32
	n, ep, _ := selfNode(t, func(m *msg.Message) {
		if closed.Load() {
			t.Error("a handler ran after Close returned")
		}
		ran.Add(1)
		if m.Header("seq") == "hold" {
			entered <- struct{}{}
			<-release
		}
	})
	var hooks []*atomic.Int32
	send := func(kinds ...msg.Kind) {
		t.Helper()
		for _, kind := range kinds {
			m, fired := hooked(kind, "a")
			hooks = append(hooks, fired)
			if err := ep.Send("a", m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ep.Send("a", selfMsg(msg.KindPing, "hold")); err != nil {
		t.Fatal(err)
	}
	<-entered
	// Queued behind the first hold, so taken in one batch once it returns:
	// the second hold, then the two hooked frames it keeps waiting.
	if err := ep.Send("a", selfMsg(msg.KindPing, "hold")); err != nil {
		t.Fatal(err)
	}
	send(msg.KindPong, msg.KindBlobChunkAck)
	release <- struct{}{}
	<-entered
	send(msg.KindPong, msg.KindBlobChunkAck) // still in the pipe
	done := make(chan struct{})
	go func() {
		ep.Close()
		closed.Store(true)
		close(done)
	}()
	for _, fired := range hooks[2:] {
		waitFor(t, 5*time.Second, func() bool { return fired.Load() > 0 }, "a queued frame to be dropped")
	}
	select {
	case <-done:
		t.Fatal("Close returned while a handler was still running")
	default:
	}
	release <- struct{}{}
	<-done
	if got := ran.Load(); got != 2 {
		t.Errorf("the handler ran %d times, want twice", got)
	}
	for i, fired := range hooks {
		if got := fired.Load(); got != 1 {
			t.Errorf("frame %d: hook fired %d times", i, got)
		}
	}
	if got := n.Stats().Dropped.Load(); got != int64(len(hooks)) {
		t.Errorf("%d frames counted dropped, want %d", got, len(hooks))
	}
	if err := ep.Send("a", selfMsg(msg.KindPing, "late")); !errors.Is(err, ErrClosed) {
		t.Errorf("self Send after Close = %v, want ErrClosed", err)
	}
}

// TestTCPSelfCountedLocal: a self frame counts as a frame sent and
// delivered, at its encoded size, and Stats.Local counts exactly those.
func TestTCPSelfCountedLocal(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	ra, rb := newCollector(), newCollector()
	a, err := n.Attach("a", ra.handle)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach("b", rb.handle)
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range []Endpoint{a, b} {
		if err := ep.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	var selfBytes int64
	for i := 0; i < 5; i++ {
		m := selfMsg(msg.KindPing, fmt.Sprint(i))
		selfBytes += int64(wire.FrameHeaderBytes + wire.SizeOf(m))
		if err := a.Send("a", m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := a.Send("b", msg.New(msg.KindPing, msg.Address{Node: "a"}, msg.Address{Node: "b"}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Multicast("g", selfMsg(msg.KindBroadcast, "multi")); err != nil {
		t.Fatal(err)
	}
	ra.wait(t, 6, 5*time.Second)
	rb.wait(t, 4, 5*time.Second)
	s := n.Stats()
	waitFor(t, 5*time.Second, func() bool { return s.Sent.Load() == 10 }, "ten frames counted sent")
	if got := s.Local.Load(); got != 6 {
		t.Errorf("Local = %d, want the 6 self frames", got)
	}
	if got := s.Delivered.Load(); got != 10 {
		t.Errorf("Delivered = %d, want 10", got)
	}
	if got := s.KindCounts()[msg.KindPing.String()]; got != 8 {
		t.Errorf("%d PING frames counted, want 8", got)
	}
	if s.BytesSent.Load() <= selfBytes {
		t.Errorf("BytesSent %d does not cover the self frames' %d encoded bytes", s.BytesSent.Load(), selfBytes)
	}
}

// TestMemSelfSkipsLinkModel: on the in-memory fabric a node's frames to
// itself skip the latency and loss model, as they skip the socket on TCP —
// 100 self calls on a 50 ms, 50 %-loss fabric all answer, each faster than
// one leg of the model would take.
func TestMemSelfSkipsLinkModel(t *testing.T) {
	const latency = 50 * time.Millisecond
	n := NewMemNetwork(MemConfig{Latency: latency, Loss: 0.5, Seed: 1})
	defer n.Close()
	var (
		ep     Endpoint
		caller *Caller
	)
	ep, err := n.Attach("a", func(m *msg.Message) {
		if caller.Handle(m) {
			return
		}
		if err := ep.Send(m.From.Node, m.Reply(msg.KindPong, nil)); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	caller = NewCaller(ep)
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		_, err := caller.Call(ctx, "a", selfMsg(msg.KindPing, fmt.Sprint(i)))
		took := time.Since(start)
		cancel()
		if err != nil {
			t.Fatalf("self call %d: %v", i, err)
		}
		if took >= latency {
			t.Fatalf("self call %d took %v, at least the link latency %v", i, took, latency)
		}
	}
	if s := n.Stats(); s.Local.Load() != 200 || s.Dropped.Load() != 0 {
		t.Errorf("Local %d, Dropped %d; want 200 and 0", s.Local.Load(), s.Dropped.Load())
	}
}
