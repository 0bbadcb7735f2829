package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/msg"
	"cn/internal/wire"
)

// dialEndpoint opens a raw socket to the named node's listener and writes
// the preamble of a dialer named as, which must be a node in the directory.
func dialEndpoint(t *testing.T, n *TCPNetwork, node, as string) net.Conn {
	t.Helper()
	addr, err := n.lookup(node)
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := wire.AppendConnPreamble(nil, as)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(pre); err != nil {
		t.Fatal(err)
	}
	return c
}

// victim attaches node "victim", whose handler counts what it is handed,
// and node "raw", the name a raw socket to the victim announces.
func victim(t *testing.T, n *TCPNetwork) *atomic.Int32 {
	t.Helper()
	received := new(atomic.Int32)
	if _, err := n.Attach("victim", func(*msg.Message) { received.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach("raw", func(*msg.Message) {}); err != nil {
		t.Fatal(err)
	}
	return received
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTCPInboundOversizedLengthRejected: a hostile length prefix far past
// MaxFrameBytes must drop the connection with a frame error — before any
// allocation for the announced body.
func TestTCPInboundOversizedLengthRejected(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	received := victim(t, n)
	c := dialEndpoint(t, n, "victim", "raw")
	defer c.Close()

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<31) // 2 GiB announced
	if _, err := c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return n.Stats().FrameErrors.Load() == 1 }, "frame error counter")

	// The reader must have hung up on us.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(hdr[:]); err == nil {
		t.Error("connection still open after oversized frame")
	}
	if got := received.Load(); got != 0 {
		t.Errorf("handler invoked %d times for garbage", got)
	}
}

// TestTCPInboundCorruptFrameRejected: a plausible length followed by
// garbage bytes must error out and drop the connection, never panic.
func TestTCPInboundCorruptFrameRejected(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	victim(t, n)
	c := dialEndpoint(t, n, "victim", "raw")
	defer c.Close()

	body := []byte("this is not a CN frame body at all, just junk")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := c.Write(append(hdr[:], body...)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return n.Stats().FrameErrors.Load() == 1 }, "frame error counter")
}

// TestTCPInboundHostileTailRejected: a tail length that does not fit the
// frame that carries it drops the connection with a frame error, like any
// other malformed frame — the reader neither waits for the bytes it
// promises nor delivers anything.
func TestTCPInboundHostileTailRejected(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	received := victim(t, n)
	c := dialEndpoint(t, n, "victim", "raw")
	defer c.Close()

	reply := msg.New(msg.KindBlobChunkAck, msg.Address{Node: "x"}, msg.Address{Node: "victim"}, nil)
	reply.CorrelID = 1
	reply.Tail = make([]byte, 1024)
	frame, err := wire.AppendFrameHead(nil, reply)
	if err != nil {
		t.Fatal(err)
	}
	// The tail length word follows the prefix, magic and version byte.
	binary.BigEndian.PutUint32(frame[wire.FrameHeaderBytes+3:], wire.MaxFrameBytes)
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return n.Stats().FrameErrors.Load() == 1 }, "frame error counter")
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Error("connection still open after a hostile tail length")
	}
	if got := received.Load(); got != 0 {
		t.Errorf("handler invoked %d times for garbage", got)
	}
}

// TestSenderRefusesOversizedFrame: the guard is symmetric and applies on
// BOTH fabrics — a sender must fail an oversized message cleanly (the
// simulated substrate must not accept traffic TCP would reject) and keep
// the connection usable for normal traffic.
func TestSenderRefusesOversizedFrame(t *testing.T) {
	eachNetwork(t, func(t *testing.T, n Network) {
		recv := newCollector()
		a, err := n.Attach("a", func(*msg.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Attach("b", recv.handle); err != nil {
			t.Fatal(err)
		}
		huge := msg.New(msg.KindUser, msg.Address{Node: "a"}, msg.Address{Node: "b"}, make([]byte, wire.MaxFrameBytes+1))
		if err := a.Send("b", huge); !errors.Is(err, wire.ErrFrameTooLarge) {
			t.Fatalf("oversized send = %v, want ErrFrameTooLarge", err)
		}
		// The limit is on head + tail, wherever the bytes ride.
		tailed := msg.New(msg.KindBlobChunkAck, msg.Address{Node: "a"}, msg.Address{Node: "b"}, make([]byte, 4096))
		tailed.Tail = make([]byte, wire.MaxFrameBytes-2048)
		if err := a.Send("b", tailed); !errors.Is(err, wire.ErrFrameTooLarge) {
			t.Fatalf("oversized head+tail send = %v, want ErrFrameTooLarge", err)
		}
		if err := a.Multicast("g", tailed); !errors.Is(err, wire.ErrFrameTooLarge) {
			t.Fatalf("oversized head+tail multicast = %v, want ErrFrameTooLarge", err)
		}
		if err := a.Send("b", msg.New(msg.KindPing, msg.Address{Node: "a"}, msg.Address{Node: "b"}, []byte("ok"))); err != nil {
			t.Fatal(err)
		}
		recv.wait(t, 1, 2*time.Second)
	})
}

// TestTCPMulticastSurvivesDeadMember: fan-out must reach live members even
// when another member is unreachable, and must return without waiting on
// the dead member's dial (which its writer goroutine owns).
func TestTCPMulticastSurvivesDeadMember(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	sender, err := n.Attach("s", func(*msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	live1, live2 := newCollector(), newCollector()
	for name, col := range map[string]*collector{"m1": live1, "m2": live2} {
		ep, err := n.Attach(name, col.handle)
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	// A member whose listener is gone but whose directory entry survives:
	// its dial fails, the others must be unaffected.
	n.groups.join("g", "ghost")
	n.mu.Lock()
	n.addrs["ghost"] = "127.0.0.1:1" // closed port
	n.mu.Unlock()

	start := time.Now()
	if err := sender.Multicast("g", msg.New(msg.KindPing, msg.Address{Node: "s"}, msg.Address{}, nil)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("Multicast blocked %v behind a dead member", elapsed)
	}
	live1.wait(t, 1, 2*time.Second)
	live2.wait(t, 1, 2*time.Second)
}

// listeners counts this process's TCP sockets in the LISTEN state, matching
// the socket inodes behind /proc/self/fd against /proc/net/tcp; ok is false
// where those files are not there to read.
func listeners() (n int, ok bool) {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	table, err := os.ReadFile("/proc/net/tcp")
	if err != nil {
		return 0, false
	}
	mine := make(map[string]bool)
	for _, fd := range fds {
		link, err := os.Readlink("/proc/self/fd/" + fd.Name())
		if inode, found := strings.CutPrefix(link, "socket:["); err == nil && found {
			mine[strings.TrimSuffix(inode, "]")] = true
		}
	}
	for _, line := range strings.Split(string(table), "\n")[1:] {
		// sl local rem st tx:rx tr:when retrnsmt uid timeout inode ...
		if f := strings.Fields(line); len(f) > 9 && f[3] == "0A" && mine[f[9]] {
			n++
		}
	}
	return n, true
}

// TestTCPConcurrentAttachOneWinner: sixteen Attaches of one name race.
// Exactly one wins, the others fail with ErrDuplicateNode, and once the
// fabric is closed no listener any of them opened is still accepting.
func TestTCPConcurrentAttachOneWinner(t *testing.T) {
	before, canCount := listeners()
	n := NewTCPNetwork()
	const racers = 16
	start := make(chan struct{})
	errs := make(chan error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := n.Attach("x", func(*msg.Message) {})
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	won := 0
	for err := range errs {
		switch {
		case err == nil:
			won++
		case !errors.Is(err, ErrDuplicateNode):
			t.Errorf("losing Attach = %v, want ErrDuplicateNode", err)
		}
	}
	if won != 1 {
		t.Errorf("%d of %d concurrent Attaches of one name succeeded, want 1", won, racers)
	}
	n.Close()
	if _, err := n.Attach("y", func(*msg.Message) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("Attach after Close = %v, want ErrClosed", err)
	}
	if !canCount {
		t.Skip("no /proc to count listening sockets in")
	}
	if after, _ := listeners(); after != before {
		t.Errorf("%d listening sockets after Close, %d before the Attaches", after, before)
	}
}

// TestTCPSlowConsumerDropsConnection: a peer that accepts but never reads
// must trip tcpWriteTimeout, get its connection dropped, and fail the
// queued frames with ErrSlowConsumer — distinct from a dead peer's dial
// error — while the stats stay consistent (every successfully enqueued
// frame ends up either Sent or Dropped, and the queue drains to zero).
func TestTCPSlowConsumerDropsConnection(t *testing.T) {
	defer func(w time.Duration, d func(string, string, time.Duration) (net.Conn, error)) {
		tcpWriteTimeout, tcpDial = w, d
	}(tcpWriteTimeout, tcpDial)
	tcpWriteTimeout = 200 * time.Millisecond
	// Shrink the sender's socket buffer so the stalled reader wedges the
	// writev within a few frames instead of megabytes.
	realDial := tcpDial
	tcpDial = func(network, addr string, d time.Duration) (net.Conn, error) {
		c, err := realDial(network, addr, d)
		if tc, ok := c.(*net.TCPConn); ok && err == nil {
			tc.SetWriteBuffer(16 << 10)
		}
		return c, err
	}

	n := NewTCPNetwork()
	defer n.Close()
	ep, err := n.Attach("a", func(*msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	a := ep.(*tcpEndpoint)

	// The slow consumer: accepts the connection, then never reads a byte.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var stalledMu sync.Mutex
	var stalled []net.Conn
	defer func() {
		stalledMu.Lock()
		defer stalledMu.Unlock()
		for _, c := range stalled {
			c.Close()
		}
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			stalledMu.Lock()
			stalled = append(stalled, c)
			stalledMu.Unlock()
		}
	}()
	n.mu.Lock()
	n.addrs["stall"] = ln.Addr().String()
	n.mu.Unlock()

	// Flood bulk frames from a goroutine until the pipe failure surfaces
	// through Send; count how many were accepted into the queue.
	var enqueued atomic.Int64
	var finalErr error
	done := make(chan struct{})
	chunk := make([]byte, 128<<10)
	go func() {
		defer close(done)
		for {
			err := ep.Send("stall", msg.New(msg.KindBlobChunk, msg.Address{Node: "a"}, msg.Address{Node: "stall"}, chunk))
			if err != nil {
				finalErr = err
				return
			}
			enqueued.Add(1)
		}
	}()

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sender never saw the slow-consumer failure")
	}
	if !errors.Is(finalErr, ErrSlowConsumer) {
		t.Fatalf("sender failed with %v, want ErrSlowConsumer", finalErr)
	}
	// The connection record must be retired so the next send re-dials.
	a.mu.Lock()
	_, still := a.conns["stall"]
	a.mu.Unlock()
	if still {
		t.Error("slow consumer's connection record not forgotten")
	}
	// Accounting: the queue drains to zero and every accepted frame is
	// either on the wire or counted dropped (never both, never lost).
	waitFor(t, 2*time.Second, func() bool { return n.Stats().QueueDepth.Load() == 0 }, "queue depth zero")
	waitFor(t, 2*time.Second, func() bool {
		return n.Stats().Sent.Load()+n.Stats().Dropped.Load() == enqueued.Load()
	}, "sent+dropped == enqueued")
	if n.Stats().BulkDrops.Load() == 0 {
		t.Error("bulk drop counter never moved for the failed frames")
	}
}

// TestWireByteAccounting: both fabrics must charge identical encoded sizes
// for the same message, and count sends by kind.
func TestWireByteAccounting(t *testing.T) {
	m := msg.New(msg.KindHeartbeat, msg.Address{Node: "a"}, msg.Address{Node: "b"}, []byte("beatbeat"))
	// A bulk tail is counted like any other byte of the frame, on both
	// fabrics, whether or not it was ever copied.
	m.Tail = make([]byte, 10_000)
	want := int64(wire.FrameHeaderBytes + wire.EncodedSize(m))
	if want < 10_000 {
		t.Fatalf("encoded size %d does not count the tail", want)
	}

	eachNetwork(t, func(t *testing.T, netw Network) {
		recv := newCollector()
		a, err := netw.Attach("a", func(*msg.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := netw.Attach("b", recv.handle); err != nil {
			t.Fatal(err)
		}
		if err := a.Send("b", m.Clone()); err != nil {
			t.Fatal(err)
		}
		recv.wait(t, 1, 2*time.Second)
		var stats *Stats
		switch x := netw.(type) {
		case *MemNetwork:
			stats = x.Stats()
		case *TCPNetwork:
			stats = x.Stats()
		}
		waitFor(t, 2*time.Second, func() bool { return stats.BytesRecv.Load() == want }, "byte counters")
		snap := stats.Wire()
		if snap.BytesSent != want || snap.BytesRecv != want {
			t.Errorf("bytes sent/recv = %d/%d, want %d", snap.BytesSent, snap.BytesRecv, want)
		}
		if snap.ByKind["HEARTBEAT"] != 1 {
			t.Errorf("by-kind counters = %v", snap.ByKind)
		}
	})
}
