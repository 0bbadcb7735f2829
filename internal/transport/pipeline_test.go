package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/health"
	"cn/internal/msg"
)

// TestLaneClassification: chunks and a job's stream — user messages and the
// TASK_EVENTS batches that end in the job's end — ride bulk; everything that
// must never wait rides control.
func TestLaneClassification(t *testing.T) {
	for _, k := range []msg.Kind{msg.KindHeartbeat, msg.KindHeartbeatAck, msg.KindTSOut,
		msg.KindTSIn, msg.KindTSReply, msg.KindDataPut, msg.KindDataResolve, msg.KindDataLoc,
		msg.KindJMCheckpoint, msg.KindJMAdopt, msg.KindExecTask, msg.KindPing,
		msg.KindJobFailed, msg.KindCancelJob} {
		if laneOf(k) != laneControl {
			t.Errorf("%v classified bulk, want control", k)
		}
	}
	for _, k := range []msg.Kind{msg.KindBlobChunk, msg.KindBlobChunkAck,
		msg.KindDataFetch, msg.KindUser, msg.KindBroadcast, msg.KindTaskEvents} {
		if laneOf(k) != laneBulk {
			t.Errorf("%v classified control, want bulk", k)
		}
	}
}

// TestPipeControlOvertakesBulk: a control frame enqueued AFTER bulk frames
// must come out of the batch ahead of all of them.
func TestPipeControlOvertakesBulk(t *testing.T) {
	var stats Stats
	p := newOutPipe(&stats)
	for i := 0; i < 3; i++ {
		if err := p.enqueue(outFrame{kind: msg.KindBlobChunk, size: 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.enqueue(outFrame{kind: msg.KindHeartbeat, size: 1}); err != nil {
		t.Fatal(err)
	}
	var batch []outFrame
	if !p.popBatch(nil, &batch) {
		t.Fatal("popBatch reported closed")
	}
	if len(batch) != 4 {
		t.Fatalf("batch size %d, want 4 (coalesced)", len(batch))
	}
	if batch[0].kind != msg.KindHeartbeat {
		t.Errorf("batch head is %v, want the later-enqueued HEARTBEAT", batch[0].kind)
	}
	if stats.QueueDepth.Load() != 0 {
		t.Errorf("queue depth %d after drain, want 0", stats.QueueDepth.Load())
	}
}

// TestPipeFlushBytesBounded: one flush takes all control but caps bulk at
// pipeFlushMaxBytes, so a deep bulk queue cannot stretch a single writev
// (and the control latency it bounds) arbitrarily.
func TestPipeFlushBytesBounded(t *testing.T) {
	var stats Stats
	p := newOutPipe(&stats)
	frame := pipeFlushMaxBytes / 2
	for i := 0; i < 5; i++ {
		if err := p.enqueue(outFrame{kind: msg.KindBlobChunk, size: frame}); err != nil {
			t.Fatal(err)
		}
	}
	var batch []outFrame
	p.popBatch(nil, &batch)
	if len(batch) != 2 {
		t.Errorf("first flush coalesced %d bulk frames, want 2 (%d-byte cap)", len(batch), pipeFlushMaxBytes)
	}
	p.popBatch(nil, &batch)
	if len(batch) != 2 {
		t.Errorf("second flush coalesced %d bulk frames, want 2", len(batch))
	}
	p.popBatch(nil, &batch)
	if len(batch) != 1 {
		t.Errorf("third flush coalesced %d bulk frames, want 1", len(batch))
	}
}

// TestPipeBulkBackpressureAndControlNeverBlocks: a full bulk lane blocks
// the sender until the deadline then fails with ErrBackpressure; a full
// control lane drops with a counter and never blocks.
func TestPipeBulkBackpressureAndControlNeverBlocks(t *testing.T) {
	defer func(c, b int, w time.Duration) { pipeControlCap, pipeBulkCap, pipeEnqueueWait = c, b, w }(
		pipeControlCap, pipeBulkCap, pipeEnqueueWait)
	pipeControlCap, pipeBulkCap, pipeEnqueueWait = 2, 2, 50*time.Millisecond

	var stats Stats
	p := newOutPipe(&stats) // no writer: nothing drains
	for i := 0; i < 2; i++ {
		if err := p.enqueue(outFrame{kind: msg.KindBlobChunk, size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	err := p.enqueue(outFrame{kind: msg.KindBlobChunk, size: 8})
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("bulk enqueue on full lane = %v, want ErrBackpressure", err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("bulk enqueue failed after %v, want to block ~%v first", d, pipeEnqueueWait)
	}
	if stats.BulkDrops.Load() != 1 {
		t.Errorf("bulk drops = %d, want 1", stats.BulkDrops.Load())
	}

	for i := 0; i < 3; i++ {
		start := time.Now()
		err := p.enqueue(outFrame{kind: msg.KindHeartbeat, size: 1})
		if i < 2 && err != nil {
			t.Fatalf("control enqueue %d: %v", i, err)
		}
		if i == 2 && !errors.Is(err, ErrShed) {
			t.Errorf("control enqueue on a full lane = %v, want ErrShed", err)
		}
		if d := time.Since(start); d > 20*time.Millisecond {
			t.Errorf("control enqueue blocked %v", d)
		}
	}
	if stats.ControlDrops.Load() != 1 {
		t.Errorf("control drops = %d, want 1 (cap 2, 3 enqueued)", stats.ControlDrops.Load())
	}
}

// TestPipeFailDrainsQueueOnce: fail must drop every queued frame with the
// one shared error, and later enqueues must return it.
func TestPipeFailDrainsQueueOnce(t *testing.T) {
	var stats Stats
	p := newOutPipe(&stats)
	for i := 0; i < 4; i++ {
		if err := p.enqueue(outFrame{kind: msg.KindPing, size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("dial exploded")
	p.fail(boom)
	if got := stats.Dropped.Load(); got != 4 {
		t.Errorf("dropped = %d, want 4", got)
	}
	if got := stats.QueueDepth.Load(); got != 0 {
		t.Errorf("queue depth = %d, want 0", got)
	}
	if err := p.enqueue(outFrame{kind: msg.KindPing, size: 1}); !errors.Is(err, boom) {
		t.Errorf("enqueue after fail = %v, want the fail error", err)
	}
	if p.popBatch(nil, new([]outFrame)) {
		t.Error("popBatch on failed pipe reported frames")
	}
}

// TestTCPSendDoesNotBlockOnDial: the acceptance criterion — Send to an
// undialed peer must return immediately while the writer goroutine eats
// the dial latency.
func TestTCPSendDoesNotBlockOnDial(t *testing.T) {
	realDial := tcpDial
	defer func() { tcpDial = realDial }()
	tcpDial = func(network, addr string, d time.Duration) (net.Conn, error) {
		time.Sleep(300 * time.Millisecond) // a slow peer, far short of tcpDialTimeout
		return realDial(network, addr, d)
	}

	n := NewTCPNetwork()
	defer n.Close()
	recv := newCollector()
	a, err := n.Attach("a", func(*msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach("b", recv.handle); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := a.Send("b", msg.New(msg.KindPing, msg.Address{Node: "a"}, msg.Address{Node: "b"}, nil)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("Send blocked %v waiting for the dial, want immediate return", d)
	}
	recv.wait(t, 1, 2*time.Second) // still delivered once the dial lands
}

// TestTailCountsAgainstBulkBudget: the bulk lane's byte budget is a budget
// on what goes on the wire, and a frame's tail goes on the wire — a chunk
// whose head is a hundred bytes must fill the lane like the 32 KiB it is.
// The writer is held in its dial so the queue can only grow.
func TestTailCountsAgainstBulkBudget(t *testing.T) {
	defer func(b int, w time.Duration) { pipeBulkBytes, pipeEnqueueWait = b, w }(pipeBulkBytes, pipeEnqueueWait)
	pipeBulkBytes, pipeEnqueueWait = 64<<10, 50*time.Millisecond
	realDial := tcpDial
	defer func() { tcpDial = realDial }()
	dialing, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	tcpDial = func(network, addr string, d time.Duration) (net.Conn, error) {
		close(dialing)
		<-release
		return nil, fmt.Errorf("dial abandoned (simulated)")
	}

	n := NewTCPNetwork()
	defer n.Close()
	a, err := n.Attach("a", func(*msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach("b", func(*msg.Message) {}); err != nil {
		t.Fatal(err)
	}
	chunk := func() *msg.Message {
		m := msg.New(msg.KindBlobChunkAck, msg.Address{Node: "a"}, msg.Address{Node: "b"}, nil)
		m.Tail = make([]byte, 32<<10)
		return m
	}
	if err := a.Send("b", chunk()); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	<-dialing
	if err := a.Send("b", chunk()); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("second 32 KiB chunk into a 64 KiB lane = %v, want ErrBackpressure (heads alone would never fill it)", err)
	}
	if got := n.Stats().BulkDrops.Load(); got != 1 {
		t.Errorf("bulk drops = %d, want 1", got)
	}
}

// TestTCPDialFailureFailsBatchOnce: senders that queued behind a dead
// peer's dial must all fail from the ONE dial attempt — not each eat its
// own timeout serially, the pre-pipeline poisoning behavior.
func TestTCPDialFailureFailsBatchOnce(t *testing.T) {
	realDial := tcpDial
	defer func() { tcpDial = realDial }()
	var dials atomic.Int32
	tcpDial = func(network, addr string, d time.Duration) (net.Conn, error) {
		dials.Add(1)
		time.Sleep(100 * time.Millisecond)
		return nil, fmt.Errorf("connection refused (simulated)")
	}

	n := NewTCPNetwork()
	defer n.Close()
	a, err := n.Attach("a", func(*msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach("dead", func(*msg.Message) {}); err != nil {
		t.Fatal(err)
	}
	const queued = 10
	start := time.Now()
	for i := 0; i < queued; i++ {
		if err := a.Send("dead", msg.New(msg.KindPing, msg.Address{Node: "a"}, msg.Address{Node: "dead"}, nil)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("%d sends took %v, want all to enqueue without dialing", queued, d)
	}
	waitFor(t, 2*time.Second, func() bool { return n.Stats().Dropped.Load() >= queued }, "batch failure")
	if got := dials.Load(); got != 1 {
		t.Errorf("dead peer dialed %d times for %d queued frames, want 1", got, queued)
	}
	if got := n.Stats().ControlDrops.Load(); got != queued {
		t.Errorf("control drops = %d, want %d", got, queued)
	}
}

// TestTCPCoalescing: frames queued while the writer is busy must flush in
// coalesced writev batches — fewer flushes than frames.
func TestTCPCoalescing(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	var got atomic.Int64
	a, err := n.Attach("a", func(*msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach("b", func(*msg.Message) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	const frames = 400
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames/8; i++ {
				_ = a.Send("b", msg.New(msg.KindPing, msg.Address{Node: "a"}, msg.Address{Node: "b"}, []byte("x")))
			}
		}()
	}
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool { return got.Load() == frames }, "all frames delivered")
	// The writer counts a batch after its writev returns, which the reader
	// at the other end of the loopback can beat.
	waitFor(t, 5*time.Second, func() bool { return n.Stats().Sent.Load() >= frames }, "all frames counted as sent")
	sent, flushes := n.Stats().Sent.Load(), n.Stats().Flushes.Load()
	if sent != frames {
		t.Fatalf("sent = %d, want %d", sent, frames)
	}
	if flushes >= sent {
		t.Errorf("flushes = %d for %d frames: no coalescing happened", flushes, sent)
	}
	if hist := n.Stats().BatchSizes(); len(hist) == 0 {
		t.Error("batch-size histogram is empty")
	}
}

// TestMemBackpressureSemantics: the in-memory fabric must exhibit the same
// lane behavior as TCP — bulk backpressure surfaces to senders, control
// drops instead of blocking — so these bugs are catchable without sockets.
func TestMemBackpressureSemantics(t *testing.T) {
	defer func(c, b int, w time.Duration) { pipeControlCap, pipeBulkCap, pipeEnqueueWait = c, b, w }(
		pipeControlCap, pipeBulkCap, pipeEnqueueWait)
	pipeControlCap, pipeBulkCap, pipeEnqueueWait = 4, 2, 50*time.Millisecond

	n := NewMemNetwork(MemConfig{QueueLen: 1})
	defer n.Close()
	block := make(chan struct{})
	a, err := n.Attach("a", func(*msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach("wedged", func(*msg.Message) { <-block }); err != nil {
		t.Fatal(err)
	}
	defer close(block)

	// Saturate: the wedged handler blocks the dispatcher, the 1-deep inbox
	// fills, the writer blocks delivering, the 2-deep bulk lane fills.
	var sawBackpressure bool
	for i := 0; i < 20 && !sawBackpressure; i++ {
		err := a.Send("wedged", msg.New(msg.KindUser, msg.Address{Node: "a"}, msg.Address{Node: "wedged"}, []byte("bulk")))
		sawBackpressure = errors.Is(err, ErrBackpressure)
	}
	if !sawBackpressure {
		t.Fatal("bulk sends to a wedged consumer never hit ErrBackpressure")
	}
	// Control sends must keep succeeding-or-shedding without blocking, and
	// every shed one is reported.
	var shed int64
	for i := 0; i < 10; i++ {
		start := time.Now()
		err := a.Send("wedged", msg.New(msg.KindHeartbeat, msg.Address{Node: "a"}, msg.Address{Node: "wedged"}, nil))
		switch {
		case errors.Is(err, ErrShed):
			shed++
		case err != nil:
			t.Fatalf("control send: %v", err)
		}
		if d := time.Since(start); d > 20*time.Millisecond {
			t.Fatalf("control send blocked %v behind a saturated bulk lane", d)
		}
	}
	if shed == 0 {
		t.Error("control lane never shed despite exceeding its cap")
	}
	if got := n.Stats().ControlDrops.Load(); got != shed {
		t.Errorf("control drops = %d, ErrShed returned %d times", got, shed)
	}
}

// TestHeartbeatsSurviveBulkStorm: lease renewals on the control lane must
// keep flowing while bulk streams saturate the same connection — the
// failure detector must see NO suspect or dead transition. Before the
// priority lanes, a megabyte chunk train would serialize ahead of the
// heartbeat and starve the lease into a false positive.
func TestHeartbeatsSurviveBulkStorm(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()

	mon := health.NewMonitor(health.Config{
		SuspectAfter: 400 * time.Millisecond,
		DeadAfter:    800 * time.Millisecond,
	})
	defer mon.Close()
	events, unsub := mon.Subscribe()
	defer unsub()

	jmEP, err := n.Attach("jm", func(m *msg.Message) {
		switch m.Kind {
		case msg.KindHeartbeat:
			mon.Observe("tm")
		case msg.KindBlobChunk:
			time.Sleep(2 * time.Millisecond) // a busy receiver: chunk verify + cache insert
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = jmEP
	tm, err := n.Attach("tm", func(*msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	mon.Watch("tm")
	mon.Observe("tm")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	chunk := make([]byte, 256<<10)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = tm.Send("jm", msg.New(msg.KindBlobChunk, msg.Address{Node: "tm"}, msg.Address{Node: "jm"}, chunk))
			}
		}()
	}
	// Heartbeat every 50ms for 1.2s while the storm runs.
	for i := 0; i < 24; i++ {
		if err := tm.Send("jm", msg.New(msg.KindHeartbeat, msg.Address{Node: "tm"}, msg.Address{Node: "jm"}, nil)); err != nil {
			t.Fatalf("heartbeat send: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	for {
		select {
		case ev := <-events:
			if ev.State != health.StateAlive {
				t.Fatalf("node %s transitioned to %v during the bulk storm", ev.Node, ev.State)
			}
		default:
			if mon.State("tm") != health.StateAlive {
				t.Fatalf("tm is %v after the storm, want alive", mon.State("tm"))
			}
			return
		}
	}
}

// BenchmarkHeartbeatUnderBulkStorm: the one-way latency of a heartbeat
// while 24 goroutines keep 256 KiB blob chunks flowing over the same TCP
// connection. An op is 100 probes, 3 ms apart; hb_p50_ms and hb_p99_ms are
// taken over every probe of the run. The kernel send buffer is bounded to
// 64 KiB: bytes already in the kernel drain in order whatever their lane,
// so an unbounded SO_SNDBUF would measure how much bulk it absorbs, not
// the send path.
//
//	go test ./internal/transport -run '^$' -bench HeartbeatUnderBulkStorm -benchtime 1x
func BenchmarkHeartbeatUnderBulkStorm(b *testing.B) {
	const probes, interval = 100, 3 * time.Millisecond
	n := NewTCPNetwork()
	n.SetSendBuffer(64 << 10)
	defer n.Close()

	var mu sync.Mutex
	var lats []time.Duration
	if _, err := n.Attach("jm", func(m *msg.Message) {
		if m.Kind == msg.KindHeartbeat && len(m.Payload) == 8 {
			sentAt := time.Unix(0, int64(binary.BigEndian.Uint64(m.Payload)))
			mu.Lock()
			lats = append(lats, time.Since(sentAt))
			mu.Unlock()
		}
	}); err != nil {
		b.Fatal(err)
	}
	tm, err := n.Attach("tm", func(*msg.Message) {})
	if err != nil {
		b.Fatal(err)
	}
	arrived := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(lats)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		n.Close() // fails a send blocked on backpressure at once
		wg.Wait()
	}()
	chunk := make([]byte, 256<<10)
	for w := 0; w < 24; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// A full bulk lane answers ErrBackpressure; the storm keeps pushing.
				_ = tm.Send("jm", msg.New(msg.KindBlobChunk, msg.Address{Node: "tm"}, msg.Address{Node: "jm"}, chunk))
			}
		}()
	}
	time.Sleep(100 * time.Millisecond) // let the storm reach saturation

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < probes; p++ {
			ts := make([]byte, 8)
			binary.BigEndian.PutUint64(ts, uint64(time.Now().UnixNano()))
			if err := tm.Send("jm", msg.New(msg.KindHeartbeat, msg.Address{Node: "tm"}, msg.Address{Node: "jm"}, ts)); err != nil {
				b.Fatalf("heartbeat probe: %v", err)
			}
			time.Sleep(interval)
		}
	}
	// Stragglers may still be crossing the congested connection.
	sent := b.N * probes
	for deadline := time.Now().Add(15 * time.Second); arrived() < sent && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	b.StopTimer()

	mu.Lock()
	defer mu.Unlock()
	if len(lats) < sent*9/10 {
		b.Fatalf("only %d of %d heartbeat probes arrived", len(lats), sent)
	}
	slices.Sort(lats)
	q := func(p float64) float64 {
		return float64(lats[int(p*float64(len(lats)-1))]) / float64(time.Millisecond)
	}
	b.ReportMetric(q(0.5), "hb_p50_ms")
	b.ReportMetric(q(0.99), "hb_p99_ms")
}
