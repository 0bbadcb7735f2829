// Outbound pipeline: the per-destination queue machinery shared by both
// fabrics. Send encodes and enqueues onto a bounded per-peer queue and
// returns immediately; a dedicated writer goroutine per connection owns
// the dial and drains the queue, coalescing every queued frame into a
// single writev per wakeup. (A send path that held a per-connection mutex
// across the Write syscall preceded it; BenchmarkHeartbeatUnderBulkStorm
// measures the control lane's latency while bulk saturates a connection.)
//
// Two priority lanes keep the control plane live under bulk pressure:
//
//   - control: heartbeats, leases, acks, RPCs, tuple-space ops, data-plane
//     location adverts/resolves, checkpoints — everything small that must
//     never wait. Control enqueue NEVER blocks; when the lane is at
//     capacity the frame is dropped, counted, and the send fails with
//     ErrShed (a heartbeat delayed behind a megabyte of chunks is worse
//     than one skipped beat, and the periodic senders ignore the error and
//     re-send; a sender of something that is not re-sent — a tuple, a
//     reply — has to be told).
//   - bulk: archive uploads, blob chunks, direct data-plane fetch replies,
//     and a job's stream — user payloads and the TASK_EVENTS batches that
//     carry its tasks' lifecycle and, last, its end. Bulk is FIFO and
//     enqueue blocks until there is room (real backpressure), bounded by
//     pipeEnqueueWait, after which the send fails with ErrBackpressure.
//
// A job's stream is one lane so that it is one order: a task's last message
// leaves its node ahead of the batch that reports the task's end, and the
// JobManager relays both to the client in that order, so the job's end
// cannot overtake a result. Control frames still overtake the stream, which
// only ever delays a stream frame behind control frames sent before it: a
// one-way tuple-space Out or data-plane put is applied before the
// TASK_COMPLETED of the task that sent it.
//
// MemNetwork routes through the same outPipe type, so lane ordering and
// backpressure bugs surface in fast deterministic unit tests instead of
// only under real sockets.
package transport

import (
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"cn/internal/msg"
	"cn/internal/wire"
)

// Pipeline errors.
var (
	// ErrBackpressure is returned when a bulk-lane enqueue could not make
	// room within pipeEnqueueWait: the peer is not draining.
	ErrBackpressure = errors.New("transport: bulk lane full (peer not draining)")
	// ErrSlowConsumer marks a connection dropped because a frame write
	// exceeded tcpWriteTimeout: the peer is alive but not reading. Queued
	// frames fail with this error so senders can tell a wedged reader
	// from a dead peer.
	ErrSlowConsumer = errors.New("transport: peer not draining (write timeout)")
	// ErrShed is returned when the control lane to the peer is at
	// pipeControlCap and the frame was dropped instead of queued.
	ErrShed = errors.New("transport: control lane full (frame shed)")
)

// Pipeline knobs; package variables so tests can tighten them.
var (
	// pipeControlCap bounds the control lane in frames; overflow drops
	// the newest frame with a counter and ErrShed (control never blocks).
	pipeControlCap = 4096
	// pipeBulkCap and pipeBulkBytes bound the bulk lane in frames and
	// encoded bytes; a full lane blocks the sender (backpressure).
	pipeBulkCap   = 512
	pipeBulkBytes = 8 << 20
	// pipeEnqueueWait bounds how long a bulk enqueue may block before
	// failing with ErrBackpressure.
	pipeEnqueueWait = 5 * time.Second
	// pipeFlushMaxBytes caps the bulk bytes coalesced into one flush. The
	// control lane always drains whole, but bounding each bulk flush
	// bounds the time a just-queued heartbeat can sit behind an
	// in-flight writev: with an unbounded batch a full bulk lane would
	// flush as one multi-megabyte writev and control frames would wait
	// out its entire drain.
	pipeFlushMaxBytes = 256 << 10
)

// lane is an outbound priority class.
type lane int

const (
	laneControl lane = iota
	laneBulk
	laneCount
)

// laneOf classifies a message kind into its outbound lane. Everything is
// control unless it is known bulk: a misclassified small kind costs a few
// bytes of head-of-line latency, a misclassified bulk kind can starve
// lease renewals into false suspect/dead transitions. TASK_EVENTS is bulk
// because it shares a job's stream with USER and BROADCAST (see above).
func laneOf(k msg.Kind) lane {
	switch k {
	case msg.KindBlobChunk, msg.KindBlobChunkAck, msg.KindDataFetch,
		msg.KindUser, msg.KindBroadcast, msg.KindTaskEvents:
		return laneBulk
	}
	return laneControl
}

// frameRef is a reference-counted pooled encode buffer. Multicast encodes
// a frame once and enqueues the same bytes onto every member's pipeline;
// the buffer returns to the pool only after the last writer flushed (or
// dropped) its copy.
type frameRef struct {
	buf  *[]byte
	refs atomic.Int32
}

func newFrameRef(buf *[]byte, n int32) *frameRef {
	r := &frameRef{buf: buf}
	r.refs.Store(n)
	return r
}

// release drops one reference, recycling the buffer on the last one.
func (r *frameRef) release() {
	if r.refs.Add(-1) == 0 {
		wire.PutBuf(r.buf)
	}
}

// outFrame is one queued outbound transmission. The TCP fabric carries
// encoded bytes (data, backed by buf, a unicast frame's own pooled buffer,
// or by ref, a multicast's shared one); the in-memory fabric carries the
// message itself (m). A TCP unicast frame with a bulk tail carries both:
// data is its head and m.Tail — borrowed from the message, written as its
// own iovec, never copied — follows it on the wire. size is the accounted
// frame size either way, tail included, so the bulk lane's byte budget and
// flush cap bound what actually goes on the wire. done is the message's
// TailDone hook, owed one call once the borrowed tail is no longer read.
type outFrame struct {
	kind msg.Kind
	data []byte
	buf  *[]byte
	ref  *frameRef
	m    *msg.Message
	size int
	done func()
}

// release ends the frame's life in the pipeline — written or dropped; every
// queued frame gets exactly one call: its share of the encode buffer returns
// to the pool and the sender is told the tail is its own again.
func (f *outFrame) release() {
	if f.buf != nil {
		wire.PutBuf(f.buf)
	}
	if f.ref != nil {
		f.ref.release()
	}
	if f.done != nil {
		f.done()
	}
}

// outPipe is one destination's outbound pipeline: two bounded priority
// lanes filled by senders and drained in coalesced batches by a single
// writer goroutine.
type outPipe struct {
	stats *Stats

	mu        sync.Mutex
	bulkRoom  sync.Cond // bulk backpressure waiters
	wake      chan struct{}
	lanes     [laneCount][]outFrame
	bulkBytes int
	depth     int
	closed    bool
	err       error
}

func newOutPipe(stats *Stats) *outPipe {
	p := &outPipe{stats: stats, wake: make(chan struct{}, 1)}
	p.bulkRoom.L = &p.mu
	return p
}

// enqueue queues f for the writer and returns without waiting for the
// write. Control frames never block — a full lane sheds the frame and
// returns ErrShed; bulk frames block with a deadline when the lane is full.
// An enqueue on a failed pipe returns the failure (e.g. the one dial error
// the whole batch shared).
func (p *outPipe) enqueue(f outFrame) error {
	l := laneOf(f.kind)
	p.mu.Lock()
	if p.closed {
		err := p.err
		p.mu.Unlock()
		f.release()
		return err
	}
	if l == laneControl {
		if len(p.lanes[laneControl]) >= pipeControlCap {
			p.mu.Unlock()
			f.release()
			p.stats.ControlDrops.Add(1)
			p.stats.Dropped.Add(1)
			return ErrShed
		}
	} else {
		var deadline time.Time // set the first time the lane is full
		for !p.closed && len(p.lanes[laneBulk]) > 0 &&
			(len(p.lanes[laneBulk]) >= pipeBulkCap || p.bulkBytes+f.size > pipeBulkBytes) {
			if deadline.IsZero() {
				deadline = time.Now().Add(pipeEnqueueWait)
			}
			if !p.waitUntil(deadline) {
				p.mu.Unlock()
				f.release()
				p.stats.BulkDrops.Add(1)
				p.stats.Dropped.Add(1)
				return ErrBackpressure
			}
		}
		if p.closed {
			err := p.err
			p.mu.Unlock()
			f.release()
			return err
		}
		p.bulkBytes += f.size
	}
	p.lanes[l] = append(p.lanes[l], f)
	p.depth++
	p.stats.QueueDepth.Add(1)
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
	return nil
}

// waitUntil blocks on the not-full condition until signalled or the
// deadline passes; it reports whether waiting may continue. Called with
// p.mu held; returns with it held.
func (p *outPipe) waitUntil(deadline time.Time) bool {
	remain := time.Until(deadline)
	if remain <= 0 {
		return false
	}
	// sync.Cond has no timed wait; an AfterFunc broadcast stands in.
	t := time.AfterFunc(remain, func() {
		p.mu.Lock()
		p.bulkRoom.Broadcast()
		p.mu.Unlock()
	})
	p.bulkRoom.Wait()
	t.Stop()
	return true
}

// popBatch blocks until frames are queued or the pipe is done, then
// drains a coalesced batch — ALL queued control frames first, so a
// heartbeat overtakes every queued chunk, then bulk frames up to
// pipeFlushMaxBytes (at least one) — into *batch, reusing the writer's
// cleared previous one, and hands ownership to the caller; false once the
// pipe is done. Leftover bulk is picked up by the writer's next iteration
// without waiting. stop aborts the wait (endpoint shutdown).
func (p *outPipe) popBatch(stop <-chan struct{}, batch *[]outFrame) bool {
	for {
		p.mu.Lock()
		if p.depth > 0 {
			ctl, bulk := p.lanes[laneControl], p.lanes[laneBulk]
			take, takeBytes := 0, 0
			for take < len(bulk) && (take == 0 || takeBytes+bulk[take].size <= pipeFlushMaxBytes) {
				takeBytes += bulk[take].size
				take++
			}
			*batch = append(append((*batch)[:0], ctl...), bulk[:take]...)
			// Zero vacated slots so idle lanes do not pin frame buffers.
			for i := range ctl {
				ctl[i] = outFrame{}
			}
			left := copy(bulk, bulk[take:])
			for i := left; i < len(bulk); i++ {
				bulk[i] = outFrame{}
			}
			p.lanes[laneControl] = ctl[:0]
			p.lanes[laneBulk] = bulk[:left]
			p.bulkBytes -= takeBytes
			p.depth -= len(*batch)
			p.stats.QueueDepth.Add(int64(-len(*batch)))
			p.bulkRoom.Broadcast()
			p.mu.Unlock()
			return true
		}
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return false
		}
		select {
		case <-p.wake:
		case <-stop:
			return false
		}
	}
}

// fail closes the pipe, failing every queued frame at once with err —
// one dial error fails the whole batch instead of each sender eating its
// own timeout. Idempotent; later enqueues return err.
func (p *outPipe) fail(err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.err = err
	dropped := p.lanes
	p.lanes = [laneCount][]outFrame{}
	p.stats.ControlDrops.Add(int64(len(dropped[laneControl])))
	p.stats.BulkDrops.Add(int64(len(dropped[laneBulk])))
	n := len(dropped[laneControl]) + len(dropped[laneBulk])
	p.depth = 0
	p.bulkBytes = 0
	p.stats.QueueDepth.Add(int64(-n))
	p.stats.Dropped.Add(int64(n))
	p.bulkRoom.Broadcast()
	p.mu.Unlock()
	// Outside the lock: a release calls the sender's TailDone hook.
	for l := range dropped {
		for i := range dropped[l] {
			dropped[l][i].release()
		}
	}
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// failure returns the error the pipe failed with, or nil while healthy.
func (p *outPipe) failure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// batchBuckets is the coalesced-batch-size histogram resolution.
const batchBuckets = 8

// batchBucketLabels names the histogram buckets (frames per flush).
var batchBucketLabels = [batchBuckets]string{"1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65+"}

// batchBucket maps a flush's frame count to its histogram bucket.
func batchBucket(n int) int {
	if n < 1 {
		n = 1
	}
	idx := bits.Len(uint(n - 1))
	if idx >= batchBuckets {
		idx = batchBuckets - 1
	}
	return idx
}
