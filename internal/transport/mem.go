package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cn/internal/msg"
	"cn/internal/wire"
)

// MemConfig tunes the simulated fabric. The zero value is an ideal network:
// no latency, no jitter, no loss.
type MemConfig struct {
	// Latency is the fixed one-way delivery delay.
	Latency time.Duration
	// Jitter adds a uniformly distributed random delay in [0, Jitter).
	Jitter time.Duration
	// Loss is the probability in [0,1) that any single delivery is dropped.
	Loss float64
	// Seed makes jitter and loss deterministic; 0 selects seed 1.
	Seed int64
	// QueueLen bounds each endpoint's inbound queue (default 4096).
	QueueLen int
}

// MemNetwork is the in-memory cluster fabric: every attached endpoint lives
// in the same process and messages are delivered by goroutines, optionally
// through a latency/jitter/loss model that delays and drops frames but, like
// a connection, never reorders what one endpoint's writer released to one
// peer (memLink). It is the substrate that stands in for the paper's
// Ethernet LAN. The model applies between nodes only: a node's frames to
// itself are handed over without delay or loss, so no partition can cut a
// node off from itself.
//
// The outbound path mirrors the TCP fabric exactly: each sender keeps a
// per-destination pipeline (the same two-lane outPipe the TCP writer
// drains) with a writer goroutine delivering coalesced batches, so lane
// ordering, priority, and backpressure behavior can be unit-tested
// without sockets.
type MemNetwork struct {
	cfg    MemConfig
	stats  Stats
	groups *groupSet

	mu     sync.RWMutex
	nodes  map[string]*memEndpoint
	closed bool

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewMemNetwork creates a fabric with the given simulation parameters.
func NewMemNetwork(cfg MemConfig) *MemNetwork {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 4096
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &MemNetwork{
		cfg:    cfg,
		groups: newGroupSet(),
		nodes:  make(map[string]*memEndpoint),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// NewIdealNetwork is shorthand for a zero-latency, lossless fabric.
func NewIdealNetwork() *MemNetwork { return NewMemNetwork(MemConfig{}) }

// Stats exposes the fabric counters.
func (n *MemNetwork) Stats() *Stats { return &n.stats }

// Attach implements Network.
func (n *MemNetwork) Attach(node string, handler Handler) (Endpoint, error) {
	if node == "" {
		return nil, fmt.Errorf("transport: attach: empty node name")
	}
	if handler == nil {
		return nil, fmt.Errorf("transport: attach %q: nil handler", node)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.nodes[node]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateNode, node)
	}
	ep := &memEndpoint{
		net:     n,
		node:    node,
		handler: handler,
		inbox:   make(chan *msg.Message, n.cfg.QueueLen),
		pipes:   make(map[string]*outPipe),
		stop:    make(chan struct{}),
	}
	n.nodes[node] = ep
	ep.wg.Add(1)
	go ep.dispatch()
	return ep, nil
}

// Close implements Network: detaches every endpoint.
func (n *MemNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*memEndpoint, 0, len(n.nodes))
	for _, ep := range n.nodes {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	return nil
}

// draw decides whether the next delivery is dropped, and the jitter to
// apply.
func (n *MemNetwork) draw() (drop bool, extra time.Duration) {
	if n.cfg.Loss == 0 && n.cfg.Jitter == 0 {
		return false, 0
	}
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	if n.cfg.Loss > 0 && n.rng.Float64() < n.cfg.Loss {
		return true, 0
	}
	if n.cfg.Jitter > 0 {
		extra = time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	return false, extra
}

// deliver routes one dequeued frame to the destination endpoint, applying
// the latency model: an ideal fabric hands it over at once, any other puts
// it on the pair's link. A frame a node sends itself has no link (nil): it
// never crosses the network, so it is handed over at once, never delayed
// and never lost — as on TCP, where it never touches a socket. The
// message's encoded frame size is accounted exactly as the TCP fabric would
// charge it, so bytes-on-wire figures are comparable across substrates (and
// the binary codec's wins are visible in mem benches).
func (n *MemNetwork) deliver(to string, m *msg.Message, size int, senderStop <-chan struct{}, link *memLink) {
	n.mu.RLock()
	dst, ok := n.nodes[to]
	n.mu.RUnlock()
	n.stats.countSend(m.Kind, size)
	if !ok {
		// The destination detached after the frame was queued; on the
		// wire this is a connection reset, a silent loss.
		n.stats.Dropped.Add(1)
		return
	}
	if link == nil {
		n.stats.Local.Add(1)
		dst.enqueue(m, size, &n.stats, senderStop)
		return
	}
	drop, extra := n.draw()
	if drop {
		n.stats.Dropped.Add(1)
		return // loss is silent, like the wire
	}
	if n.cfg.Latency == 0 && n.cfg.Jitter == 0 {
		dst.enqueue(m, size, &n.stats, senderStop)
		return
	}
	link.push(memFlight{dst: dst, m: m, size: size, due: time.Now().Add(n.cfg.Latency + extra)})
}

// memFlight is one frame in flight on a link.
type memFlight struct {
	dst  *memEndpoint
	m    *msg.Message
	size int
	due  time.Time
}

// memLink is the wire from one endpoint to one peer under the latency
// model. Delay and jitter apply per frame, order is kept per link — what a
// connection gives: a frame is never due before the one its sender's writer
// released ahead of it, and one timer hands the due frames over in that
// order. Frames of different links interleave freely.
type memLink struct {
	stats *Stats

	mu    sync.Mutex
	q     []memFlight
	last  time.Time   // due time of the newest frame queued
	timer *time.Timer // runs drain; armed, or drain is running, iff busy
	busy  bool
}

// push puts f in flight.
func (l *memLink) push(f memFlight) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if f.due.Before(l.last) {
		f.due = l.last
	}
	l.last = f.due
	l.q = append(l.q, f)
	if l.busy {
		return
	}
	l.busy = true
	if wait := time.Until(f.due); l.timer == nil {
		l.timer = time.AfterFunc(wait, l.drain)
	} else {
		l.timer.Reset(wait)
	}
}

// drain runs on the link's timer: it hands over every frame that is due,
// then re-arms for the next one or goes idle. A full destination inbox
// blocks it, and with it the link — the socket-buffer analogue.
func (l *memLink) drain() {
	for {
		l.mu.Lock()
		if len(l.q) == 0 {
			l.q, l.busy = nil, false
			l.mu.Unlock()
			return
		}
		f := l.q[0]
		if wait := time.Until(f.due); wait > 0 {
			l.timer.Reset(wait)
			l.mu.Unlock()
			return
		}
		l.q[0] = memFlight{}
		l.q = l.q[1:]
		l.mu.Unlock()
		f.dst.enqueue(f.m, f.size, l.stats, nil)
	}
}

// memEndpoint is one node's attachment to a MemNetwork.
type memEndpoint struct {
	net     *MemNetwork
	node    string
	handler Handler
	inbox   chan *msg.Message
	stop    chan struct{}
	wg      sync.WaitGroup

	mu     sync.Mutex
	pipes  map[string]*outPipe // dest node -> outbound pipeline
	closed bool
}

func (e *memEndpoint) dispatch() {
	defer e.wg.Done()
	for {
		select {
		case m := <-e.inbox:
			e.handler(m)
		case <-e.stop:
			// Drain whatever is already queued, then exit.
			for {
				select {
				case m := <-e.inbox:
					_ = m // dropped on close
				default:
					return
				}
			}
		}
	}
}

// enqueue places m in this endpoint's inbox, blocking while it is full
// (the socket-buffer analogue). senderStop aborts the wait when the
// SENDING endpoint shuts down, so a wedged destination cannot hang a
// sender's writer goroutine past Close; nil means no sender to abort for
// (a frame already in flight on a link).
func (e *memEndpoint) enqueue(m *msg.Message, size int, stats *Stats, senderStop <-chan struct{}) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		stats.Dropped.Add(1)
		return
	}
	select {
	case e.inbox <- m:
		stats.Delivered.Add(1)
		stats.BytesRecv.Add(int64(size))
	case <-e.stop:
		stats.Dropped.Add(1)
	case <-senderStop:
		stats.Dropped.Add(1)
	}
}

// Node implements Endpoint.
func (e *memEndpoint) Node() string { return e.node }

// pipeTo returns this endpoint's outbound pipeline for dst, creating it —
// and its writer goroutine — on first use.
func (e *memEndpoint) pipeTo(dst string) (*outPipe, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	p, ok := e.pipes[dst]
	if !ok {
		p = newOutPipe(&e.net.stats)
		e.pipes[dst] = p
		e.wg.Add(1)
		go e.writeLoop(dst, p)
	}
	return p, nil
}

// writeLoop drains one destination's pipeline in coalesced batches — the
// in-memory twin of the TCP writer goroutine. A full destination inbox
// blocks the writer (the socket-buffer analogue), which backs the queue
// up into bulk-lane backpressure for senders. The pipeline to the
// endpoint's own node has no link: its frames skip the latency model.
func (e *memEndpoint) writeLoop(dst string, p *outPipe) {
	defer e.wg.Done()
	var link *memLink
	if dst != e.node {
		link = &memLink{stats: &e.net.stats}
	}
	var batch []outFrame
	for p.popBatch(e.stop, &batch) {
		for i := range batch {
			e.net.deliver(dst, batch[i].m, batch[i].size, e.stop, link)
		}
		e.net.stats.countFlush(len(batch))
		clear(batch)
	}
}

// send validates m and enqueues it onto dst's pipeline. Unknown
// destinations and oversized frames fail synchronously, exactly as the
// TCP sender's encode does.
//
// This fabric hands the receiver the message itself, tail and all, and has
// no moment at which "the frame was written". So a message whose sender
// wants its tail back (TailDone) travels with a tail of its own, copied
// here, and the sender is told at once — the receiver never aliases the
// counted buffer the sender is about to let go.
func (e *memEndpoint) send(dst string, m *msg.Message) error {
	if m.TailDone != nil {
		own := *m
		own.Tail, own.TailDone = append([]byte(nil), m.Tail...), nil
		m.TailDone()
		m = &own
	}
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	e.net.mu.RLock()
	_, known := e.net.nodes[dst]
	netClosed := e.net.closed
	e.net.mu.RUnlock()
	if netClosed {
		return ErrClosed
	}
	if !known {
		return fmt.Errorf("%w: %q", ErrUnknownNode, dst)
	}
	body := wire.SizeOf(m)
	if body > wire.MaxFrameBytes {
		// Enforce the TCP fabric's frame limit here too, so an application
		// that would fail on real sockets fails identically on the
		// simulated substrate instead of passing tests it cannot pass in
		// production.
		return fmt.Errorf("transport: send to %s: %w (message %s is %d bytes)", dst, wire.ErrFrameTooLarge, m.Kind, body)
	}
	p, err := e.pipeTo(dst)
	if err != nil {
		return err
	}
	return p.enqueue(outFrame{kind: m.Kind, m: m, size: wire.FrameHeaderBytes + body})
}

// Send implements Endpoint.
func (e *memEndpoint) Send(toNode string, m *msg.Message) error {
	return e.send(toNode, m)
}

// Multicast implements Endpoint: the message is size-checked once and
// enqueued onto every member's pipeline (each member receives its own
// copy so handlers can mutate freely).
func (e *memEndpoint) Multicast(group string, m *msg.Message) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	// Check the frame limit once up front, as the TCP fabric's
	// encode-once fan-out does; otherwise the per-member check inside
	// send would be swallowed by best-effort semantics and an oversized
	// multicast would silently reach zero members here while erroring on
	// TCP.
	if body := wire.SizeOf(m); body > wire.MaxFrameBytes {
		return fmt.Errorf("transport: multicast %s: %w (message %s is %d bytes)", group, wire.ErrFrameTooLarge, m.Kind, body)
	}
	e.net.stats.Multicast.Add(1)
	for _, node := range e.net.groups.members(group) {
		if err := e.send(node, m.Clone()); err != nil {
			// A member that vanished mid-fanout is not an error for the
			// sender; multicast is best-effort.
			continue
		}
	}
	return nil
}

// Join implements Endpoint.
func (e *memEndpoint) Join(group string) error {
	if group == "" {
		return fmt.Errorf("transport: join: empty group")
	}
	e.net.groups.join(group, e.node)
	return nil
}

// Leave implements Endpoint.
func (e *memEndpoint) Leave(group string) error {
	e.net.groups.leave(group, e.node)
	return nil
}

// GroupSize implements Endpoint.
func (e *memEndpoint) GroupSize(group string) int {
	return e.net.groups.size(group)
}

// GroupMembers implements Endpoint.
func (e *memEndpoint) GroupMembers(group string) []string {
	return e.net.groups.members(group)
}

// Close implements Endpoint.
func (e *memEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	pipes := e.pipes
	e.pipes = map[string]*outPipe{}
	e.mu.Unlock()
	for _, p := range pipes {
		p.fail(ErrClosed)
	}
	close(e.stop)
	e.wg.Wait()
	e.net.groups.leaveAll(e.node)
	e.net.mu.Lock()
	delete(e.net.nodes, e.node)
	e.net.mu.Unlock()
	return nil
}
