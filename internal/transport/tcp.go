package transport

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cn/internal/logging"
	"cn/internal/msg"
	"cn/internal/wire"
)

// Timeouts governing TCP fan-out; package variables so tests can tighten
// them.
var (
	// tcpDialTimeout bounds one connection attempt to a peer.
	tcpDialTimeout = 2 * time.Second
	// tcpWriteTimeout bounds one coalesced frame flush. A peer that is
	// alive but not reading (wedged process, full socket buffer) errors
	// the connection — failing queued frames with ErrSlowConsumer —
	// instead of parking the writer forever.
	tcpWriteTimeout = 5 * time.Second
	// tcpDial is the dial function; a package variable so tests can
	// simulate slow or failing dials deterministically.
	tcpDial = net.DialTimeout
)

// TCPNetwork is a real-socket fabric on the loopback interface. Every
// attached endpoint owns a TCP listener; a shared in-process directory maps
// node names to listen addresses (standing in for DNS/static cluster
// configuration), and multicast is emulated by unicast fan-out over group
// membership (standing in for IP multicast, which sandboxes rarely route).
//
// Frames are length-prefixed binary messages (cn/internal/wire) on
// persistent connections, one per node pair: a dialer opens the connection
// with a preamble that names it, and the node that accepts it writes its
// own frames to the dialer back on the same socket, so a request and its
// reply share one socket and the kernel carries the acknowledgement on the
// reply. Every connection, dialed or accepted, has one reader and one
// writer and is retired whole — a read error or EOF retires its write side
// too, and the next Send re-dials. Two nodes that dial each other at the
// same moment may keep two connections; each writes on the one it
// registered first and reads both. The outbound path is pipelined: Send
// encodes onto a bounded two-lane queue and returns; a per-connection
// writer goroutine owns the dial and drains the queue with coalesced
// writev flushes (see pipeline.go). A frame's bulk tail (msg.Message.Tail)
// is never copied in user space: it is written as its own iovec and read
// into the buffer posted for it (Caller.CallInto). Inbound frames are bounded by
// wire.MaxFrameBytes: a corrupt or hostile length prefix drops the
// connection with a logged transport error instead of allocating without
// limit.
//
// A node never dials itself. The frames a CNServer's JobManager and
// TaskManager send each other — and the own-node member of a multicast —
// go onto the endpoint's self pipe and are handed to its handler in-process
// (sendSelf, selfLoop): same lanes, caps and shedding, no encode, no
// syscall, no decode.
type TCPNetwork struct {
	groups *groupSet
	stats  Stats
	log    *slog.Logger
	// sendBuf, when positive, bounds SO_SNDBUF on outbound connections.
	sendBuf atomic.Int32

	mu     sync.RWMutex
	nodes  map[string]*tcpEndpoint // node -> endpoint (for directory lookups)
	addrs  map[string]string       // node -> host:port
	closed bool
}

// NewTCPNetwork creates an empty TCP fabric.
func NewTCPNetwork() *TCPNetwork {
	return &TCPNetwork{
		groups: newGroupSet(),
		log:    logging.Discard(),
		nodes:  make(map[string]*tcpEndpoint),
		addrs:  make(map[string]string),
	}
}

// SetLogger installs the logger transport errors (dropped connections,
// malformed frames) go to as Debug records, under component=transport; nil
// disables logging.
func (n *TCPNetwork) SetLogger(log *slog.Logger) { n.log = logging.Component(log, "transport", "") }

// SetSendBuffer bounds the kernel send buffer (SO_SNDBUF) of the
// connections a node starts writing on after the call — one it dials, or
// one it accepted and adopted as its connection to the dialer; 0 keeps the
// OS default. Lane priority can only reorder frames still in THIS process —
// bytes already handed to the kernel drain strictly in order — so a bounded
// send buffer is what keeps a control frame's worst-case wait proportional
// to the buffer, not to however much bulk the kernel has absorbed (the
// bufferbloat knob).
func (n *TCPNetwork) SetSendBuffer(bytes int) { n.sendBuf.Store(int32(bytes)) }

// tuneConn applies the configured socket options to a connection the node
// is about to write on.
func (n *TCPNetwork) tuneConn(c net.Conn) {
	if b := n.sendBuf.Load(); b > 0 {
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetWriteBuffer(int(b))
		}
	}
}

func (n *TCPNetwork) logErr(format string, args ...any) {
	logging.Debugf(n.log, format, args...)
}

// Stats exposes the fabric counters.
func (n *TCPNetwork) Stats() *Stats { return &n.stats }

// Attach implements Network: starts a loopback listener for the node.
func (n *TCPNetwork) Attach(node string, handler Handler) (Endpoint, error) {
	if node == "" {
		return nil, fmt.Errorf("transport: attach: empty node name")
	}
	if handler == nil {
		return nil, fmt.Errorf("transport: attach %q: nil handler", node)
	}
	if len(node) > wire.MaxPeerName {
		return nil, fmt.Errorf("transport: attach %q: a node name is at most %d bytes (its connection preamble carries it)", node, wire.MaxPeerName)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: attach %q: %w", node, err)
	}
	// The name is claimed under the same lock that checks it: concurrent
	// Attaches of one name have exactly one winner, and an Attach that races
	// Close never inserts an endpoint Close has already passed over. A loser
	// closes the listener it opened.
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ln.Close()
		return nil, ErrClosed
	}
	if _, dup := n.nodes[node]; dup {
		n.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("%w: %q", ErrDuplicateNode, node)
	}
	ep := &tcpEndpoint{
		net:     n,
		node:    node,
		handler: handler,
		ln:      ln,
		self:    newOutPipe(&n.stats),
		conns:   make(map[string]*tcpConn),
		socks:   make(map[net.Conn]bool),
		stop:    make(chan struct{}),
	}
	n.nodes[node] = ep
	n.addrs[node] = ln.Addr().String()
	n.mu.Unlock()

	ep.wg.Add(2)
	go ep.acceptLoop()
	go ep.selfLoop()
	return ep, nil
}

// Close implements Network.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*tcpEndpoint, 0, len(n.nodes))
	for _, ep := range n.nodes {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	return nil
}

func (n *TCPNetwork) lookup(node string) (string, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed {
		return "", ErrClosed
	}
	addr, ok := n.addrs[node]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownNode, node)
	}
	return addr, nil
}

// tcpConn is the connection a node writes to one peer on: the bounded
// two-lane outbound queue plus the socket its writer goroutine owns — one
// the writer dials, or one the node accepted from that peer and adopted
// (adopt). Senders only ever touch the pipe; the writer dials (so a
// first-touch Send never blocks up to tcpDialTimeout), drains the queue,
// and coalesces every queued frame into one writev per wakeup. The fd is
// published atomically so close can reach it while the writer is blocked
// in a write (closing the fd is what unblocks a wedged writev).
type tcpConn struct {
	addr string
	node string
	pipe *outPipe

	closed atomic.Bool
	cval   atomic.Value // net.Conn: set at adoption, or once the dial succeeds
}

// close marks the record dead, fails every queued frame with err, and
// closes the fd (if dialed). It must not block on the writer: a writer
// wedged mid-writev holds the socket, and only the fd close unblocks it.
func (tc *tcpConn) close(err error) {
	tc.closed.Store(true)
	tc.pipe.fail(err)
	if c, ok := tc.cval.Load().(net.Conn); ok {
		c.Close()
	}
}

// tcpEndpoint is one node's attachment to a TCPNetwork.
type tcpEndpoint struct {
	net     *TCPNetwork
	node    string
	handler Handler
	ln      net.Listener
	stop    chan struct{}
	wg      sync.WaitGroup
	// self queues the frames the node sends itself; selfLoop drains it.
	self *outPipe

	// claim is the posted-receive hook the endpoint's Caller installed
	// (postTails); nil until then.
	claim atomic.Pointer[func(correlID uint64, n int) []byte]

	mu    sync.Mutex
	conns map[string]*tcpConn // peer -> the connection written to it
	// socks is every open socket, dialed or accepted: each has a readLoop.
	socks  map[net.Conn]bool
	closed bool
}

// preambleBufs recycles the buffers accepted sockets' preambles are read
// into: a read buffer handed to a net.Conn escapes, and a connection must
// not cost an allocation before its preamble checks out.
var preambleBufs = sync.Pool{New: func() any { return new([wire.MaxPreambleBytes]byte) }}

// errPeerUnknown rejects a preamble that names no other node in the
// directory: a malformed preamble like any other.
var errPeerUnknown = &wire.FrameError{Err: errors.New("transport: preamble names no other node in the directory")}

func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			select {
			case <-e.stop:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		if !e.track(c) {
			c.Close()
			return
		}
		go e.readLoop(c, nil)
	}
}

// track registers socket c and its reader with the endpoint; false once the
// endpoint is closed, when no reader may start.
func (e *tcpEndpoint) track(c net.Conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.socks[c] = true
	e.wg.Add(1)
	return true
}

// greet reads the preamble of accepted socket c and adopts c as the
// connection to the node it names (adopt); tc is nil when that node already
// has one, and c is then only read. false drops c: its preamble was
// missing, malformed (counted in FrameErrors) or the endpoint is closing.
// Nothing is allocated for c before its preamble checks out.
func (e *tcpEndpoint) greet(c net.Conn) (tc *tcpConn, ok bool) {
	buf := preambleBufs.Get().(*[wire.MaxPreambleBytes]byte)
	name, err := wire.ReadConnPreamble(c, buf[:])
	if err == nil {
		tc, err = e.adopt(name, c)
	}
	preambleBufs.Put(buf)
	if err != nil {
		var bad *wire.FrameError
		if errors.As(err, &bad) {
			e.net.stats.FrameErrors.Add(1)
			e.net.logErr("%s: connection from %s rejected: %v", e.node, c.RemoteAddr(), err)
		}
		return nil, false
	}
	return tc, true
}

// adopt makes accepted socket c the connection this node writes to peer on,
// so replies go back on the socket the requests came in on — unless a live
// connection to peer is registered already. That one was registered first:
// it stays, and c is only read.
func (e *tcpEndpoint) adopt(peer []byte, c net.Conn) (*tcpConn, error) {
	e.net.mu.RLock()
	addr, known := e.net.addrs[string(peer)]
	e.net.mu.RUnlock()
	if !known || string(peer) == e.node {
		return nil, errPeerUnknown
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	node := string(peer)
	if cur, ok := e.conns[node]; ok {
		if !cur.closed.Load() && cur.addr == addr {
			return nil, nil
		}
		go cur.close(fmt.Errorf("transport: send to %s: %w (peer re-attached)", node, ErrClosed))
	}
	tc := &tcpConn{addr: addr, node: node, pipe: newOutPipe(&e.net.stats)}
	e.net.tuneConn(c)
	tc.cval.Store(c)
	e.conns[node] = tc
	go e.writeLoop(tc) // not in e.wg, as conn's writers are not
	return tc, nil
}

// readLoop is the one reader of socket c, dialed or accepted; tc is the
// connection record that writes on c, nil for an accepted socket until its
// preamble is read (greet). It decodes length-prefixed binary frames head
// first: a frame's bulk tail is read after its envelope is decoded, into
// the buffer a waiting call posted for it when there is one (claimTail).
// Every length is validated against wire.MaxFrameBytes BEFORE any
// allocation made for it, and any malformed frame drops the connection
// with a logged transport error — at-most-once semantics make the
// in-flight messages a silent loss, exactly as if the peer died. However
// the loop ends, the connection is retired whole: the socket closes and tc,
// if any, leaves the table, failing what is queued on it, so the next Send
// re-dials. Only a frame cut off partway counts as dropped.
func (e *tcpEndpoint) readLoop(c net.Conn, tc *tcpConn) {
	defer e.wg.Done()
	defer func() {
		c.Close()
		e.mu.Lock()
		delete(e.socks, c)
		e.mu.Unlock()
		if tc != nil {
			e.forget(tc.node, tc)
			tc.close(fmt.Errorf("transport: send to %s: %w (connection closed)", tc.node, ErrClosed))
		}
	}()
	if tc == nil {
		var ok bool
		if tc, ok = e.greet(c); !ok {
			return
		}
	}
	fr := wire.NewFrameReader(c, e.claimTail)
	for {
		m, size, err := fr.Next()
		if err != nil {
			var bad *wire.FrameError
			switch {
			case errors.As(err, &bad):
				e.net.stats.FrameErrors.Add(1)
				e.net.logErr("%s: inbound frame from %s rejected: %v; dropping connection",
					e.node, c.RemoteAddr(), err)
			case fr.Partial():
				e.net.stats.Dropped.Add(1)
			}
			return
		}
		select {
		case <-e.stop:
			e.net.stats.Dropped.Add(1)
			return
		default:
		}
		e.net.stats.Delivered.Add(1)
		e.net.stats.BytesRecv.Add(int64(size))
		e.handler(m)
	}
}

// selfLoop is readLoop's in-process twin for the frames the node sends
// itself (sendSelf, and the own-node member of a Multicast). It drains the
// self pipe in the batches a writer would — the control lane first — and
// calls the handler once per frame, in arrival order. Nothing is encoded or
// decoded: the handler gets the sender's message, as on MemNetwork, except
// that a tail is given a home of its own first (ownTail). Frames are
// counted as MemNetwork counts them, at the encoded size, plus Stats.Local.
//
// The loop is both the writer and the reader of its pipe, so no handler it
// runs may wait for that pipe to drain. server.handle's inline contract
// guarantees it: an inline handler never sends on the bulk lane — the only
// lane whose enqueue blocks — and never makes a Call; every other handler
// runs on a goroutine of its own. A handler never runs after Close returns:
// Close stops the loop and waits for it.
func (e *tcpEndpoint) selfLoop() {
	defer e.wg.Done()
	stats := &e.net.stats
	var batch []outFrame
	for e.self.popBatch(e.stop, &batch) {
		for i := range batch {
			select {
			case <-e.stop:
				for j := i; j < len(batch); j++ {
					batch[j].release()
				}
				stats.Dropped.Add(int64(len(batch) - i))
				return
			default:
			}
			f := &batch[i]
			m := e.ownTail(f.m)
			f.release()
			stats.countSend(f.kind, f.size)
			stats.Local.Add(1)
			stats.Delivered.Add(1)
			stats.BytesRecv.Add(int64(f.size))
			e.handler(m)
		}
		stats.countFlush(len(batch))
		clear(batch)
	}
}

// ownTail delivers a tail under TCP's rules: copied once, into the buffer a
// waiting CallInto posted for it (claimTail) or into one of its own, so the
// receiver never aliases the sender's tail and the sender may be told it is
// done with it. The receiver gets a shallow copy of m carrying the new tail;
// the sender's message is not written to.
func (e *tcpEndpoint) ownTail(m *msg.Message) *msg.Message {
	if len(m.Tail) == 0 {
		return m
	}
	tail := e.claimTail(m, len(m.Tail))
	if len(tail) != len(m.Tail) {
		tail = make([]byte, len(m.Tail))
	}
	copy(tail, m.Tail)
	own := *m
	own.Tail, own.TailDone = tail, nil
	return &own
}

// claimTail is the read loop's question between a frame's head and its
// tail: has the consumer of this reply posted a buffer the n tail bytes
// should land in? nil selects a fresh allocation.
func (e *tcpEndpoint) claimTail(head *msg.Message, n int) []byte {
	if claim := e.claim.Load(); claim != nil && head.CorrelID != 0 {
		return (*claim)(head.CorrelID, n)
	}
	return nil
}

// postTails implements tailPoster.
func (e *tcpEndpoint) postTails(claim func(correlID uint64, n int) []byte) {
	e.claim.Store(&claim)
}

// Node implements Endpoint.
func (e *tcpEndpoint) Node() string { return e.node }

// conn returns the connection record this node writes to node on, creating
// it — and launching its writer goroutine, which owns the dial — when there
// is none, dialed or adopted. Senders never dial: they enqueue and return.
func (e *tcpEndpoint) conn(node string) (*tcpConn, error) {
	addr, err := e.net.lookup(node)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	tc, ok := e.conns[node]
	if ok && tc.addr == addr {
		return tc, nil
	}
	if ok {
		// The peer restarted under a new address; retire the stale socket
		// and its queued frames.
		go tc.close(fmt.Errorf("transport: send to %s: %w (peer re-attached)", node, ErrClosed))
	}
	tc = &tcpConn{addr: addr, node: node, pipe: newOutPipe(&e.net.stats)}
	e.conns[node] = tc
	// The writer is deliberately NOT in e.wg: a writer parked in a dial may
	// outlive Close by up to tcpDialTimeout (it only touches the
	// already-failed pipe and the connection table), and shutdown must not
	// wait on it.
	go e.writeLoop(tc)
	return tc, nil
}

// forget drops tc from the connection table (it went bad) so the next send
// re-dials.
func (e *tcpEndpoint) forget(node string, tc *tcpConn) {
	e.mu.Lock()
	if cur, ok := e.conns[node]; ok && cur == tc {
		delete(e.conns, node)
	}
	e.mu.Unlock()
}

// writeLoop is tc's writer goroutine: unless tc adopted an accepted socket
// it owns the dial, and starts the socket's reader. Then it drains the
// pipe, coalescing every queued frame into a single net.Buffers writev per
// wakeup — a dialed socket's preamble ahead of its first batch, then the
// control lane first, a frame's bulk tail as the iovec after its head
// (scatter-gather: the tail goes from wherever it lives to the kernel
// without a user-space copy). A dial or write failure fails the whole
// queued batch at once with one error and retires the connection; the next
// Send re-dials on a fresh record.
func (e *tcpEndpoint) writeLoop(tc *tcpConn) {
	c, _ := tc.cval.Load().(net.Conn)
	var pre []byte
	if c == nil {
		if c = e.dial(tc); c == nil {
			return
		}
		pre, _ = wire.AppendConnPreamble(nil, e.node) // Attach refuses a name no preamble can carry
	}
	// WriteTo consumes bufs; iov keeps the backing array across batches.
	var iov, bufs net.Buffers
	var batch []outFrame
	for tc.pipe.popBatch(e.stop, &batch) {
		iov = iov[:0]
		if pre != nil {
			iov = append(iov, pre)
			pre = nil
		}
		for i := range batch {
			iov = append(iov, batch[i].data)
			if batch[i].m != nil {
				iov = append(iov, batch[i].m.Tail)
			}
		}
		c.SetWriteDeadline(time.Now().Add(tcpWriteTimeout))
		bufs = iov
		_, werr := bufs.WriteTo(c)
		for i := range batch {
			batch[i].release()
		}
		if werr != nil {
			if ne, ok := werr.(net.Error); ok && ne.Timeout() {
				werr = fmt.Errorf("%w: %v", ErrSlowConsumer, werr)
			}
			e.net.stats.Dropped.Add(int64(len(batch)))
			e.net.logErr("%s: write to %s failed: %v; dropping connection and %d queued frames",
				e.node, tc.node, werr, len(batch))
			e.forget(tc.node, tc)
			tc.close(fmt.Errorf("transport: send to %s: %w", tc.node, werr))
			return
		}
		for i := range batch {
			e.net.stats.countSend(batch[i].kind, batch[i].size)
		}
		e.net.stats.countFlush(len(batch))
		clear(batch)
		clear(iov)
	}
	c.Close()
}

// dial opens tc's socket and starts its reader; nil when the dial failed,
// which fails tc, or tc or the endpoint closed meanwhile.
func (e *tcpEndpoint) dial(tc *tcpConn) net.Conn {
	c, err := tcpDial("tcp", tc.addr, tcpDialTimeout)
	if err != nil {
		dialErr := fmt.Errorf("transport: dial %s (%s): %w", tc.node, tc.addr, err)
		e.net.logErr("%s: %v; failing queued frames", e.node, dialErr)
		e.forget(tc.node, tc)
		tc.close(dialErr)
		return nil
	}
	e.net.tuneConn(c)
	tc.cval.Store(c)
	if tc.closed.Load() || !e.track(c) {
		// close raced the dial; it may have missed the just-published fd.
		c.Close()
		return nil
	}
	go e.readLoop(c, tc)
	return c
}

// Send implements Endpoint: encode the head, enqueue head and borrowed
// tail onto the destination's pipeline, return. The caller never blocks on
// a dial or a write; dial and write failures fail the queued batch
// asynchronously (at-most-once semantics, like the wire). An oversized
// message — head plus tail — still fails synchronously before anything is
// queued, as does an unknown node. m.TailDone is owed its call on every one
// of those paths: here for a frame that was never queued, from the frame's
// release (after the writev, or wherever the pipeline drops it) otherwise.
// A frame to the endpoint's own node skips all of that (sendSelf).
func (e *tcpEndpoint) Send(toNode string, m *msg.Message) error {
	if toNode == e.node {
		return e.sendSelf(m)
	}
	buf := wire.GetBuf()
	f := outFrame{kind: m.Kind, buf: buf, done: m.TailDone}
	var err error
	*buf, err = wire.AppendFrameHead((*buf)[:0], m)
	if err != nil {
		f.release()
		return fmt.Errorf("transport: send to %s: %w", toNode, err)
	}
	tc, err := e.conn(toNode)
	if err != nil {
		f.release()
		return err
	}
	f.data, f.size = *buf, len(*buf)+len(m.Tail)
	if len(m.Tail) > 0 {
		f.m = m // the writer sends m.Tail after the head
	}
	return tc.pipe.enqueue(f)
}

// sendSelf queues m for selfLoop, which hands the message itself to this
// endpoint's handler. The wire-size limit is checked here, as the encode
// would: an oversized message fails at once with ErrFrameTooLarge and is
// never delivered. m.TailDone is owed its call as on the socket path — here
// when the frame is refused, by selfLoop after the tail is copied, or by
// the pipe when the frame is dropped.
func (e *tcpEndpoint) sendSelf(m *msg.Message) error {
	body := wire.SizeOf(m)
	if body > wire.MaxFrameBytes {
		if m.TailDone != nil {
			m.TailDone()
		}
		return fmt.Errorf("transport: send to %s: %w (message %s is %d bytes)", e.node, wire.ErrFrameTooLarge, m.Kind, body)
	}
	return e.self.enqueue(outFrame{kind: m.Kind, m: m, size: wire.FrameHeaderBytes + body, done: m.TailDone})
}

// Multicast implements Endpoint: unicast fan-out over group membership.
// The frame is encoded ONCE and the same reference-counted bytes are
// enqueued onto every member's pipeline, so fan-out costs no per-member
// dial goroutines and no per-member encoding; a dead member's dial
// failure is absorbed by its own writer (best-effort, like the wire). The
// sender's own node, when a member, is handed a Clone in-process.
func (e *tcpEndpoint) Multicast(group string, m *msg.Message) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	buf := wire.GetBuf()
	var err error
	*buf, err = wire.AppendFrame((*buf)[:0], m)
	if err != nil {
		// Counted only after the size guard, matching MemNetwork, so both
		// fabrics report identical multicast counts for the same workload.
		wire.PutBuf(buf)
		return fmt.Errorf("transport: multicast %s: %w", group, err)
	}
	e.net.stats.Multicast.Add(1)
	members := e.net.groups.members(group)
	if len(members) == 0 {
		wire.PutBuf(buf)
		return nil
	}
	ref := newFrameRef(buf, int32(len(members)))
	for _, node := range members {
		if node == e.node {
			_ = e.self.enqueue(outFrame{kind: m.Kind, m: m.Clone(), size: len(*buf)})
			ref.release()
			continue
		}
		tc, err := e.conn(node)
		if err != nil {
			ref.release()
			continue
		}
		// enqueue owns (and on failure releases) this member's reference.
		_ = tc.pipe.enqueue(outFrame{kind: m.Kind, data: *buf, ref: ref, size: len(*buf)})
	}
	return nil
}

// Join implements Endpoint.
func (e *tcpEndpoint) Join(group string) error {
	if group == "" {
		return fmt.Errorf("transport: join: empty group")
	}
	e.net.groups.join(group, e.node)
	return nil
}

// Leave implements Endpoint.
func (e *tcpEndpoint) Leave(group string) error {
	e.net.groups.leave(group, e.node)
	return nil
}

// GroupSize implements Endpoint.
func (e *tcpEndpoint) GroupSize(group string) int {
	return e.net.groups.size(group)
}

// GroupMembers implements Endpoint.
func (e *tcpEndpoint) GroupMembers(group string) []string {
	return e.net.groups.members(group)
}

// Close implements Endpoint.
func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := e.conns
	e.conns = map[string]*tcpConn{}
	socks := make([]net.Conn, 0, len(e.socks))
	for c := range e.socks {
		socks = append(socks, c)
	}
	e.mu.Unlock()

	close(e.stop)
	e.ln.Close()
	e.self.fail(ErrClosed)
	for _, tc := range conns {
		tc.close(ErrClosed)
	}
	for _, c := range socks {
		c.Close()
	}
	e.wg.Wait()
	e.net.groups.leaveAll(e.node)
	e.net.mu.Lock()
	delete(e.net.nodes, e.node)
	delete(e.net.addrs, e.node)
	e.net.mu.Unlock()
	return nil
}
