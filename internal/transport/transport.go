// Package transport provides the messaging fabric CN components run on.
//
// The paper's CN deployment is "a cluster of commodity off-the-shelf
// personal computers, interconnected with a local area network technology
// like Ethernet", with JobManager discovery performed over multicast
// ("Requests to JobManager are communicated using multicast"). This package
// abstracts that fabric behind a Network/Endpoint pair with two
// implementations:
//
//   - MemNetwork: an in-memory bus with configurable latency, jitter and
//     message loss — the simulated cluster substrate used by tests and
//     benchmarks (deterministic under a fixed seed).
//   - TCPNetwork: real sockets on the loopback interface carrying
//     length-prefixed binary frames (cn/internal/wire), bounded by a
//     MaxFrameBytes read guard; IP multicast is emulated by concurrent
//     unicast fan-out over group membership, which preserves the protocol
//     shape without requiring multicast routing inside a sandbox.
//
// Sends on both fabrics are pipelined (see pipeline.go): Send encodes onto
// a bounded per-destination queue with two priority lanes — control
// (heartbeats, tuple-space ops, checkpoints) and bulk (blob chunks,
// archive uploads, user payloads) — and a per-connection writer goroutine
// drains the queue in coalesced batches, so a megabyte chunk train cannot
// delay a lease renewal and no sender ever blocks on a dial. A send the
// fabric refuses at the queue is reported: ErrShed from a full control
// lane, ErrBackpressure from a bulk lane that stayed full.
//
// Delivery semantics are at-most-once and unordered across endpoints
// (ordered per sender-receiver pair WITHIN a priority lane; a control
// frame may overtake earlier bulk frames to the same peer); CN's protocol
// layers correlate requests and responses explicitly, as the paper's
// message model prescribes.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cn/internal/msg"
)

// Common transport errors.
var (
	// ErrClosed indicates the endpoint or network has been shut down.
	ErrClosed = errors.New("transport: closed")
	// ErrUnknownNode indicates the destination node is not attached.
	ErrUnknownNode = errors.New("transport: unknown node")
	// ErrDuplicateNode indicates a node name is already attached.
	ErrDuplicateNode = errors.New("transport: duplicate node")
)

// Handler consumes an inbound message. Handlers for one endpoint are invoked
// sequentially on a dedicated dispatch goroutine.
type Handler func(*msg.Message)

// Endpoint is a node's attachment to the fabric.
type Endpoint interface {
	// Node returns the node name this endpoint is bound to.
	Node() string
	// Send delivers m to the named node (unicast, at-most-once).
	Send(toNode string, m *msg.Message) error
	// Multicast delivers m to every current member of the group, including
	// the sender when it is itself a member (IP_MULTICAST_LOOP semantics;
	// a CN server's JobManager must be able to solicit its own
	// TaskManager).
	Multicast(group string, m *msg.Message) error
	// Join adds this endpoint to a multicast group.
	Join(group string) error
	// Leave removes this endpoint from a multicast group.
	Leave(group string) error
	// GroupSize reports the current member count of a multicast group
	// (membership is fabric-wide state, like an IGMP snooping table); a
	// Gather caller uses it to stop waiting once every member replied.
	GroupSize(group string) int
	// GroupMembers returns the group's current member node names (the
	// snooping table's row). Consumers use it to evict cached state for
	// nodes that left discovery.
	GroupMembers(group string) []string
	// Close detaches the endpoint; pending deliveries are dropped.
	Close() error
}

// Network attaches endpoints to a shared fabric.
type Network interface {
	// Attach binds a node name to the fabric; inbound messages are passed
	// to handler in order of delivery.
	Attach(node string, handler Handler) (Endpoint, error)
	// Close shuts the whole fabric down.
	Close() error
}

// Stats counts fabric activity; all fields are manipulated atomically.
// Byte counters account the encoded frame size of every message (real
// frames on TCP, the would-be frame size on the in-memory fabric), so the
// bytes-on-wire cost of the protocol is observable on either substrate.
type Stats struct {
	Sent        atomic.Int64 // messages submitted for delivery
	Delivered   atomic.Int64 // messages handed to a handler
	Dropped     atomic.Int64 // messages lost (simulated loss, closed peer, or failed queue)
	Multicast   atomic.Int64 // multicast fan-out submissions
	BytesSent   atomic.Int64 // encoded bytes submitted for delivery
	BytesRecv   atomic.Int64 // encoded bytes handed to handlers
	FrameErrors atomic.Int64 // malformed or oversized inbound frames (connection dropped)
	// Local counts the frames a node handed itself without crossing the
	// fabric — no socket on TCP, no latency or loss model in memory. They
	// are counted in Sent and Delivered too.
	Local atomic.Int64

	// Outbound pipeline counters (see pipeline.go).
	Flushes      atomic.Int64 // coalesced batch flushes (one writev each on TCP)
	QueueDepth   atomic.Int64 // frames currently queued across all pipelines (gauge)
	ControlDrops atomic.Int64 // control-lane frames dropped (lane full or pipe failed)
	BulkDrops    atomic.Int64 // bulk-lane frames dropped (backpressure timeout or pipe failed)

	// kinds counts sent messages by msg.Kind.
	kinds [msg.KindCount]atomic.Int64
	// batches histograms flushes by coalesced batch size.
	batches [batchBuckets]atomic.Int64
}

// Snapshot returns a plain-value copy of the core counters.
func (s *Stats) Snapshot() (sent, delivered, dropped, multicast int64) {
	return s.Sent.Load(), s.Delivered.Load(), s.Dropped.Load(), s.Multicast.Load()
}

// countSend records one message submission of the given encoded size.
func (s *Stats) countSend(k msg.Kind, bytes int) {
	s.Sent.Add(1)
	s.BytesSent.Add(int64(bytes))
	if k >= 0 && int(k) < msg.KindCount {
		s.kinds[k].Add(1)
	}
}

// countFlush records one coalesced batch flush of n frames.
func (s *Stats) countFlush(n int) {
	s.Flushes.Add(1)
	s.batches[batchBucket(n)].Add(1)
}

// KindCounts returns the non-zero per-kind send counters keyed by the wire
// kind name (e.g. "HEARTBEAT").
func (s *Stats) KindCounts() map[string]int64 {
	out := make(map[string]int64)
	for k := range s.kinds {
		if n := s.kinds[k].Load(); n > 0 {
			out[msg.Kind(k).String()] = n
		}
	}
	return out
}

// BatchSizes returns the non-zero coalesced-batch-size histogram keyed by
// frames-per-flush bucket (e.g. "9-16").
func (s *Stats) BatchSizes() map[string]int64 {
	out := make(map[string]int64)
	for i := range s.batches {
		if n := s.batches[i].Load(); n > 0 {
			out[batchBucketLabels[i]] = n
		}
	}
	return out
}

// WireSnapshot is a plain-value view of the fabric counters, shaped for
// JSON metrics surfaces.
type WireSnapshot struct {
	Sent        int64 `json:"sent"`
	Delivered   int64 `json:"delivered"`
	Dropped     int64 `json:"dropped"`
	Multicast   int64 `json:"multicast"`
	BytesSent   int64 `json:"bytes_sent"`
	BytesRecv   int64 `json:"bytes_recv"`
	FrameErrors int64 `json:"frame_errors"`
	// Local counts the frames of Sent a node handed itself in-process.
	Local int64 `json:"local"`
	// Outbound pipeline figures: flush count (writev batches), live queue
	// depth, per-lane drops, and the frames-per-flush histogram. Mean
	// writes-per-frame on the wire is Flushes/Sent.
	Flushes      int64            `json:"flushes"`
	QueueDepth   int64            `json:"queue_depth"`
	ControlDrops int64            `json:"control_drops"`
	BulkDrops    int64            `json:"bulk_drops"`
	BatchSizes   map[string]int64 `json:"batch_sizes,omitempty"`
	ByKind       map[string]int64 `json:"by_kind,omitempty"`
}

// Wire returns the full counter snapshot.
func (s *Stats) Wire() WireSnapshot {
	return WireSnapshot{
		Sent:         s.Sent.Load(),
		Delivered:    s.Delivered.Load(),
		Dropped:      s.Dropped.Load(),
		Multicast:    s.Multicast.Load(),
		BytesSent:    s.BytesSent.Load(),
		BytesRecv:    s.BytesRecv.Load(),
		FrameErrors:  s.FrameErrors.Load(),
		Local:        s.Local.Load(),
		Flushes:      s.Flushes.Load(),
		QueueDepth:   s.QueueDepth.Load(),
		ControlDrops: s.ControlDrops.Load(),
		BulkDrops:    s.BulkDrops.Load(),
		BatchSizes:   s.BatchSizes(),
		ByKind:       s.KindCounts(),
	}
}

// Caller layers blocking request/response ("call") semantics over an
// asynchronous Endpoint using message correlation IDs, the way the paper's
// well-defined request/response message pairs behave.
//
// Components route every inbound message through Handle first; messages
// consumed as replies return true and must not be processed further.
type Caller struct {
	ep Endpoint

	mu      sync.Mutex
	pending map[uint64]pendingCall
	// posted holds, per outstanding CallInto, the buffer its reply's bulk
	// tail should be read into (see claim).
	posted map[uint64][]byte
	multi  map[uint64]chan *msg.Message
	// timer fires expire at armed, the earliest due (zero: disarmed).
	timer *time.Timer
	armed time.Time
}

// pendingCall is one outstanding call and when it gives up (zero: never).
// Whoever removes it from pending sends on reply: Handle the reply, expire nil.
type pendingCall struct {
	reply chan *msg.Message
	due   time.Time
}

// tailPoster is implemented by endpoints that read a frame's bulk tail
// after decoding its head and can therefore put it where the consumer
// wants it. claim is called on the endpoint's read path between the two;
// an endpoint serves one Caller.
type tailPoster interface {
	postTails(claim func(correlID uint64, n int) []byte)
}

// NewCaller wraps an endpoint.
func NewCaller(ep Endpoint) *Caller {
	c := &Caller{
		ep:      ep,
		pending: make(map[uint64]pendingCall),
		posted:  make(map[uint64][]byte),
		multi:   make(map[uint64]chan *msg.Message),
	}
	if tp, ok := ep.(tailPoster); ok {
		tp.postTails(c.claim)
	}
	return c
}

// Endpoint returns the wrapped endpoint.
func (c *Caller) Endpoint() Endpoint { return c.ep }

// GatherGroup is Gather that ends as soon as every current member of the
// group replied instead of always waiting out the window. Silent members
// still cost the full window.
func (c *Caller) GatherGroup(group string, m *msg.Message, window time.Duration) ([]*msg.Message, error) {
	n, got := c.ep.GroupSize(group), 0
	return c.Gather(group, m, window, func(*msg.Message) bool { got++; return got >= n })
}

// Handle offers an inbound message to the caller. It returns true when the
// message was a reply to an outstanding Call/Gather and has been consumed.
func (c *Caller) Handle(m *msg.Message) bool {
	if m.CorrelID == 0 {
		return false
	}
	c.mu.Lock()
	if p, ok := c.pending[m.CorrelID]; ok {
		delete(c.pending, m.CorrelID)
		c.mu.Unlock()
		p.reply <- m
		return true
	}
	ch, ok := c.multi[m.CorrelID]
	c.mu.Unlock()
	if ok {
		select {
		case ch <- m:
		default: // gatherer stopped listening; drop late reply
		}
		return true
	}
	return false
}

// claim hands the endpoint's reader the buffer posted for the reply to
// correlID, if its n-byte tail fits. A posting is claimed at most once —
// claiming removes it — so a duplicate reply, like a reply to an unknown
// call or a tail longer than the posting, gets nil and is read into a
// buffer of its own.
func (c *Caller) claim(correlID uint64, n int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	dst, ok := c.posted[correlID]
	if !ok || n > len(dst) {
		return nil
	}
	delete(c.posted, correlID)
	return dst[:n]
}

// Call sends m to toNode and blocks until a correlated reply arrives or ctx
// is done.
func (c *Caller) Call(ctx context.Context, toNode string, m *msg.Message) (*msg.Message, error) {
	return c.CallInto(ctx, toNode, m, nil, 0)
}

// CallInto is Call with dst posted for the reply's bulk tail and, for
// within > 0, failing with context.DeadlineExceeded once within has passed.
// On a fabric that reads tails in place (TCP) a reply whose tail fits is
// read straight into dst and its Tail aliases dst[:len(Tail)]; on any other
// fabric, and for a tail that does not fit, the reply's Tail is memory of
// its own and dst is untouched. The caller tells the two apart by address.
//
// When CallInto returns an error the reader may already have claimed dst
// and may still be writing into it: the caller must not reuse dst, or read
// it, afterwards.
func (c *Caller) CallInto(ctx context.Context, toNode string, m *msg.Message, dst []byte, within time.Duration) (*msg.Message, error) {
	p := pendingCall{reply: make(chan *msg.Message, 1)}
	c.mu.Lock()
	if within > 0 {
		p.due = time.Now().Add(within)
		c.arm(p.due)
	}
	c.pending[m.ID] = p
	if len(dst) > 0 {
		c.posted[m.ID] = dst
	}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, m.ID)
		if len(dst) > 0 {
			delete(c.posted, m.ID)
		}
		// An armed timer keeps the Caller, and so its node, reachable:
		// disarm it once nothing is left for it to fail.
		if len(c.pending) == 0 && !c.armed.IsZero() {
			c.timer.Stop()
			c.armed = time.Time{}
		}
		c.mu.Unlock()
	}()
	if err := c.ep.Send(toNode, m); err != nil {
		return nil, fmt.Errorf("transport: call %s: %w", toNode, err)
	}
	select {
	case r := <-p.reply:
		if r == nil {
			return nil, fmt.Errorf("transport: call %s (%s): %w", toNode, m.Kind, context.DeadlineExceeded)
		}
		return r, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("transport: call %s (%s): %w", toNode, m.Kind, ctx.Err())
	}
}

// arm makes the timer fire by due; an earlier arming is left alone. Called
// with c.mu held.
func (c *Caller) arm(due time.Time) {
	if !c.armed.IsZero() && !due.Before(c.armed) {
		return
	}
	c.armed = due
	if c.timer == nil {
		c.timer = time.AfterFunc(time.Until(due), c.expire)
	} else {
		c.timer.Reset(time.Until(due))
	}
}

// expire fails every pending call that is due and re-arms for the next.
func (c *Caller) expire() {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = time.Time{}
	for id, p := range c.pending {
		switch {
		case p.due.IsZero():
		case !p.due.After(now):
			delete(c.pending, id)
			p.reply <- nil
		default:
			c.arm(p.due)
		}
	}
}

// Gather multicasts m to group and collects correlated replies until the
// window elapses or done (if not nil), shown each reply, returns true. An
// empty result is not an error.
func (c *Caller) Gather(group string, m *msg.Message, window time.Duration, done func(*msg.Message) bool) ([]*msg.Message, error) {
	ch := make(chan *msg.Message, max(c.ep.GroupSize(group), 64))
	c.mu.Lock()
	c.multi[m.ID] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.multi, m.ID)
		c.mu.Unlock()
	}()
	if err := c.ep.Multicast(group, m); err != nil {
		return nil, fmt.Errorf("transport: gather %s: %w", group, err)
	}
	timer := time.NewTimer(window)
	defer timer.Stop()
	var replies []*msg.Message
	for {
		select {
		case r := <-ch:
			replies = append(replies, r)
			if done != nil && done(r) {
				return replies, nil
			}
		case <-timer.C:
			return replies, nil
		}
	}
}

// groupSet tracks multicast membership shared by both network
// implementations.
type groupSet struct {
	mu     sync.RWMutex
	groups map[string]map[string]bool // group -> node -> member
}

func newGroupSet() *groupSet {
	return &groupSet{groups: make(map[string]map[string]bool)}
}

func (g *groupSet) join(group, node string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	set, ok := g.groups[group]
	if !ok {
		set = make(map[string]bool)
		g.groups[group] = set
	}
	set[node] = true
}

func (g *groupSet) leave(group, node string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if set, ok := g.groups[group]; ok {
		delete(set, node)
		if len(set) == 0 {
			delete(g.groups, group)
		}
	}
}

func (g *groupSet) leaveAll(node string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for group, set := range g.groups {
		delete(set, node)
		if len(set) == 0 {
			delete(g.groups, group)
		}
	}
}

// size returns the group's member count.
func (g *groupSet) size(group string) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.groups[group])
}

// members returns the group members, including the sender when it joined
// the group (multicast loopback).
func (g *groupSet) members(group string) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	set := g.groups[group]
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	return out
}
