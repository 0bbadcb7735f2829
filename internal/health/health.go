// Package health is CN's lease-based failure detector. A CN node runs its
// JobManager and its TaskManager in one process, so a node is up or down as
// a whole, and it holds one lease at every JobManager: on each tick its
// TaskManager sends a HEARTBEAT to every member of the JobManager group,
// whether or not it hosts their work. Each JobManager feeds those beats
// into its one Monitor, which tracks a lease per node and walks it through
// the states
//
//	alive --(no beat for SuspectAfter)--> suspect --(DeadAfter)--> dead
//
// with a beat from a suspect or dead node resurrecting it to alive. State
// transitions are published to subscribers: the placement layer excludes
// suspect nodes from new plans, and on a death the recovery engine
// re-places the node's in-flight tasks on survivors and the failover path
// adopts the jobs the node's JobManager had checkpointed. The design
// follows how pilot-job systems decouple resource liveness from task
// execution: the lease is the resource's liveness contract, renewed
// whether or not it holds work, and expiry — not a hung task — is the
// failure signal.
package health

import (
	"log/slog"
	"sync"
	"time"

	"cn/internal/logging"
)

// State is a monitored node's liveness classification.
type State int

// Liveness states, in order of decay.
const (
	// StateAlive means the node's lease is current.
	StateAlive State = iota
	// StateSuspect means the lease lapsed past SuspectAfter: the node is
	// excluded from new placements but its tasks are not yet re-placed.
	StateSuspect
	// StateDead means the lease lapsed past DeadAfter: the node's in-flight
	// tasks are orphaned and must be recovered.
	StateDead
)

var stateNames = map[State]string{
	StateAlive:   "alive",
	StateSuspect: "suspect",
	StateDead:    "dead",
}

// String returns the lowercase state name.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return "State(?)"
}

// Default lease parameters, used when Config leaves them zero. The
// heartbeat cadence they assume is DefaultInterval; deployments that tune
// the interval should scale the lease windows with it.
const (
	// DefaultInterval is the expected heartbeat cadence.
	DefaultInterval = 500 * time.Millisecond
	// DefaultSuspectAfter is how long a lease may lapse before the node
	// turns suspect (missed beats, not wall-clock guesses: 3 intervals).
	DefaultSuspectAfter = 3 * DefaultInterval
	// DefaultDeadAfter is how long a lease may lapse before the node is
	// declared dead (6 intervals).
	DefaultDeadAfter = 6 * DefaultInterval
)

// Event is one node's state transition.
type Event struct {
	// Node is the monitored node.
	Node string
	// State is the state the node entered.
	State State
	// At is when the transition was detected.
	At time.Time
	// SincePrev is how long the lease had lapsed when the transition fired
	// (zero for resurrections).
	SincePrev time.Duration
}

// Config parametrizes a Monitor.
type Config struct {
	// SuspectAfter is the lease lapse that turns a node suspect
	// (0 = DefaultSuspectAfter).
	SuspectAfter time.Duration
	// DeadAfter is the lease lapse that declares a node dead
	// (0 = DefaultDeadAfter). It must exceed SuspectAfter; values at or
	// below it are raised to 2×SuspectAfter.
	DeadAfter time.Duration
	// Sweep is the lease-check cadence (0 = SuspectAfter/2, floor 5ms;
	// negative disables the internal sweeper so the owner drives CheckNow —
	// the mode unit tests use).
	Sweep time.Duration
	// Now supplies the clock (nil = time.Now; tests inject fakes).
	Now func() time.Time
	// Log receives diagnostic lines as Debug records; nil disables logging.
	// The owner names the component (logging.Component).
	Log *slog.Logger
}

// lease is one node's liveness record.
type lease struct {
	lastBeat time.Time
	state    State
}

// Monitor tracks per-node heartbeat leases and publishes state
// transitions. It is safe for concurrent use.
type Monitor struct {
	cfg  Config
	stop chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	leases map[string]*lease
	subs   map[int]chan Event
	nextID int
	closed bool
}

// subBuf bounds each subscriber channel; transitions beyond the buffer are
// dropped (subscribers that care drain promptly).
const subBuf = 256

// NewMonitor creates a monitor and, unless cfg.Sweep is negative, starts
// its lease sweeper.
func NewMonitor(cfg Config) *Monitor {
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = DefaultSuspectAfter
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = DefaultDeadAfter
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		cfg.DeadAfter = 2 * cfg.SuspectAfter
	}
	if cfg.Sweep == 0 {
		cfg.Sweep = cfg.SuspectAfter / 2
		if cfg.Sweep < 5*time.Millisecond {
			cfg.Sweep = 5 * time.Millisecond
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Log == nil {
		cfg.Log = logging.Discard()
	}
	m := &Monitor{
		cfg:    cfg,
		stop:   make(chan struct{}),
		leases: make(map[string]*lease),
		subs:   make(map[int]chan Event),
	}
	if cfg.Sweep > 0 {
		m.wg.Add(1)
		go m.sweeper()
	}
	return m
}

// Watch begins tracking a node without requiring a first beat: the lease
// starts now, so a node that dies before it ever heartbeats still expires.
// Watching an already-tracked node is a no-op (it does not renew the
// lease).
func (m *Monitor) Watch(node string) {
	if node == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if _, ok := m.leases[node]; !ok {
		m.leases[node] = &lease{lastBeat: m.cfg.Now(), state: StateAlive}
	}
}

// Observe renews a node's lease (a heartbeat arrived). A suspect or dead
// node resurrects to alive, publishing a StateAlive event so consumers can
// re-admit it.
func (m *Monitor) Observe(node string) {
	if node == "" {
		return
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	now := m.cfg.Now()
	l, ok := m.leases[node]
	if !ok {
		l = &lease{state: StateAlive}
		m.leases[node] = l
	}
	l.lastBeat = now
	var events []Event
	if l.state != StateAlive {
		l.state = StateAlive
		events = append(events, Event{Node: node, State: StateAlive, At: now})
	}
	m.publishLocked(events)
	m.mu.Unlock()
}

// State returns a node's current classification. Unknown nodes report
// alive: absence of evidence is not failure, and placement must not starve
// on nodes the monitor has never met.
func (m *Monitor) State(node string) State {
	m.mu.Lock()
	defer m.mu.Unlock()
	if l, ok := m.leases[node]; ok {
		return l.state
	}
	return StateAlive
}

// Alive reports whether the node is neither suspect nor dead.
func (m *Monitor) Alive(node string) bool { return m.State(node) == StateAlive }

// Subscribe registers for state-transition events. The returned cancel
// function unsubscribes; the channel is closed when the monitor closes.
func (m *Monitor) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, subBuf)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	id := m.nextID
	m.nextID++
	m.subs[id] = ch
	m.mu.Unlock()
	return ch, func() {
		m.mu.Lock()
		if c, ok := m.subs[id]; ok {
			delete(m.subs, id)
			close(c)
		}
		m.mu.Unlock()
	}
}

// publishLocked fans events out to subscribers; m.mu must be held. Sends
// never block: a subscriber whose buffer is full loses the event (and a
// diagnostic is logged), which keeps a stalled consumer from wedging the
// detector.
func (m *Monitor) publishLocked(events []Event) {
	for _, ev := range events {
		for _, ch := range m.subs {
			select {
			case ch <- ev:
			default:
				logging.Debugf(m.cfg.Log, "subscriber full, dropping %s->%s", ev.Node, ev.State)
			}
		}
	}
}

// CheckNow evaluates every lease against the given clock reading and
// publishes any transitions. The internal sweeper calls it on a ticker;
// tests call it directly with a fake clock.
func (m *Monitor) CheckNow(now time.Time) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	var events []Event
	for node, l := range m.leases {
		lapse := now.Sub(l.lastBeat)
		switch {
		case l.state != StateDead && lapse >= m.cfg.DeadAfter:
			l.state = StateDead
			events = append(events, Event{Node: node, State: StateDead, At: now, SincePrev: lapse})
			logging.Debugf(m.cfg.Log, "node %s dead (lease lapsed %v)", node, lapse)
		case l.state == StateAlive && lapse >= m.cfg.SuspectAfter:
			l.state = StateSuspect
			events = append(events, Event{Node: node, State: StateSuspect, At: now, SincePrev: lapse})
			logging.Debugf(m.cfg.Log, "node %s suspect (lease lapsed %v)", node, lapse)
		}
	}
	m.publishLocked(events)
	m.mu.Unlock()
}

// sweeper drives CheckNow on the configured cadence.
func (m *Monitor) sweeper() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.Sweep)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-ticker.C:
			m.CheckNow(now)
		}
	}
}

// Close stops the sweeper and closes every subscriber channel.
func (m *Monitor) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for id, ch := range m.subs {
		delete(m.subs, id)
		close(ch)
	}
	m.mu.Unlock()
	close(m.stop)
	m.wg.Wait()
}
