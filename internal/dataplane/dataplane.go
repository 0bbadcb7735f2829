// Package dataplane implements the JobManager side of the direct
// task-to-task data plane: a per-job broker that maps output keys to the
// content-addressed locations producers advertise (DATA_PUT) and parks
// consumer lookups (DATA_RESOLVE) until the producer publishes. The broker
// holds locations, never payload bytes — except the ≤DataInlineMax inline
// copies that ride along on small adverts, which both skip the TM→TM round
// trip for consumers and survive the producing node's death.
//
// The transfer itself is TM→TM: the consumer chunk-pulls the digest from
// the producing node (DATA_FETCH reusing the BLOB_CHUNK machinery) and
// digest-verifies before caching, so the JobManager's wire footprint per
// key is one advert and one location reply no matter how large the output.
package dataplane

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrClosed reports a resolve or publish against a job that reached a
// terminal state — the broker is closed and no key will ever publish.
var ErrClosed = errors.New("dataplane: job closed")

// Loc is one advertised output location: which node serves the digest, and
// for small payloads the JobManager-held inline copy itself.
type Loc struct {
	Key    string
	Task   string // producing task
	Node   string // serving node; "" when only the Inline copy remains
	Digest string
	Size   int64
	Inline []byte // JM-held payload copy (Size <= protocol.DataInlineMax)
}

// Stats aggregates one JobManager's data-plane broker counters across its
// hosted jobs (shared by every Broker the manager creates).
type Stats struct {
	Puts          atomic.Int64 // location adverts accepted
	InlinePuts    atomic.Int64 // adverts carrying the payload inline
	Resolves      atomic.Int64 // resolves answered with a location
	Parks         atomic.Int64 // resolves that had to park for an unpublished key
	Retries       atomic.Int64 // parked resolves answered Retry (window lapsed)
	Invalidations atomic.Int64 // adverts dropped (dead node or stale hint)
	InlineBytes   atomic.Int64 // payload bytes served from JM-held inline copies
}

// StatsSnapshot is a point-in-time copy of Stats for metrics endpoints.
type StatsSnapshot struct {
	Puts          int64 `json:"puts"`
	InlinePuts    int64 `json:"inline_puts"`
	Resolves      int64 `json:"resolves"`
	Parks         int64 `json:"parks"`
	Retries       int64 `json:"retries"`
	Invalidations int64 `json:"invalidations"`
	InlineBytes   int64 `json:"inline_bytes"`
}

// Add returns the field-wise sum of two snapshots (cluster aggregation).
func (s StatsSnapshot) Add(o StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Puts:          s.Puts + o.Puts,
		InlinePuts:    s.InlinePuts + o.InlinePuts,
		Resolves:      s.Resolves + o.Resolves,
		Parks:         s.Parks + o.Parks,
		Retries:       s.Retries + o.Retries,
		Invalidations: s.Invalidations + o.Invalidations,
		InlineBytes:   s.InlineBytes + o.InlineBytes,
	}
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	if s == nil {
		return StatsSnapshot{}
	}
	return StatsSnapshot{
		Puts:          s.Puts.Load(),
		InlinePuts:    s.InlinePuts.Load(),
		Resolves:      s.Resolves.Load(),
		Parks:         s.Parks.Load(),
		Retries:       s.Retries.Load(),
		Invalidations: s.Invalidations.Load(),
		InlineBytes:   s.InlineBytes.Load(),
	}
}

// Waiter is one parked resolve: a lookup registered for a key that has not
// published yet.
type Waiter struct {
	key  string
	wake func(Loc, error)
}

// Broker is one job's location table. All methods are safe for concurrent
// use; returned Locs are copies, so callers never race the table.
type Broker struct {
	mu      sync.Mutex
	locs    map[string]*Loc
	waiters map[string][]*Waiter // parked resolves, woken when the key publishes
	closed  bool
	stats   *Stats
}

// NewBroker returns an empty broker feeding the (possibly nil) shared
// stats block.
func NewBroker(stats *Stats) *Broker {
	return &Broker{
		locs:    make(map[string]*Loc),
		waiters: make(map[string][]*Waiter),
		stats:   stats,
	}
}

// Put stores (or replaces) a key's location and wakes parked resolves.
// A re-published key — a recovered producer re-running, or a speculative
// twin finishing second — simply overwrites: content addressing makes the
// copies interchangeable when equal, and the newest advert wins otherwise.
func (b *Broker) Put(l Loc) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	cp := l
	b.locs[l.Key] = &cp
	woken := b.waiters[l.Key]
	delete(b.waiters, l.Key)
	b.mu.Unlock()
	if b.stats != nil {
		b.stats.Puts.Add(1)
		if len(l.Inline) > 0 {
			b.stats.InlinePuts.Add(1)
		}
	}
	b.wake(woken, l)
	return nil
}

// wake answers parked resolves with the location that just published.
// Called outside b.mu.
func (b *Broker) wake(woken []*Waiter, l Loc) {
	for _, w := range woken {
		if b.stats != nil {
			b.stats.Resolves.Add(1)
		}
		w.wake(l, nil)
	}
}

// Lookup returns the key's location without blocking.
func (b *Broker) Lookup(key string) (Loc, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	l, ok := b.locs[key]
	if !ok {
		return Loc{}, false
	}
	return *l, true
}

// Await resolves a key without blocking: a published key returns its
// location; an unpublished one registers a Waiter and returns it instead.
// A registered waiter's wake runs exactly once — with the location when the
// key publishes, or with ErrClosed when the broker closes — unless Cancel
// withdraws it first (the caller's park window lapsed). wake is called
// outside the broker's lock, on the goroutine of the Put, Restore or Close
// that fired it, and must not block.
func (b *Broker) Await(key string, wake func(Loc, error)) (Loc, *Waiter, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return Loc{}, nil, ErrClosed
	}
	if l, ok := b.locs[key]; ok {
		cp := *l
		b.mu.Unlock()
		if b.stats != nil {
			b.stats.Resolves.Add(1)
		}
		return cp, nil, nil
	}
	w := &Waiter{key: key, wake: wake}
	b.waiters[key] = append(b.waiters[key], w)
	b.mu.Unlock()
	if b.stats != nil {
		b.stats.Parks.Add(1)
	}
	return Loc{}, w, nil
}

// Cancel withdraws a parked resolve. It reports true when the waiter was
// still registered, in which case its wake will never run; false means a
// Put, Restore or Close already claimed it.
func (b *Broker) Cancel(w *Waiter) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	ws := b.waiters[w.key]
	for i, x := range ws {
		if x == w {
			if len(ws) == 1 {
				delete(b.waiters, w.key)
			} else {
				b.waiters[w.key] = slices.Delete(ws, i, i+1)
			}
			return true
		}
	}
	return false
}

// Invalidate drops the key's advert when it still points at the given node
// (and, when digest is non-empty, at that digest) — the consumer-reported
// stale hint after a failed TM→TM fetch. An advert with a JM-held inline
// copy keeps serving from it; only its node pointer is cleared. When the
// payload is actually lost (no inline copy), the removed location is
// returned with lost=true so the caller can re-run its producer.
func (b *Broker) Invalidate(key, node, digest string) (Loc, bool) {
	if node == "" {
		return Loc{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	l, ok := b.locs[key]
	if !ok || l.Node != node || (digest != "" && l.Digest != digest) {
		return Loc{}, false
	}
	cp := *l
	if !b.dropLocked(l) {
		return Loc{}, false
	}
	return cp, true
}

// InvalidateNode drops every advert served by the given (dead) node,
// returning the locations whose payload is now unreachable — the producers
// the recovery engine must re-run. Adverts with inline copies survive,
// serving from the JobManager's bytes.
func (b *Broker) InvalidateNode(node string) []Loc {
	b.mu.Lock()
	defer b.mu.Unlock()
	var lost []Loc
	for _, l := range b.locs {
		if l.Node != node {
			continue
		}
		if b.dropLocked(l) {
			lost = append(lost, *l)
		}
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i].Key < lost[j].Key })
	return lost
}

// dropLocked invalidates one advert under b.mu: entries with an inline
// copy degrade to JM-served (Node cleared, not dropped) and report false;
// entries without are removed and report true (the payload is gone).
func (b *Broker) dropLocked(l *Loc) bool {
	if b.stats != nil {
		b.stats.Invalidations.Add(1)
	}
	if len(l.Inline) > 0 {
		l.Node = ""
		return false
	}
	delete(b.locs, l.Key)
	return true
}

// Close wakes every parked resolve with ErrClosed and rejects all further
// publishes; called when the job reaches a terminal state.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	woken := b.waiters
	b.waiters = make(map[string][]*Waiter)
	b.locs = make(map[string]*Loc)
	b.mu.Unlock()
	for _, ws := range woken {
		for _, w := range ws {
			w.wake(Loc{}, ErrClosed)
		}
	}
}

// Len returns the number of advertised keys.
func (b *Broker) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.locs)
}

// Entries returns a key-sorted copy of the location table — the
// checkpoint image an adopting JobManager restores from.
func (b *Broker) Entries() []Loc {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.locs) == 0 {
		return nil // every finishing job asks; most never advertised
	}
	out := make([]Loc, 0, len(b.locs))
	for _, l := range b.locs {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Restore loads checkpointed locations into a fresh broker (adoption),
// without counting them as new puts.
func (b *Broker) Restore(locs []Loc) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	type wakeup struct {
		ws []*Waiter
		l  Loc
	}
	var woken []wakeup
	for _, l := range locs {
		cp := l
		b.locs[l.Key] = &cp
		if ws, ok := b.waiters[l.Key]; ok {
			delete(b.waiters, l.Key)
			woken = append(woken, wakeup{ws, l})
		}
	}
	b.mu.Unlock()
	for _, wu := range woken {
		b.wake(wu.ws, wu.l)
	}
}
