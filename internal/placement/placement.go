// Package placement is the JobManager's batch placement engine. It
// decouples resource acquisition from per-task dispatch, the scaling move
// pilot-abstraction systems make: instead of one multicast solicitation
// round per task, a Directory caches TaskManager offers (TTL-refreshed,
// invalidated when a plan cannot use them, falling back to a fresh round
// when stale or empty) and a two-stage scheduler places an entire task set
// against the cached figures in one pass: a capacity feasibility filter
// first, then a pluggable Scorer ranks the surviving nodes — bytes already
// resident on the node (archive cache and data-plane blob LRU) dominate,
// then free memory, then fewest running tasks, then a recent-straggler
// penalty, with the node-name tie-break keeping every plan deterministic.
// Between solicitation rounds the Directory keeps no books of its own: each
// node's entry takes the newer capacity figures the node itself reports on
// its assignment replies and event batches, and the JobManager's straggler
// marks add into the served stall counts until fresh rounds decay them.
package placement

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cn/internal/protocol"
	"cn/internal/task"
)

// DefaultTTL is how long a solicitation round's offers stay fresh when
// Config.TTL is zero.
const DefaultTTL = time.Second

// SolicitFunc performs one multicast solicitation round and returns the
// collected TaskManager offers. The JobManager wires in a GatherGroup over
// the TaskManager multicast group; tests inject fakes.
type SolicitFunc func() ([]protocol.TMOffer, error)

// Config parametrizes a Directory.
type Config struct {
	// Solicit performs one fresh offer round (required).
	Solicit SolicitFunc
	// TTL bounds how long cached offers are served (0 = DefaultTTL;
	// negative disables caching so every Offers call solicits afresh).
	TTL time.Duration
	// Live returns the set of nodes that are currently valid placement
	// targets; a nil function — or a nil returned set — treats every node
	// as live. The owner wires in discovery-group membership and
	// health-monitor state, so entries for nodes that left the cluster or
	// stopped heartbeating are evicted instead of being served until the
	// TTL happens to lapse. Called once per Offers() evaluation.
	Live func() map[string]bool
	// Now supplies the clock (nil = time.Now; tests inject fakes).
	Now func() time.Time
}

// Stats counts directory activity.
type Stats struct {
	// SolicitRounds is how many multicast rounds were performed.
	SolicitRounds int64
	// CacheHits is how many Offers calls were served from cache.
	CacheHits int64
	// Invalidations counts entries dropped because a plan could not use
	// them: a plan left tasks unplaced, an assignment went unanswered, or
	// a placed batch was rolled back.
	Invalidations int64
	// Evictions counts entries dropped because the node left discovery or
	// its health lease lapsed.
	Evictions int64
	// WarmHits counts tasks placed on a node already holding at least one
	// of the job's wanted digests.
	WarmHits int64
	// ColdMisses counts tasks a digest-wanting job had to place on a node
	// holding none of its digests.
	ColdMisses int64
	// BytesSaved totals the wanted bytes that were already resident on the
	// chosen nodes — archive and shuffle data the cluster did not re-ship.
	BytesSaved int64
}

// Directory is the cluster resource directory: a TTL cache of TaskManager
// offers that backs every placement decision. It is safe for concurrent
// use; concurrent refreshes collapse into a single solicitation round.
type Directory struct {
	cfg Config

	mu        sync.Mutex
	entries   map[string]protocol.TMOffer
	fetchedAt time.Time
	inflight  chan struct{} // non-nil while a solicitation round runs
	lastErr   error
	stats     Stats
	// stragglers counts, per node, the speculation events the JobManager
	// raised against it, added into the node's served stall count. A mark
	// survives Invalidate (a dropped figure says nothing about the node's
	// straggler history) and is halved on every fresh round rather than
	// cleared, so old sins fade; Evict drops it with everything else.
	stragglers map[string]int
}

// NewDirectory creates a directory around a solicitation function.
func NewDirectory(cfg Config) *Directory {
	if cfg.Solicit == nil {
		panic("placement: nil Solicit")
	}
	if cfg.TTL == 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Directory{
		cfg:        cfg,
		entries:    make(map[string]protocol.TMOffer),
		stragglers: make(map[string]int),
	}
}

// freshLocked reports whether the cached round is still within the TTL.
func (d *Directory) freshLocked() bool {
	if d.cfg.TTL < 0 || d.fetchedAt.IsZero() {
		return false
	}
	return d.cfg.Now().Sub(d.fetchedAt) < d.cfg.TTL
}

// snapshotLocked copies the cached offers, sorted by node for determinism,
// adding each node's straggler marks into its stall count so the scorer's
// penalty sees them.
func (d *Directory) snapshotLocked() []protocol.TMOffer {
	out := make([]protocol.TMOffer, 0, len(d.entries))
	for _, o := range d.entries {
		o.StalledTasks += d.stragglers[o.Node]
		out = append(out, o)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Node < out[b].Node })
	return out
}

// pruneDeadLocked evicts cached entries whose node is no longer live
// (left the discovery group or lapsed its health lease); d.mu must be
// held. Fresh solicitation rounds only hear from live nodes, so this
// guards the cache-hit path.
func (d *Directory) pruneDeadLocked() {
	if d.cfg.Live == nil || len(d.entries) == 0 {
		return
	}
	live := d.cfg.Live()
	if live == nil {
		return
	}
	for node := range d.entries {
		if !live[node] {
			delete(d.entries, node)
			delete(d.stragglers, node)
			d.stats.Evictions++
		}
	}
}

// Evict drops a node's cached offer because the node is gone (discovery
// departure or a health-lease death), as opposed to Invalidate's
// "capacity figure was wrong" semantics.
func (d *Directory) Evict(node string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.stragglers, node)
	if _, ok := d.entries[node]; ok {
		delete(d.entries, node)
		d.stats.Evictions++
	}
}

// Offers returns the cluster's current offer set: the cached round when it
// is fresh and non-empty, otherwise the result of a fresh multicast round.
// An empty cache always falls through to a fresh round, so a directory
// that has never seen an offer keeps probing rather than starving. Cached
// entries for nodes the Live gate rejects are evicted before serving.
func (d *Directory) Offers() ([]protocol.TMOffer, error) {
	d.mu.Lock()
	d.pruneDeadLocked()
	if d.freshLocked() && len(d.entries) > 0 {
		d.stats.CacheHits++
		out := d.snapshotLocked()
		d.mu.Unlock()
		return out, nil
	}
	if ch := d.inflight; ch != nil {
		// Another goroutine is soliciting; share its round.
		d.mu.Unlock()
		<-ch
		d.mu.Lock()
		out, err := d.snapshotLocked(), d.lastErr
		d.mu.Unlock()
		return out, err
	}
	ch := make(chan struct{})
	d.inflight = ch
	d.mu.Unlock()

	offers, err := d.cfg.Solicit()

	d.mu.Lock()
	d.stats.SolicitRounds++
	d.lastErr = err
	if err == nil {
		// A fresh round is ground truth: it replaces every entry wholesale,
		// figures, digests and stall counts alike.
		d.entries = make(map[string]protocol.TMOffer, len(offers))
		for _, o := range offers {
			d.entries[o.Node] = o
		}
		d.fetchedAt = d.cfg.Now()
		// Straggler marks decay across rounds rather than resetting: one
		// speculation should not taint a node forever, but neither should a
		// fresh round instantly absolve a node that keeps stalling.
		for node, n := range d.stragglers {
			if n /= 2; n == 0 {
				delete(d.stragglers, node)
			} else {
				d.stragglers[node] = n
			}
		}
		d.pruneDeadLocked()
	}
	d.inflight = nil
	close(ch)
	out := d.snapshotLocked()
	d.mu.Unlock()
	return out, err
}

// Invalidate drops a node's cached offer after a plan could not use it,
// so the node must re-offer in a fresh round before being chosen again.
func (d *Directory) Invalidate(node string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entries[node]; ok {
		delete(d.entries, node)
		d.stats.Invalidations++
	}
}

// Apply takes a capacity figure the node reported between rounds — on an
// assignment reply or an event batch — into its cached entry when the
// figure is newer than the entry's: the two frames travel on different
// lanes and can cross, and the newest figure wins. A node with no entry
// gets none: only a solicitation round creates entries, and a node that
// restarted (its sequence starting over) is set right by the next round.
// Digests and stall counts are left as the round had them.
func (d *Directory) Apply(node string, c protocol.Capacity) {
	d.mu.Lock()
	defer d.mu.Unlock()
	o, ok := d.entries[node]
	if !ok || c.Seq <= o.Seq {
		return
	}
	o.Seq, o.FreeMemoryMB, o.RunningTasks = c.Seq, c.FreeMemoryMB, c.RunningTasks
	d.entries[node] = o
}

// NoteStraggler records a speculation event against a node: one of its
// tasks fell far enough behind that the JobManager launched a twin. The
// mark raises the node's stall figure in every served offer until fresh
// rounds decay it away, steering new work toward nodes that keep up.
func (d *Directory) NoteStraggler(node string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stragglers[node]++
}

// NotePlan folds one planning pass's locality outcome into the
// directory's counters.
func (d *Directory) NotePlan(ps PlanStats) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.WarmHits += ps.WarmHits
	d.stats.ColdMisses += ps.ColdMisses
	d.stats.BytesSaved += ps.BytesSaved
}

// Stats returns a copy of the directory's counters.
func (d *Directory) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// maxUnplacedNames bounds how many task names an UnplacedError spells out;
// a 10k-task failure should not log a megabyte line.
const maxUnplacedNames = 8

// UnplacedError describes a plan that could not host every task, naming at
// most maxUnplacedNames of them.
func UnplacedError(unplaced []*task.Spec) error {
	shown := min(len(unplaced), maxUnplacedNames)
	names := make([]string, shown)
	for i, sp := range unplaced[:shown] {
		names[i] = fmt.Sprintf("%s(%dMB)", sp.Name, sp.Req.MemoryMB)
	}
	if rest := len(unplaced) - shown; rest > 0 {
		return fmt.Errorf("placement: no TaskManager can host %v and %d more", names, rest)
	}
	return fmt.Errorf("placement: no TaskManager can host %v", names)
}
