// Package placement is the JobManager's batch placement engine. It
// decouples resource acquisition from per-task dispatch, the scaling move
// pilot-abstraction systems make: instead of one multicast solicitation
// round per task, a Directory caches TaskManager offers (TTL-refreshed,
// invalidated on rejection, falling back to a fresh round when stale or
// empty) and a two-stage scheduler places an entire task set against the
// cached figures in one pass: a capacity feasibility filter first, then a
// pluggable Scorer ranks the surviving nodes — bytes already resident on
// the node (archive cache and data-plane blob LRU) dominate, then free
// memory, then fewest running tasks, then a recent-straggler penalty, with
// the node-name tie-break keeping every plan deterministic. Between
// solicitation rounds the Directory keeps its snapshot honest with an
// affinity overlay: heartbeat-synced live load and speculation-driven
// straggler marks merge into served offers until the next fresh round
// replaces the figures wholesale.
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
	// Invalidations counts entries dropped after assignment rejections.
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
	// debts records, per node, reserve debit that the zero clamp could
	// not apply. Release pays the debt down before crediting the cached
	// figure, so the symmetric reserve/release pair nets to the true
	// figure instead of inflating it past the node's advertisement.
	// Cleared whenever the node's entry is replaced or dropped.
	debts map[string]int
	// reserved records, per node, the net reserve applied against the
	// CURRENT snapshot. Release credits at most this much: a credit for
	// a task that freed its memory before the latest solicitation round
	// is already reflected in the advertisement, and applying it again
	// would inflate the figure past the node's true free. Cleared with
	// debts whenever the snapshot is replaced or the entry dropped —
	// dropping a legitimate late credit only under-reports until the
	// next round, which is the safe direction.
	reserved map[string]*reservation
	// affinity is the per-node overlay of signals that arrive between
	// solicitation rounds: heartbeat-synced live load and
	// speculation-driven straggler marks. Unlike debts/reserved it
	// survives Invalidate (a rejected assignment says nothing about the
	// node's straggler history) and decays across fresh rounds rather
	// than being cleared; Evict drops it with everything else.
	affinity map[string]*affinity
}

// reservation is the net reserve applied to one node's cached entry
// since its snapshot was taken.
type reservation struct {
	mb    int
	tasks int
}

// affinity is one node's between-rounds overlay.
type affinity struct {
	// stragglers counts speculation events against this node since the
	// overlay entry was created, halved on every fresh solicitation round
	// so old sins fade.
	stragglers int
	// liveRunning is the running-task count most recently derived from the
	// node's heartbeat, with syncedAt the observation time. It refreshes a
	// stale snapshot's load figure without a solicitation round.
	liveRunning int
	syncedAt    time.Time
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
		cfg:      cfg,
		entries:  make(map[string]protocol.TMOffer),
		debts:    make(map[string]int),
		reserved: make(map[string]*reservation),
		affinity: make(map[string]*affinity),
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
// merging each node's affinity overlay into its served figures: a
// heartbeat newer than the snapshot bumps a stale load figure upward
// (never down — the snapshot may already include reserves the heartbeat
// predates), and accumulated straggler marks add into the offer's stall
// count so the scorer's penalty sees them.
func (d *Directory) snapshotLocked() []protocol.TMOffer {
	out := make([]protocol.TMOffer, 0, len(d.entries))
	for _, o := range d.entries {
		if a := d.affinity[o.Node]; a != nil {
			if a.syncedAt.After(d.fetchedAt) && a.liveRunning > o.RunningTasks {
				o.RunningTasks = a.liveRunning
			}
			o.StalledTasks += a.stragglers
		}
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
			d.dropLocked(node)
			delete(d.affinity, node)
			d.stats.Evictions++
		}
	}
}

// dropLocked forgets a node's entry and its snapshot bookkeeping; d.mu
// must be held.
func (d *Directory) dropLocked(node string) {
	delete(d.entries, node)
	delete(d.debts, node)
	delete(d.reserved, node)
}

// Evict drops a node's cached offer because the node is gone (discovery
// departure or a health-lease death), as opposed to Invalidate's
// "capacity figure was wrong" semantics.
func (d *Directory) Evict(node string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.affinity, node)
	if _, ok := d.entries[node]; ok {
		d.dropLocked(node)
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
		// A fresh round is ground truth: replace the figures and forget
		// the debts and reservations accumulated against the previous
		// snapshot.
		d.entries = make(map[string]protocol.TMOffer, len(offers))
		d.debts = make(map[string]int)
		d.reserved = make(map[string]*reservation)
		for _, o := range offers {
			d.entries[o.Node] = o
		}
		d.fetchedAt = d.cfg.Now()
		// Straggler marks decay across rounds rather than resetting: one
		// speculation should not taint a node forever, but neither should a
		// fresh round instantly absolve a node that keeps stalling. Live
		// load syncs older than the new snapshot are spent.
		for node, a := range d.affinity {
			a.stragglers /= 2
			if a.stragglers == 0 && !a.syncedAt.After(d.fetchedAt) {
				delete(d.affinity, node)
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

// Invalidate drops a node's cached offer after it rejected an assignment:
// its advertised capacity was wrong, so it must re-offer before being
// chosen again.
func (d *Directory) Invalidate(node string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entries[node]; ok {
		d.dropLocked(node)
		d.stats.Invalidations++
	}
}

// Reserve debits a node's cached free-memory figure after a successful
// assignment so subsequent placements within the TTL bin-pack against
// up-to-date numbers instead of the stale advertisement. The figure is
// clamped at zero: two jobs dispatching concurrently against the same
// cached snapshot can both get their batches accepted (the TaskManager is
// the arbiter), and a blind double debit would wedge the entry below zero
// — suppressing the node from every plan until the TTL lapsed even after
// its tasks finished.
func (d *Directory) Reserve(node string, memoryMB, tasks int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	o, ok := d.entries[node]
	if !ok {
		return
	}
	r := d.reserved[node]
	if r == nil {
		r = &reservation{}
		d.reserved[node] = r
	}
	r.mb += memoryMB
	r.tasks += tasks
	o.FreeMemoryMB -= memoryMB
	if o.FreeMemoryMB < 0 {
		// The debit the clamp swallows is remembered so the matching
		// Release cannot inflate the figure past the advertisement.
		d.debts[node] += -o.FreeMemoryMB
		o.FreeMemoryMB = 0
	}
	o.RunningTasks += tasks
	d.entries[node] = o
}

// Release credits a node's cached figures back when a job's tasks finish,
// the inverse of Reserve: the freed memory is placeable again immediately
// instead of only after the next solicitation round. A credit is bounded
// by the net reserve applied against the current snapshot (a task that
// freed its memory before the latest round is already in the
// advertisement) and first pays down any debit the zero clamp swallowed,
// so reserve/release pairs net to the advertised figure and can never
// inflate it. Like Reserve it adjusts a cache, not ground truth — the
// next fresh round replaces the figures wholesale.
func (d *Directory) Release(node string, memoryMB, tasks int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	o, ok := d.entries[node]
	if !ok {
		return
	}
	r := d.reserved[node]
	if r == nil {
		return // stale credit: nothing reserved against this snapshot
	}
	memoryMB = min(memoryMB, r.mb)
	tasks = min(tasks, r.tasks)
	r.mb -= memoryMB
	r.tasks -= tasks
	if debt := d.debts[node]; debt > 0 {
		pay := min(debt, memoryMB)
		d.debts[node] = debt - pay
		memoryMB -= pay
	}
	o.FreeMemoryMB += memoryMB
	o.RunningTasks = max(o.RunningTasks-tasks, 0)
	d.entries[node] = o
}

// NoteStraggler records a speculation event against a node: one of its
// tasks fell far enough behind that the JobManager launched a twin. The
// mark raises the node's stall figure in every served offer until fresh
// rounds decay it away, steering new work toward nodes that keep up.
func (d *Directory) NoteStraggler(node string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a := d.affinity[node]
	if a == nil {
		a = &affinity{}
		d.affinity[node] = a
	}
	a.stragglers++
}

// SyncLoad refreshes a node's live running-task count from its heartbeat,
// keeping the directory's load picture current between solicitation
// rounds without a multicast round trip.
func (d *Directory) SyncLoad(node string, running int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a := d.affinity[node]
	if a == nil {
		a = &affinity{}
		d.affinity[node] = a
	}
	a.liveRunning = running
	a.syncedAt = d.cfg.Now()
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
