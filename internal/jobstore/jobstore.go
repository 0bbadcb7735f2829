// Package jobstore decouples job submission from job execution: it is the
// portal's in-memory system of record for asynchronous submissions. A
// Submit returns immediately with a job id; a bounded worker pool drains
// the queue and drives each submission through the lifecycle
//
//	queued -> compiling -> running -> done | failed | aborted
//
// (queued jobs can also go straight to aborted). The store applies
// backpressure when the queue is full (callers surface it as HTTP 429),
// supports abort of both queued and in-flight jobs via context
// cancellation, and evicts terminal records after a configurable TTL so a
// long-lived portal does not grow without bound. A record holds its
// submission's text only while the job can still run: the terminal
// transition drops it, so a finished record — in the store and in what the
// backend is handed — is its outcome, not the document it came from.
package jobstore

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"cn/internal/logging"
	"cn/internal/metrics"
)

// Errors returned by the store.
var (
	// ErrQueueFull is returned by Submit under backpressure.
	ErrQueueFull = errors.New("jobstore: queue full")
	// ErrUnknownJob is returned for ids that do not (or no longer) exist.
	ErrUnknownJob = errors.New("jobstore: unknown job")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("jobstore: closed")
)

// State is a submission's lifecycle state.
type State string

// Lifecycle states.
const (
	StateQueued    State = "queued"
	StateCompiling State = "compiling"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateAborted   State = "aborted"
)

// States lists every lifecycle state in transition order.
var States = []State{StateQueued, StateCompiling, StateRunning, StateDone, StateFailed, StateAborted}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateAborted
}

// ParseState validates a state name (used for list filters).
func ParseState(name string) (State, error) {
	for _, s := range States {
		if string(s) == name {
			return s, nil
		}
	}
	return "", fmt.Errorf("jobstore: unknown state %q", name)
}

// Submission body formats.
const (
	FormatXMI = "xmi"
	FormatCNX = "cnx"
)

// Submission is the immutable payload of one job.
type Submission struct {
	// Format is the body's format: FormatXMI or FormatCNX.
	Format string
	// Body is the uploaded document. The store keeps it while the job is
	// queued, compiling or running — replay re-executes an interrupted job
	// from it — and drops it when the job reaches a terminal state.
	Body []byte
	// Invocations expands dynamic action states (0 = executor default).
	Invocations int
	// Label is an optional user-assigned name for the job.
	Label string
}

// Progress aggregates task counts across a submission's CN jobs, sourced
// from the JobManagers' schedules by the executor.
type Progress struct {
	// Jobs is how many CN jobs the submission contains; JobsDone counts
	// those that reached a terminal result.
	Jobs     int `json:"jobs"`
	JobsDone int `json:"jobs_done"`
	// Task counts across all CN jobs, from the jobmgr schedule census.
	TasksTotal   int `json:"tasks_total"`
	TasksPending int `json:"tasks_pending"`
	TasksRunning int `json:"tasks_running"`
	TasksDone    int `json:"tasks_done"`
	TasksFailed  int `json:"tasks_failed"`
	// TasksRetried counts recovery and speculative re-placements (a task
	// re-run after its node died, its dispatch failed, or it straggled).
	TasksRetried int `json:"tasks_retried"`
	// TSOps counts completed tuple-space operations against the
	// submission's job coordination spaces.
	TSOps int `json:"ts_ops"`
}

// Record is a point-in-time snapshot of one job, shaped for JSON.
type Record struct {
	ID          string     `json:"id"`
	Label       string     `json:"label,omitempty"`
	Format      string     `json:"format"`
	State       State      `json:"state"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// QueueWaitMS is submission-to-dequeue; RunMS is dequeue-to-terminal.
	QueueWaitMS float64   `json:"queue_wait_ms,omitempty"`
	RunMS       float64   `json:"run_ms,omitempty"`
	Error       string    `json:"error,omitempty"`
	Progress    *Progress `json:"progress,omitempty"`
	// Err is the error value the executor returned, for a caller in this
	// process that has to tell one failure from another; Error is its text.
	// It is nil for a record replayed from a backend, which keeps the text.
	Err error `json:"-"`
}

// ExecFunc compiles and runs one submission. It is invoked on a worker
// goroutine with a context that is cancelled when the job is aborted (or
// the store closed). The executor must call Job.MarkRunning once
// compilation succeeds and should install a progress callback via
// Job.SetProgress. The returned value becomes the job's result.
type ExecFunc func(ctx context.Context, j *Job) (result any, err error)

// Config parametrizes a Store.
type Config struct {
	// Exec runs one submission (required).
	Exec ExecFunc
	// Workers sizes the execution pool (0 = 2).
	Workers int
	// QueueDepth bounds jobs waiting for a worker (0 = 64). Submissions
	// beyond the bound fail with ErrQueueFull.
	QueueDepth int
	// ResultTTL evicts terminal records this long after they finish
	// (0 = 15m; negative disables eviction).
	ResultTTL time.Duration
	// SweepEvery is the eviction cadence (0 = ResultTTL/4, min 1s).
	SweepEvery time.Duration
	// Metrics receives store instrumentation (nil = private registry).
	Metrics *metrics.Registry
	// Backend persists job records across restarts (nil = in-memory only).
	// New replays its contents before accepting submissions: terminal
	// records are served as-is, interrupted queued/compiling/running jobs
	// re-enter the queue and re-run. The caller owns the backend's
	// lifetime; the store never calls Backend.Close.
	Backend Backend
	// Log receives diagnostics as Debug records; nil disables logging. The
	// owner names the component (logging.Component).
	Log *slog.Logger
}

// Job is one tracked submission. The store owns all state transitions;
// executors interact through MarkRunning and SetProgress.
type Job struct {
	store       *Store
	id          string
	seq         int64
	sub         Submission
	submittedAt time.Time

	mu         sync.Mutex
	state      State
	aborted    bool
	startedAt  time.Time
	finishedAt time.Time
	queueWait  time.Duration
	runDur     time.Duration
	errText    string
	err        error // the executor's error; errText is what is persisted
	result     any
	// progress supplies live task counts while the job runs. At the
	// terminal transition it is called one last time, its answer kept in
	// final, and dropped — a finished record must not pin whatever the
	// executor's closure reaches for the rest of its TTL.
	progress func() Progress
	final    *Progress
	cancel   context.CancelFunc
	done     chan struct{} // closed on the (single) terminal transition
}

// ID returns the store-assigned job id.
func (j *Job) ID() string { return j.id }

// Submission returns the job's payload. Its Body is nil once the job has
// reached a terminal state.
func (j *Job) Submission() Submission {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sub
}

// MarkRunning transitions compiling -> running; the executor calls it once
// the submission compiled and execution proper begins. It is a no-op after
// abort or in any other state.
func (j *Job) MarkRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateCompiling && !j.aborted {
		j.store.transitionLocked(j, StateRunning)
	}
}

// SetProgress installs the callback that supplies live task counts for
// status snapshots. The callback must be safe to invoke from any
// goroutine. It is consulted until the job finishes; terminal snapshots
// carry the counts it reported at that moment.
func (j *Job) SetProgress(fn func() Progress) {
	j.mu.Lock()
	j.progress = fn
	j.mu.Unlock()
}

// snapshotLocked builds a Record; j.mu must be held. A finished job's
// record carries its frozen counts; a running job's live counts are
// attached by the caller outside the lock.
func (j *Job) snapshotLocked() *Record {
	rec := &Record{
		ID:          j.id,
		Label:       j.sub.Label,
		Format:      j.sub.Format,
		State:       j.state,
		SubmittedAt: j.submittedAt,
		QueueWaitMS: float64(j.queueWait) / float64(time.Millisecond),
		RunMS:       float64(j.runDur) / float64(time.Millisecond),
		Error:       j.errText,
		Err:         j.err,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		rec.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		rec.FinishedAt = &t
	}
	if j.final != nil {
		p := *j.final
		rec.Progress = &p
	}
	return rec
}

// Snapshot returns the job's current Record.
func (j *Job) Snapshot() *Record {
	rec, _ := j.snapshotResult()
	return rec
}

// snapshotResult reads the record and the result in one consistent view.
func (j *Job) snapshotResult() (*Record, any) {
	j.mu.Lock()
	fn := j.progress
	rec := j.snapshotLocked()
	res := j.result
	j.mu.Unlock()
	// The callback queries JobManagers and must not run under j.mu.
	if fn != nil {
		p := fn()
		rec.Progress = &p
	}
	return rec, res
}

// Stats is the store-level census served at /api/metrics.
type Stats struct {
	Workers       int           `json:"workers"`
	QueueDepth    int           `json:"queue_depth"`
	QueueCapacity int           `json:"queue_capacity"`
	JobsByState   map[State]int `json:"jobs_by_state"`
	Submitted     int64         `json:"submitted_total"`
	Rejected      int64         `json:"rejected_total"`
	Evicted       int64         `json:"evicted_total"`
}

// Store is the async job service: queue, worker pool, and record table.
// Lock order: s.mu before j.mu, never the reverse.
type Store struct {
	cfg  Config
	reg  *metrics.Registry
	stop chan struct{}
	// wake signals workers that pending may be non-empty. Sends are
	// non-blocking: a dropped signal means the buffer already holds
	// wake-ups, and workers drain pending in a loop after each one.
	wake chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []*Job // submission order, for List
	pending []*Job // queued jobs awaiting a worker; aborts remove entries
	closed  bool

	seq atomic.Int64
}

// New creates the store and starts its workers and eviction janitor.
func New(cfg Config) (*Store, error) {
	if cfg.Exec == nil {
		return nil, fmt.Errorf("jobstore: nil Exec")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.ResultTTL == 0 {
		cfg.ResultTTL = 15 * time.Minute
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = cfg.ResultTTL / 4
		if cfg.SweepEvery < time.Second {
			cfg.SweepEvery = time.Second
		}
	}
	if cfg.Log == nil {
		cfg.Log = logging.Discard()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Store{
		cfg:  cfg,
		reg:  reg,
		stop: make(chan struct{}),
		wake: make(chan struct{}, cfg.Workers),
		jobs: make(map[string]*Job),
	}
	if cfg.Backend != nil {
		if err := s.replay(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.ResultTTL > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	return s, nil
}

// replay loads the persisted job set into the store before the workers
// start. Terminal records come back exactly as they finished; a job that
// was queued, compiling, or running when the process died re-enters the
// queue as StateQueued and re-executes from its original submission (the
// in-memory result was never persisted, so re-running is the only honest
// recovery). The id counter resumes past the highest persisted sequence so
// new submissions cannot collide with replayed ids.
func (s *Store) replay() error {
	pjs, err := s.cfg.Backend.Load()
	if err != nil {
		return fmt.Errorf("jobstore: load backend: %w", err)
	}
	var maxSeq int64
	requeued := 0
	for _, pj := range pjs {
		if pj.Seq > maxSeq {
			maxSeq = pj.Seq
		}
		j := &Job{
			store:       s,
			id:          pj.ID,
			seq:         pj.Seq,
			sub:         pj.Sub,
			submittedAt: unixTime(pj.SubmittedAt),
			done:        make(chan struct{}),
		}
		if pj.State.Terminal() {
			j.state = pj.State
			j.startedAt = unixTime(pj.StartedAt)
			j.finishedAt = unixTime(pj.FinishedAt)
			j.queueWait = time.Duration(pj.QueueWaitNS)
			j.runDur = time.Duration(pj.RunNS)
			j.errText = pj.Error
			j.sub.Body = nil // a log written before terminal records dropped their text
			close(j.done)
		} else {
			j.state = StateQueued
			s.pending = append(s.pending, j)
			s.bodyBytes().Add(int64(len(j.sub.Body)))
			requeued++
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		s.reg.Gauge(stateGauge(j.state)).Add(1)
	}
	s.reg.Gauge("jobstore.queue_depth").Set(int64(len(s.pending)))
	s.seq.Store(maxSeq)
	if len(pjs) > 0 {
		logging.Debugf(s.cfg.Log, "replayed %d persisted jobs (%d re-queued)", len(pjs), requeued)
	}
	return nil
}

// persistLocked writes j's current image to the backend; j.mu must be
// held. Persistence failures are logged, not fatal: the in-memory store
// stays authoritative for the live process and the next successful write
// re-converges the backend.
func (s *Store) persistLocked(j *Job) {
	if s.cfg.Backend == nil {
		return
	}
	pj := &PersistedJob{
		ID:          j.id,
		Seq:         j.seq,
		Sub:         j.sub,
		State:       j.state,
		SubmittedAt: unixNano(j.submittedAt),
		StartedAt:   unixNano(j.startedAt),
		FinishedAt:  unixNano(j.finishedAt),
		QueueWaitNS: int64(j.queueWait),
		RunNS:       int64(j.runDur),
		Error:       j.errText,
	}
	if err := s.cfg.Backend.Put(pj); err != nil {
		logging.Debugf(s.cfg.Log, "persist job %s: %v", j.id, err)
	}
}

// Metrics returns the registry the store instruments.
func (s *Store) Metrics() *metrics.Registry { return s.reg }

// gauge names are stable so dashboards can rely on them.
func stateGauge(st State) string { return "jobstore.jobs." + string(st) }

// bodyBytes is the gauge of submission text the store holds: the bodies of
// the jobs that are queued, compiling or running.
func (s *Store) bodyBytes() *metrics.Gauge { return s.reg.Gauge("jobstore.body_bytes") }

// transitionLocked moves j to state, keeping the by-state gauges true and
// releasing waiters on the terminal transition. j.mu must be held. Every
// call site checks the current state is non-terminal, so a job reaches a
// terminal state exactly once — and this is where its submission's text
// leaves: nothing can run the job again, so neither the record nor the image
// persisted below carries it.
func (s *Store) transitionLocked(j *Job, to State) {
	s.reg.Gauge(stateGauge(j.state)).Add(-1)
	s.reg.Gauge(stateGauge(to)).Add(1)
	j.state = to
	if to.Terminal() {
		s.bodyBytes().Add(-int64(len(j.sub.Body)))
		j.sub.Body = nil
		close(j.done)
	}
	// Every lifecycle transition is a durable mutation: a crash after this
	// point replays the job in (at worst) its previous persisted state.
	s.persistLocked(j)
}

// Submit enqueues a job and returns its snapshot, or ErrQueueFull under
// backpressure. The returned record is already in StateQueued.
func (s *Store) Submit(sub Submission) (*Record, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if len(s.pending) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.reg.Counter("jobstore.rejected").Inc()
		return nil, ErrQueueFull
	}
	seq := s.seq.Add(1)
	id := fmt.Sprintf("job-%d", seq)
	j := &Job{store: s, id: id, seq: seq, sub: sub, submittedAt: time.Now(), state: StateQueued, done: make(chan struct{})}
	s.jobs[id] = j
	s.order = append(s.order, j)
	s.pending = append(s.pending, j)
	s.reg.Counter("jobstore.submitted").Inc()
	s.reg.Gauge(stateGauge(StateQueued)).Add(1)
	s.reg.Gauge("jobstore.queue_depth").Set(int64(len(s.pending)))
	s.bodyBytes().Add(int64(len(sub.Body)))
	j.mu.Lock()
	s.persistLocked(j)
	rec := j.snapshotLocked()
	j.mu.Unlock()
	s.mu.Unlock()

	select {
	case s.wake <- struct{}{}:
	default:
	}
	logging.Debugf(s.cfg.Log, "job %s queued (%s, %d bytes)", id, sub.Format, len(sub.Body))
	return rec, nil
}

// Get returns a job's snapshot.
func (s *Store) Get(id string) (*Record, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.Snapshot(), true
}

// Result returns a job's result value and state. The result is non-nil
// only for StateDone (and for failures where the executor produced a
// partial result).
func (s *Store) Result(id string) (any, State, bool) {
	_, res, st, ok := s.ResultRecord(id)
	return res, st, ok
}

// ResultRecord returns a job's snapshot and result in one consistent
// read, so a concurrent TTL eviction cannot split a status lookup from
// its result.
func (s *Store) ResultRecord(id string) (*Record, any, State, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, "", false
	}
	rec, res := j.snapshotResult()
	return rec, res, rec.State, true
}

// List returns snapshots in submission order; filter narrows by state
// ("" = all).
func (s *Store) List(filter State) []*Record {
	s.mu.Lock()
	jobs := make([]*Job, len(s.order))
	copy(jobs, s.order)
	s.mu.Unlock()
	out := make([]*Record, 0, len(jobs))
	for _, j := range jobs {
		rec := j.Snapshot()
		if filter == "" || rec.State == filter {
			out = append(out, rec)
		}
	}
	return out
}

// Wait blocks until the job reaches a terminal state (returning its final
// record) or ctx is done.
func (s *Store) Wait(ctx context.Context, id string) (*Record, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	select {
	case <-j.done:
		return j.Snapshot(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Delete aborts an active job (queued jobs abort immediately; compiling or
// running jobs have their context cancelled and abort when the executor
// returns) and evicts a terminal one. It returns the record as of the
// call.
func (s *Store) Delete(id string) (*Record, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrUnknownJob
	}
	j.mu.Lock()
	switch {
	case j.state == StateQueued:
		// Free the queue slot immediately so backpressure reflects live
		// work, not abort tombstones.
		s.unqueueLocked(j)
		j.aborted = true
		j.finishedAt = time.Now()
		j.queueWait = j.finishedAt.Sub(j.submittedAt)
		j.errText = "aborted while queued"
		s.transitionLocked(j, StateAborted)
		rec := j.snapshotLocked()
		j.mu.Unlock()
		s.mu.Unlock()
		logging.Debugf(s.cfg.Log, "job %s aborted while queued", id)
		return rec, nil
	case !j.state.Terminal():
		j.aborted = true
		if j.cancel != nil {
			j.cancel()
		}
		rec := j.snapshotLocked()
		j.mu.Unlock()
		s.mu.Unlock()
		logging.Debugf(s.cfg.Log, "job %s abort requested (%s)", id, rec.State)
		return rec, nil
	default:
		rec := j.snapshotLocked()
		j.mu.Unlock()
		s.mu.Unlock()
		s.remove(j)
		logging.Debugf(s.cfg.Log, "job %s record deleted (%s)", id, rec.State)
		return rec, nil
	}
}

// unqueueLocked drops j from the pending list; s.mu must be held. The job
// may already have been popped by a worker, in which case this is a no-op
// (the worker's run() observes the terminal state and skips execution).
func (s *Store) unqueueLocked(j *Job) {
	for i, o := range s.pending {
		if o == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	s.reg.Gauge("jobstore.queue_depth").Set(int64(len(s.pending)))
}

// remove forgets a terminal job's record — and its persisted image, so
// TTL eviction and explicit record deletion also bound the WAL/snapshot:
// an evicted job can neither resurrect on replay nor grow the log forever.
func (s *Store) remove(j *Job) {
	s.mu.Lock()
	if _, ok := s.jobs[j.id]; !ok {
		s.mu.Unlock()
		return
	}
	delete(s.jobs, j.id)
	for i, o := range s.order {
		if o == j {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if s.cfg.Backend != nil {
		if err := s.cfg.Backend.Delete(j.id); err != nil {
			logging.Debugf(s.cfg.Log, "unpersist job %s: %v", j.id, err)
		}
	}
	s.mu.Unlock()
	j.mu.Lock()
	s.reg.Gauge(stateGauge(j.state)).Add(-1)
	j.mu.Unlock()
}

// Stats returns the store-level census. The totals are read from the
// metric counters so the /api/metrics registry and this census cannot
// drift apart.
func (s *Store) Stats() Stats {
	by := make(map[State]int, len(States))
	s.mu.Lock()
	for _, j := range s.order {
		j.mu.Lock()
		by[j.state]++
		j.mu.Unlock()
	}
	depth := len(s.pending)
	s.mu.Unlock()
	return Stats{
		Workers:       s.cfg.Workers,
		QueueDepth:    depth,
		QueueCapacity: s.cfg.QueueDepth,
		JobsByState:   by,
		Submitted:     s.reg.Counter("jobstore.submitted").Value(),
		Rejected:      s.reg.Counter("jobstore.rejected").Value(),
		Evicted:       s.reg.Counter("jobstore.evicted").Value(),
	}
}

// worker executes pending jobs until the store closes: drain everything
// available, then sleep on the wake signal.
func (s *Store) worker() {
	defer s.wg.Done()
	for {
		if j := s.popPending(); j != nil {
			s.run(j)
			continue
		}
		select {
		case <-s.stop:
			return
		case <-s.wake:
		}
	}
}

// popPending takes the oldest queued job, or nil when none wait.
func (s *Store) popPending() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return nil
	}
	j := s.pending[0]
	s.pending = s.pending[1:]
	s.reg.Gauge("jobstore.queue_depth").Set(int64(len(s.pending)))
	return j
}

// run drives one job from dequeue to a terminal state.
func (s *Store) run(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued {
		// Aborted while queued; nothing to execute.
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	j.startedAt = time.Now()
	j.queueWait = j.startedAt.Sub(j.submittedAt)
	s.transitionLocked(j, StateCompiling)
	j.mu.Unlock()
	s.reg.Histogram("jobstore.queue_wait_ms").ObserveDuration(j.queueWait)

	result, err := s.cfg.Exec(ctx, j)
	cancel()

	// Freeze the counts: one last reading, taken outside the lock.
	j.mu.Lock()
	fn := j.progress
	j.mu.Unlock()
	var final *Progress
	if fn != nil {
		p := fn()
		final = &p
	}
	j.mu.Lock()
	j.progress, j.final = nil, final
	j.cancel = nil
	j.finishedAt = time.Now()
	j.runDur = j.finishedAt.Sub(j.startedAt)
	j.result, j.err = result, err
	// Timed before the record turns terminal: a reader that sees the job
	// finished finds its run in the histograms, never an empty one.
	s.reg.Histogram("jobstore.run_ms").ObserveDuration(j.runDur)
	s.reg.Histogram("jobstore.total_ms").ObserveDuration(j.finishedAt.Sub(j.submittedAt))
	switch {
	case j.aborted:
		if err != nil {
			j.errText = err.Error()
		} else {
			j.errText = "aborted"
		}
		s.transitionLocked(j, StateAborted)
	case err != nil:
		j.errText = err.Error()
		s.transitionLocked(j, StateFailed)
	default:
		s.transitionLocked(j, StateDone)
	}
	state := j.state
	j.mu.Unlock()
	logging.Debugf(s.cfg.Log, "job %s %s after %s (queue %s)", j.id, state, j.runDur.Round(time.Millisecond), j.queueWait.Round(time.Millisecond))
}

// janitor evicts terminal records past the TTL.
func (s *Store) janitor() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.SweepEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.sweep(time.Now())
		}
	}
}

// sweep removes terminal jobs whose finish time is older than the TTL.
func (s *Store) sweep(now time.Time) {
	s.mu.Lock()
	var expired []*Job
	for _, j := range s.order {
		j.mu.Lock()
		if j.state.Terminal() && !j.finishedAt.IsZero() && now.Sub(j.finishedAt) >= s.cfg.ResultTTL {
			expired = append(expired, j)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	for _, j := range expired {
		s.remove(j)
		s.reg.Counter("jobstore.evicted").Inc()
		logging.Debugf(s.cfg.Log, "job %s evicted (TTL)", j.id)
	}
}

// Close stops accepting submissions, cancels in-flight jobs, and waits for
// the workers to exit. Queued jobs that never ran are marked aborted.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	jobs := make([]*Job, len(s.order))
	copy(jobs, s.order)
	s.pending = nil
	s.reg.Gauge("jobstore.queue_depth").Set(0)
	s.mu.Unlock()

	for _, j := range jobs {
		j.mu.Lock()
		switch {
		case j.state == StateQueued:
			j.aborted = true
			j.errText = "store closed"
			j.finishedAt = time.Now()
			s.transitionLocked(j, StateAborted)
		case !j.state.Terminal():
			j.aborted = true
			if j.cancel != nil {
				j.cancel()
			}
		}
		j.mu.Unlock()
	}
	close(s.stop)
	s.wg.Wait()
}
