package jobmgr

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"cn/internal/config"
	"cn/internal/dataplane"
	"cn/internal/health"
	"cn/internal/logging"
	"cn/internal/msg"
	"cn/internal/placement"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/trace"
	"cn/internal/transport"
	"cn/internal/tuplespace"
)

// SendFunc delivers a message to a node.
type SendFunc func(toNode string, m *msg.Message) error

// Placement solicitation: how long one round waits for TaskManager offers,
// and how many rounds a batch gets when no TaskManager offers or the chosen
// one rejects.
const (
	solicitWindow  = 200 * time.Millisecond
	solicitRetries = 3
)

// FreeMemFunc reports the node's current free task-execution memory; the
// server wires the TaskManager's gauge in so JM offers are truthful.
type FreeMemFunc func() int

// jobState is one hosted job.
type jobState struct {
	id         string
	name       string
	clientNode string

	// queue serializes the job's event and user-message processing: the
	// endpoint delivers in arrival order and a single worker goroutine
	// drains the queue, so causally ordered messages (a task's output
	// before its completion event) are forwarded in order. Enqueue bounds
	// it at jobQueueCap.
	queue *msg.Mailbox[*msg.Message]

	mu sync.Mutex
	// taskTable holds the job's tasks, one row each.
	taskTable
	// blobs holds the job's archive bytes by digest — every entry verified
	// against its key — until the job finishes, serving TaskManager
	// KindBlobChunk pulls during assignment and during recovery
	// re-placement (re-placed tasks re-fetch by digest).
	blobs map[string][]byte
	// staged accumulates in-flight chunked blob uploads (client
	// KindBlobChunk pushes), keyed by uploader node + digest so two
	// clients pushing the same digest concurrently cannot corrupt each
	// other's sequence; a completed, digest-verified upload graduates
	// into blobs.
	staged map[string]*protocol.Upload
	// placing counts the frames whose tasks are being placed; a job starts
	// only when none is. Meanwhile the worker waits on placed: a task that
	// ran on arrival must not release an EXEC_TASK, or route a USER frame,
	// that overtakes the ASSIGN_TASKS reserving its sibling.
	placing int
	placed  sync.Cond
	// notified is set once, under mu, by whichever exit decides the job is
	// over; that goroutine alone calls finishJob, which retires the record.
	notified bool
	// idleSince is refreshed by every admission frame; an unstarted job
	// idle past the TTL is treated as abandoned (a client that timed out or
	// died mid-composition) and evicted.
	idleSince time.Time

	// space is the job's coordination tuple space, hosted here so every
	// task (and the client) reaches the same space over the wire. It is
	// created with the job and closed when the job reaches a terminal
	// state, so blocked In/Rd waiters unblock with ErrClosed instead of
	// leaking. The field is immutable after creation; the Space has its
	// own lock.
	space *tuplespace.Space
	// tsOps counts completed tuple-space operations (Out, and In/Rd/InP/
	// RdP requests that reached a definitive outcome; park retries are
	// not counted).
	tsOps atomic.Int64

	// broker is the job's data-plane location table: task output key ->
	// the content-addressed location the producer advertised (and, for
	// small payloads, the inline copy). Like space it is created with the
	// job, immutable as a field, and closed at terminal state so parked
	// resolves unblock with ErrClosed.
	broker *dataplane.Broker

	// ckptSeq orders this job's peer checkpoints; peers keep the highest
	// seq seen per (origin, job). Zero means no peer ever heard of the job,
	// so its retirement owes them no terminal record. Guarded by mu.
	ckptSeq uint64

	// root is the job's trace identity: the context every JM-side span
	// parents to, and the context dispatched messages carry downstream.
	// Zero when the job is untraced. Set once at creation (or adoption)
	// and immutable after, so it reads without mu.
	root trace.Context
	// timeline is the job's assembled trace: JM-recorded spans plus those
	// carried in on the starting CreateTasksReq and terminal TaskEvents,
	// capped at trace.MaxJobSpans. Guarded by mu. It rides the checkpoint so the
	// trace survives failover adoption.
	timeline []trace.Span
}

// addSpansLocked appends spans to the job timeline up to the cap; past it
// new spans are dropped (the early spans — submit, placement — are the
// structural ones). j.mu must be held.
func (j *jobState) addSpansLocked(spans ...trace.Span) {
	room := trace.MaxJobSpans - len(j.timeline)
	if room <= 0 {
		return
	}
	if len(spans) > room {
		spans = spans[:room]
	}
	j.timeline = append(j.timeline, spans...)
}

// JobManager hosts jobs on one node.
type JobManager struct {
	cfg     config.Config
	node    string
	send    SendFunc
	caller  *transport.Caller
	freeMem FreeMemFunc
	dir     *placement.Directory
	// monitor is the manager's one liveness table: a lease per node,
	// renewed by that node's TaskManager beat whether or not it hosts work
	// of ours. Placement's Live gate, recovery and failover all read it.
	monitor *health.Monitor
	log     *slog.Logger
	tracer  *trace.Tracer
	stop    chan struct{}

	// jobs holds live jobs only; a finished job is retired into tombs (see
	// lifecycle.go), so every walk over jobs costs what is running, not what
	// has run. tombQ lists the tombstones in retirement order for the janitor.
	mu     sync.Mutex
	jobs   map[string]*jobState
	tombs  map[string]*tombstone
	tombQ  []*tombstone
	closed bool
	wg     sync.WaitGroup

	// peerCkpts holds the latest checkpoint per (origin, jobID), stored
	// opaque and only decoded on adoption; nil when checkpointing is
	// disabled. Guarded by peerMu.
	peerMu    sync.Mutex
	peerCkpts map[string]map[string]*peerCheckpoint
	// ckptMu orders this manager's own checkpoint frames on the wire: a
	// job's snapshot is sequenced and multicast under it, and so is the
	// terminal record sent at retirement, which therefore never overtakes a
	// snapshot of the same job.
	ckptMu sync.Mutex

	// parked indexes in-flight try-then-park requests (TS_IN, TS_RD,
	// DATA_RESOLVE) so a requester's KindTSCancel can withdraw its own
	// stale park.
	parked parkTable

	// dpStats aggregates data-plane broker counters across hosted jobs;
	// shared by every job broker this manager creates.
	dpStats dataplane.Stats
}

// jobQueueCap bounds each job's serial processing queue, which takes input
// from other nodes.
const jobQueueCap = 16384

// New creates a JobManager on node. The caller is used for TaskManager
// solicitations and archive uploads; freeMem supplies offer data (nil
// reports no free memory). The tracer records this JobManager's spans into
// the per-job timelines; nil disables JM-side tracing (incoming spans are
// still collected).
func New(cfg config.Config, node string, tracer *trace.Tracer, send SendFunc, caller *transport.Caller, freeMem FreeMemFunc) *JobManager {
	cfg = cfg.WithDefaults()
	if freeMem == nil {
		freeMem = func() int { return 0 }
	}
	// A negative interval means the TaskManagers are not heartbeating at
	// all: leases must never expire or every node would read as dead. The
	// monitor still exists (placement's liveness gate consults it) but its
	// sweeper stays off.
	monSweep := time.Duration(0)
	if cfg.HeartbeatInterval < 0 {
		monSweep = -1
	}
	jm := &JobManager{
		cfg:     cfg,
		node:    node,
		send:    send,
		caller:  caller,
		freeMem: freeMem,
		log:     logging.Component(cfg.Log, "jobmgr", node),
		tracer:  tracer,
		stop:    make(chan struct{}),
		jobs:    make(map[string]*jobState),
		tombs:   make(map[string]*tombstone),
		parked:  parkTable{m: make(map[parkKey]*park)},
	}
	jm.monitor = health.NewMonitor(health.Config{
		SuspectAfter: cfg.SuspectAfter,
		DeadAfter:    cfg.DeadAfter,
		Sweep:        monSweep,
		Log:          logging.Component(cfg.Log, "health", node),
	})
	jm.dir = placement.NewDirectory(placement.Config{
		TTL:     cfg.PlacementTTL,
		Solicit: jm.solicitOffers,
		Live:    jm.liveNodes,
	})
	if cfg.TombstoneTTL > 0 {
		jm.wg.Add(1)
		go jm.janitor()
	}
	jm.wg.Add(1)
	go jm.watchHealth()
	if cfg.StragglerAfter > 0 {
		jm.wg.Add(1)
		go jm.stragglerLoop()
	}
	if cfg.CheckpointEvery > 0 && caller != nil {
		jm.peerCkpts = make(map[string]map[string]*peerCheckpoint)
		jm.wg.Add(1)
		go jm.checkpointLoop()
	}
	return jm
}

// solicitOffers performs one multicast solicitation round over the
// TaskManager group — the placement directory's refresh path. The probe
// spec requests no memory so every live TaskManager advertises its true
// free figure; filtering happens in the planner against those figures.
func (jm *JobManager) solicitOffers() ([]protocol.TMOffer, error) {
	probe := protocol.TaskSolicitReq{Spec: &task.Spec{Name: "placement-probe", Class: "*"}}
	sm := protocol.Body(msg.KindTaskSolicit,
		msg.Address{Node: jm.node},
		msg.Address{},
		probe)
	replies, err := jm.caller.GatherGroup(protocol.GroupTaskManagers, sm, solicitWindow)
	if err != nil {
		return nil, fmt.Errorf("jobmgr %s: solicit task managers: %w", jm.node, err)
	}
	offers := make([]protocol.TMOffer, 0, len(replies))
	for _, r := range replies {
		var o protocol.TMOffer
		if err := protocol.Decode(r, &o); err == nil {
			// An offering node joins the liveness table here if its first
			// beat has not yet arrived, so one that dies before it ever
			// beats still expires.
			jm.monitor.Watch(o.Node)
			offers = append(offers, o)
		}
	}
	return offers, nil
}

// PlacementStats exposes the resource directory's counters (benchmarks,
// metrics).
func (jm *JobManager) PlacementStats() placement.Stats { return jm.dir.Stats() }

func (jm *JobManager) logf(format string, args ...any) {
	logging.Debugf(jm.log, format, args...)
}

// endSpan closes an active span and adds the completed span to the
// job's timeline. Inert (nil) actives no-op, so call sites need no guards.
func (jm *JobManager) endSpan(j *jobState, a *trace.Active, errText string) {
	sp, ok := a.Finish(errText)
	if !ok {
		return
	}
	j.mu.Lock()
	j.addSpansLocked(sp)
	j.mu.Unlock()
}

// JobTrace returns a presentation-sorted copy of the job's assembled span
// timeline; ok is false for unknown jobs. An empty (non-nil-ok) slice
// means the job exists but was not sampled. A retired job answers from its
// tombstone, and adopted jobs carry their pre-failover spans, so one trace
// follows the job across managers.
func (jm *JobManager) JobTrace(jobID string) ([]trace.Span, bool) {
	j, t := jm.lookup(jobID)
	var out []trace.Span
	switch {
	case j != nil:
		j.mu.Lock()
		out = append(out, j.timeline...)
		j.mu.Unlock()
	case t != nil:
		out = append(out, t.timeline...)
	default:
		return nil, false
	}
	trace.SortSpans(out)
	return out, true
}

// ActiveJobs returns the number of hosted jobs that have not finished.
func (jm *JobManager) ActiveJobs() int {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return len(jm.jobs)
}

// JobProgress reports the named job's schedule census; ok is false for
// unknown jobs. A job created but not yet started reports every registered
// task as pending. A retired job reports its final census until its
// tombstone expires.
func (jm *JobManager) JobProgress(jobID string) (Progress, bool) {
	j, t := jm.lookup(jobID)
	switch {
	case j != nil:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.progressLocked(), true
	case t != nil:
		return t.progress, true
	}
	return Progress{}, false
}

// progressLocked is the job's census as of now. j.mu must be held.
func (j *jobState) progressLocked() Progress {
	p := j.Progress()
	p.TSOps = int(j.tsOps.Load())
	return p
}

// HandleSolicit answers a KindJobManagerSolicit multicast: "JobManagers
// respond to multicast requests for JobManagers if they have free resources
// and are willing to be JobManagers." A shut down or full manager refuses;
// one short of memory stays silent (nil).
func (jm *JobManager) HandleSolicit(m *msg.Message) *msg.Message {
	var req protocol.JobRequirements
	if err := protocol.Decode(m, &req); err != nil {
		jm.logf("bad jm solicit: %v", err)
		return nil
	}
	jm.mu.Lock()
	defer jm.mu.Unlock()
	offer := protocol.JMOffer{Node: jm.node, FreeMemoryMB: jm.freeMem(), ActiveJobs: len(jm.jobs)}
	switch {
	case jm.closed:
		offer.Refused = "job manager shut down"
	case offer.ActiveJobs >= jm.cfg.MaxJobs:
		offer.Refused = "job manager at capacity"
	case req.MinMemoryMB > 0 && offer.FreeMemoryMB < req.MinMemoryMB:
		return nil
	}
	return protocol.Reply(m, msg.KindJobManagerOffer, offer)
}

// open creates the job a first CREATE_TASKS names, under the ID its client
// chose ("Create Job in JobManager"): the manager must be up, below MaxJobs,
// and hold no job under that ID, live or retired.
func (jm *JobManager) open(m *msg.Message, req *protocol.CreateTasksReq) (*jobState, error) {
	id := req.JobID
	jm.mu.Lock()
	defer jm.mu.Unlock()
	switch {
	case jm.closed:
		return nil, errors.New("job manager shut down")
	case len(jm.jobs) >= jm.cfg.MaxJobs:
		return nil, errors.New("job manager at capacity")
	case id == "":
		return nil, errors.New("create names no job")
	case jm.jobs[id] != nil || jm.tombs[id] != nil:
		return nil, fmt.Errorf("job %s already held here", id)
	}
	j := jm.newJob(id, req.Name, req.ClientNode, len(req.Tasks))
	// Establish the job's trace identity. A traced create (the client
	// sampled at submit) makes the client's span the root; otherwise this
	// JobManager makes its own sampling decision and records an anchor
	// root span for the timeline to hang from.
	if !m.Trace.IsZero() {
		j.root = m.Trace
		if a := jm.tracer.StartSpan(j.root, "jm.create"); a != nil {
			if sp, ok := a.SetJob(id).Finish(""); ok {
				j.timeline = append(j.timeline, sp)
			}
		}
	} else if a := jm.tracer.StartRoot("jm.job", id); a != nil {
		if sp, ok := a.Finish(""); ok {
			j.root = sp.Ctx()
			j.timeline = append(j.timeline, sp)
		}
	}
	jm.jobs[id] = j
	jm.wg.Add(1)
	go jm.jobWorker(j)
	jm.log.Info("job created", "job", id, "name", req.Name, "client", req.ClientNode)
	return j, nil
}

// newJob builds the record of a hosted job; n sizes its task table.
func (jm *JobManager) newJob(id, name, clientNode string, n int) *jobState {
	j := &jobState{
		id:         id,
		name:       name,
		clientNode: clientNode,
		queue:      msg.NewMailbox[*msg.Message](),
		taskTable:  newTaskTable(n),
		blobs:      make(map[string][]byte),
		staged:     make(map[string]*protocol.Upload),
		idleSince:  time.Now(),
		space:      tuplespace.New(),
		broker:     dataplane.NewBroker(&jm.dpStats),
	}
	j.placed.L = &j.mu
	return j
}

// discard forgets a job whose opening frame was refused, tombstone and all.
func (jm *JobManager) discard(j *jobState) {
	j.mu.Lock()
	j.notified = true
	seq := j.ckptSeq
	j.mu.Unlock()
	jm.mu.Lock()
	delete(jm.jobs, j.id) // no other job holds the ID while j does
	jm.mu.Unlock()
	j.queue.Close()
	j.space.Close()
	j.broker.Close()
	jm.dropPeerImage(j.id, seq)
}

// errReply produces a KindJobFailed response carrying the error text, used
// as the uniform failure answer for job-scoped requests.
func (jm *JobManager) errReply(m *msg.Message, text string) *msg.Message {
	return protocol.Reply(m, msg.KindJobFailed, protocol.JobEvent{Failed: true, Err: text})
}

// noJobReply refuses a request that names no live job. A retired job
// answers with its own end — outcome and failed tasks — so a client whose
// terminal notification was lost still learns it from the refusal.
func (jm *JobManager) noJobReply(m *msg.Message, id string, t *tombstone) *msg.Message {
	if t == nil {
		return jm.errReply(m, jm.errUnknownJob(id).Error())
	}
	ev := protocol.JobEvent{JobID: id, Failed: true, TaskErrs: t.taskErrs,
		Err: fmt.Sprintf("job %s already finished (%s)", id, t.outcome)}
	return protocol.Reply(m, msg.KindJobFailed, ev)
}

// lookup resolves a job id against both tables: the live record, or the
// tombstone of a retired job. Both nil means the id is unknown here.
func (jm *JobManager) lookup(id string) (*jobState, *tombstone) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if j := jm.jobs[id]; j != nil {
		return j, nil
	}
	return nil, jm.tombs[id]
}

// job returns the live job a request needs, or the error that answers it.
func (jm *JobManager) job(id string) (*jobState, error) {
	j, t := jm.lookup(id)
	switch {
	case j != nil:
		return j, nil
	case t != nil:
		return nil, fmt.Errorf("job %s already finished", id)
	}
	return nil, jm.errUnknownJob(id)
}

func (jm *JobManager) errUnknownJob(id string) error {
	return fmt.Errorf("jobmgr %s: unknown job %q", jm.node, id)
}

// HandleCreateTasks processes KindCreateTasks, the one admission frame: a
// frame naming its client opens the job, its tasks are placed in one round,
// and Start starts it. A refused opening frame leaves nothing behind. It
// blocks and must run outside the endpoint's dispatch goroutine.
func (jm *JobManager) HandleCreateTasks(m *msg.Message) *msg.Message {
	var req protocol.CreateTasksReq
	if err := protocol.Decode(m, &req); err != nil {
		return jm.errReply(m, fmt.Sprintf("bad create-tasks request: %v", err))
	}
	j, t := jm.lookup(req.JobID)
	var err error
	switch {
	case req.ClientNode != "":
		j, err = jm.open(m, &req)
	case j == nil:
		return jm.noJobReply(m, req.JobID, t)
	}
	if err == nil {
		var resp protocol.CreateTasksResp
		if resp.Placements, err = jm.admit(j, &req); err == nil {
			return protocol.Reply(m, msg.KindTasksAccepted, resp)
		}
		if req.ClientNode != "" {
			jm.discard(j)
		}
	}
	return jm.errReply(m, err.Error())
}

// admit places one frame's tasks and, with Start, starts the job. Specs and
// schedule are recorded before any assignment leaves, as ready tasks run on
// arrival; a refused frame takes back all it recorded, and placeBatch
// releases what it reserved.
func (jm *JobManager) admit(j *jobState, req *protocol.CreateTasksReq) (map[string]string, error) {
	items := req.Tasks
	if len(items) == 0 && !req.Start {
		if req.ClientNode != "" {
			return nil, nil // a header alone: the job exists now
		}
		return nil, errors.New("create-tasks request carries no tasks")
	}
	if err := req.Check(); err != nil {
		return nil, fmt.Errorf("jobmgr %s: %w", jm.node, err)
	}
	j.mu.Lock()
	var err error
	switch {
	case j.notified:
		err = fmt.Errorf("job %s already finished", j.id)
	case j.started:
		err = fmt.Errorf("job %s already started", j.id)
	}
	// Stash archive bytes (each distinct digest once) so the chosen
	// TaskManagers can pull what they lack, and tell them how much that is:
	// a ref's Size is the length of bytes verified here or by an upload,
	// never what the client wrote — 0 for a digest this JobManager does not
	// hold, which only a node already caching it can accept.
	for digest, raw := range req.Blobs {
		if _, ok := j.blobs[digest]; !ok && err == nil {
			j.blobs[digest] = raw
		}
	}
	specs := make([]*task.Spec, len(items))
	for i := 0; i < len(items) && err == nil; i++ {
		items[i].Archive.Size = int64(len(j.blobs[items[i].Archive.Digest]))
		specs[i] = items[i].Spec
		if err = j.add(items[i].Spec, items[i].Archive); err != nil {
			j.drop(items[:i])
		}
	}
	var ready []int32
	if req.Start && err == nil {
		if ready, err = j.startLocked(req.Spans); err != nil {
			j.drop(items)
		}
	}
	j.idleSince = time.Now()
	if err != nil {
		j.mu.Unlock()
		return nil, err
	}
	j.placing++
	j.mu.Unlock()

	var placements map[string]string
	if len(items) > 0 {
		pa := jm.tracer.StartSpan(j.root, "jm.place").SetJob(j.id)
		var note string
		if placements, err = jm.placeBatch(j, specs, nil, req.Start); err != nil {
			note = err.Error()
		}
		jm.endSpan(j, pa, note)
	}
	j.mu.Lock()
	defer j.placed.Broadcast()
	j.placing--
	j.idleSince = time.Now()
	// A job cancelled while the batch was being placed — whose cancel
	// fan-out read the placement before this batch was in it — must not
	// keep the batch's reservations, nor its tasks that started on arrival.
	if err == nil && j.notified {
		defer jm.releaseBatch(j, placements, "job finished during placement")
		err = fmt.Errorf("job %s already finished", j.id)
	}
	if err != nil {
		if req.Start {
			j.unstart()
		}
		j.drop(items)
		j.mu.Unlock()
		return nil, err
	}
	for name, node := range placements {
		j.row(name).node = node
	}
	// The ready tasks an earlier frame placed start now; the frame's own
	// rode their assignments.
	exec := ready[:0]
	for _, i := range ready {
		if placements[j.tasks[i].spec.Name] == "" {
			exec = append(exec, i)
		}
	}
	j.mu.Unlock()
	if req.Start {
		sa := jm.tracer.StartSpan(j.root, "jm.start").SetJob(j.id)
		jm.execTasks(j, exec)
		jm.endSpan(j, sa, "")
	}
	jm.log.Info("tasks admitted", "job", j.id, "tasks", len(items), "nodes", len(nodeSet(placements)), "start", req.Start)
	return placements, nil
}

// startLocked starts the job's schedule, folds the client's spans into the
// timeline, and marks the ready tasks running and returns them. j.mu must
// be held.
func (j *jobState) startLocked(spans []trace.Span) ([]int32, error) {
	if j.placing > 0 {
		return nil, fmt.Errorf("job %s is still placing tasks", j.id)
	}
	if len(j.tasks) == 0 {
		return nil, fmt.Errorf("job %s has no tasks", j.id)
	}
	if err := j.start(); err != nil {
		return nil, err
	}
	ready := j.Ready()
	for _, i := range ready {
		j.tasks[i].status = StatusRunning
	}
	j.addSpansLocked(spans...)
	return ready, nil
}

// textOf is err's text, "" for nil.
func textOf(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// wantsFor assembles a batch's locality wants: each task's archive digest
// sized from the job's blob table, plus every content-addressed output the
// job's data-plane broker has located — the bytes a task may pull that a
// warm node can serve from its own cache. An archive whose bytes this
// JobManager no longer holds still wants its digest (size 1): preferring
// the node that has it costs nothing and saves the re-fetch.
func (jm *JobManager) wantsFor(j *jobState, specs []*task.Spec) placement.Wants {
	digests := make(map[string]int64)
	j.mu.Lock()
	for _, sp := range specs {
		digest := j.row(sp.Name).archive.Digest
		if digest == "" {
			continue
		}
		size := int64(len(j.blobs[digest]))
		if size == 0 {
			size = 1
		}
		digests[digest] = size
	}
	j.mu.Unlock()
	for _, l := range j.broker.Entries() {
		if l.Digest == "" {
			continue
		}
		size := l.Size
		if size <= 0 {
			size = 1
		}
		digests[l.Digest] = size
	}
	if len(digests) == 0 {
		return placement.Wants{}
	}
	return placement.Wants{Digests: digests}
}

// placeBatch places a task set: one offer round from the resource
// directory (cached when fresh), a scored two-stage plan against the
// offered figures — capacity feasibility first, then locality-aware
// ranking fed by the job's archive and data-plane digests — then parallel
// batched assignments to the chosen nodes. Rejected or unplaceable tasks
// are retried on later rounds after invalidating the offending offers.
// preExcluded nodes are never chosen — the recovery engine passes the dead
// node (its offer may still be cached) and speculation passes the
// straggler's own node. With start, the tasks already running start on
// arrival: the ready tasks of the frame that starts the job.
func (jm *JobManager) placeBatch(j *jobState, specs []*task.Spec, preExcluded map[string]bool, start bool) (map[string]string, error) {
	wants := jm.wantsFor(j, specs)
	placements := make(map[string]string, len(specs))
	remaining := specs
	// Nodes whose assignment call timed out have a best-effort release in
	// flight naming this batch's tasks; retrying the same names there
	// could race the release against the retry, so they are out for the
	// rest of this batch (later batches use different names and may
	// choose them again).
	excluded := make(map[string]bool, len(preExcluded))
	for node := range preExcluded {
		excluded[node] = true
	}
	var exclMu sync.Mutex
	var lastErr error
	for attempt := 0; attempt < solicitRetries && len(remaining) > 0; attempt++ {
		offers, err := jm.dir.Offers()
		if err != nil {
			return nil, err
		}
		exclMu.Lock()
		usable := offers[:0:0]
		for _, o := range offers {
			if !excluded[o.Node] {
				usable = append(usable, o)
			}
		}
		exclMu.Unlock()
		offers = usable
		if len(offers) == 0 {
			lastErr = fmt.Errorf("jobmgr %s: no TaskManager offered to host tasks", jm.node)
			continue
		}
		plan, unplaced, planStats := placement.PlanScored(remaining, offers, wants, placement.DefaultScorer{})
		jm.dir.NotePlan(planStats)
		if len(unplaced) > 0 {
			lastErr = placement.UnplacedError(unplaced)
			// The cached figures may undersell the cluster; force a fresh
			// round before the next attempt.
			for _, o := range offers {
				jm.dir.Invalidate(o.Node)
			}
		}

		var mu sync.Mutex
		var retry []*task.Spec
		var wg sync.WaitGroup
		for node, nodeSpecs := range plan {
			nodeItems, runs := j.assignItems(nodeSpecs, start)
			wg.Add(1)
			go func(node string, nodeItems []protocol.TaskCreate) {
				defer wg.Done()
				resp, err := jm.assignBatch(j, node, nodeItems, runs)
				if err != nil {
					// The call failed or timed out, but the TaskManager
					// may still have accepted the batch. Before retrying
					// the items elsewhere, send a targeted best-effort
					// release so an accepted-but-unacknowledged batch
					// cannot double-book memory on two nodes; the node's
					// figure is unknown until it re-offers.
					taskNames := make([]string, len(nodeItems))
					for i, it := range nodeItems {
						taskNames[i] = it.Spec.Name
					}
					jm.cancelOn(j, node, "assignment unacknowledged", taskNames...)
					jm.dir.Invalidate(node)
					exclMu.Lock()
					excluded[node] = true
					exclMu.Unlock()
					resp = &protocol.AssignTasksResp{Rejected: map[string]string{protocol.BatchRejected: "assign: " + err.Error()}}
				}
				// The reply's figure counts what the node accepted, and
				// corrects the one a rejection proved wrong.
				jm.dir.Apply(node, resp.Capacity)
				mu.Lock()
				defer mu.Unlock()
				// A whole-batch rejection (a failed call, a batch the
				// TaskManager could not decode) assigned nothing there.
				whole, all := resp.Rejected[protocol.BatchRejected]
				for _, it := range nodeItems {
					if reason, bad := resp.Rejected[it.Spec.Name]; bad || all {
						lastErr = fmt.Errorf("jobmgr %s: %s rejected task %q: %s", jm.node, node, it.Spec.Name, reason+whole)
						retry = append(retry, it.Spec)
						continue
					}
					placements[it.Spec.Name] = node
				}
			}(node, nodeItems)
		}
		wg.Wait()
		remaining = append(retry, unplaced...)
	}
	if len(remaining) > 0 {
		// Roll back what the batch did manage to reserve: a targeted
		// cancel names only this batch's tasks, so the job's previously
		// created assignments on the same nodes survive while the failed
		// batch's memory is released instead of leaking until restart.
		jm.releaseBatch(j, placements, "batch placement failed")
		names := make([]string, len(remaining))
		for i, sp := range remaining {
			names[i] = sp.Name
		}
		return nil, fmt.Errorf("jobmgr %s: placement of %v failed: %w", jm.node, names, lastErr)
	}
	return placements, nil
}

// assignItems is the assignment items of specs out of the job's table and,
// with start, the names of those that start on arrival: the running ones.
func (j *jobState) assignItems(specs []*task.Spec, start bool) ([]protocol.TaskCreate, []string) {
	items := make([]protocol.TaskCreate, len(specs))
	var run []string
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, sp := range specs {
		r := j.row(sp.Name)
		items[i] = protocol.TaskCreate{Spec: sp, Archive: r.archive}
		if start && r.status == StatusRunning {
			run = append(run, sp.Name)
		}
	}
	return items, run
}

// releaseBatch sends each node a targeted cancel for a batch's placed
// tasks, freeing their unstarted reservations without touching the job's
// other assignments, and invalidates the nodes' cached offers.
func (jm *JobManager) releaseBatch(j *jobState, placements map[string]string, reason string) {
	byNode := make(map[string][]string)
	for taskName, node := range placements {
		byNode[node] = append(byNode[node], taskName)
	}
	for node, taskNames := range byNode {
		jm.cancelOn(j, node, reason, taskNames...)
		jm.dir.Invalidate(node)
	}
}

func nodeSet(placements map[string]string) map[string]bool {
	nodes := make(map[string]bool, len(placements))
	for _, n := range placements {
		nodes[n] = true
	}
	return nodes
}

// assignBatch sends one node its share of the plan and decodes the result.
// A share with tasks to run on arrival travels under a jm.dispatch span.
func (jm *JobManager) assignBatch(j *jobState, node string, items []protocol.TaskCreate, run []string) (*protocol.AssignTasksResp, error) {
	am := protocol.Body(msg.KindAssignTasks, msg.Address{Node: jm.node, Job: j.id}, msg.Address{Node: node, Job: j.id},
		protocol.AssignTasksReq{JobID: j.id, JobManager: jm.node, ClientNode: j.clientNode, Items: items, Run: run})
	var da *trace.Active
	if len(run) > 0 {
		da, am.Trace = jm.dispatchSpan(j, "jm.dispatch", run)
	}
	// The window covers the assignment round trip plus the TaskManager's
	// possible blob fetch back to this JobManager.
	reply, err := jm.caller.CallInto(context.Background(), node, am, nil, jm.cfg.AssignTimeout)
	if err != nil {
		jm.endSpan(j, da, err.Error())
		return nil, err
	}
	jm.endSpan(j, da, "")
	var resp protocol.AssignTasksResp
	if err := protocol.Decode(reply, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// HandleBlobChunk serves both directions of the chunked blob protocol: a
// client pushing one chunk of a large archive upload (Data non-empty), or
// a TaskManager pulling one chunk of a stashed blob (Data empty). A pulled
// chunk aliases the stored blob — stored bytes are immutable — and rides
// the reply frame's tail.
func (jm *JobManager) HandleBlobChunk(m *msg.Message) *msg.Message {
	ack := func(resp protocol.BlobChunkResp) *msg.Message {
		return protocol.Reply(m, msg.KindBlobChunkAck, resp)
	}
	var req protocol.BlobChunkReq
	if err := protocol.Decode(m, &req); err != nil {
		jm.logf("bad blob-chunk request: %v", err)
		return ack(protocol.BlobChunkResp{Err: "bad blob-chunk request: " + err.Error()})
	}
	j, err := jm.job(req.JobID)
	if err != nil {
		return ack(protocol.BlobChunkResp{Digest: req.Digest, Err: err.Error()})
	}
	if len(req.Data) > 0 {
		return ack(jm.stageChunk(j, m.From.Node, &req, protocol.MaxBlobBytes))
	}
	j.mu.Lock()
	raw, ok := j.blobs[req.Digest]
	j.mu.Unlock()
	if !ok {
		return ack(protocol.BlobChunkResp{Digest: req.Digest, Err: fmt.Sprintf("blob %.12s… not held for job %s", req.Digest, j.id)})
	}
	return ack(protocol.SliceChunk(&req, raw))
}

// stageChunk hands one pushed chunk to the uploader's protocol.Upload, which
// owns the sequence rules. Kept here: the table of uploads, one per uploader
// node and digest, so concurrent clients pushing the same digest advance
// independently — whoever completes first lands the blob and the other
// converges on the "already held" acknowledgement — and the job's budget of
// staged bytes, one blob's worth (protocol.MaxBlobBytes; a parameter for the
// test that cannot stage a gigabyte).
func (jm *JobManager) stageChunk(j *jobState, fromNode string, req *protocol.BlobChunkReq, budget int64) protocol.BlobChunkResp {
	stageKey := fromNode + "/" + req.Digest
	j.mu.Lock()
	defer j.mu.Unlock()
	j.idleSince = time.Now()
	if j.notified || j.blobs == nil {
		return protocol.BlobChunkResp{Digest: req.Digest, Err: fmt.Sprintf("job %s already finished", j.id)}
	}
	held := j.blobs[req.Digest]
	// Bound the job's aggregate staged bytes: abandoned partial uploads
	// under many distinct digests must not accumulate past one blob's
	// worth of memory budget. A chunk at offset 0 restarts its own upload,
	// whose bytes then no longer count.
	var inFlight int64
	for key, other := range j.staged {
		if key != stageKey || req.Offset != 0 {
			inFlight += other.Len()
		}
	}
	if held == nil && inFlight+int64(len(req.Data)) > budget {
		delete(j.staged, stageKey)
		return protocol.BlobChunkResp{Digest: req.Digest,
			Err: fmt.Sprintf("job %s staged-upload budget exhausted (%d bytes in flight)", j.id, inFlight)}
	}
	up := j.staged[stageKey]
	if up == nil {
		up = new(protocol.Upload)
		j.staged[stageKey] = up
	}
	ack, blob := up.Push(req, held)
	if up.Len() == 0 {
		delete(j.staged, stageKey)
	}
	if blob != nil {
		j.blobs[req.Digest] = blob
		jm.logf("job %s: staged blob %.12s… (%d bytes, chunked upload from %s)", j.id, req.Digest, len(blob), fromNode)
	}
	return ack
}

// execTasks dispatches tasks the schedule released — the ready set at start,
// what a batch of completions unblocked, a recovery or adoption re-exec —
// as one EXEC_TASK frame per hosting node, each listing its tasks in the
// order given. A frame that cannot be sent (the node vanished between
// placement and start) sends every task in it through the recovery path
// instead of failing them outright. Only a started job's tasks are run, so
// their ordinals are stable.
func (jm *JobManager) execTasks(j *jobState, ords []int32) {
	if len(ords) == 0 {
		return
	}
	// A job's tasks sit on a handful of nodes: a slice searched linearly
	// keeps first-appearance order and costs less than a map.
	type nodeTasks struct {
		node  string
		tasks []string
	}
	var frames []nodeTasks
	j.mu.Lock()
next:
	for _, i := range ords {
		r := &j.tasks[i]
		for k := range frames {
			if frames[k].node == r.node {
				frames[k].tasks = append(frames[k].tasks, r.spec.Name)
				continue next
			}
		}
		frames = append(frames, nodeTasks{r.node, []string{r.spec.Name}})
	}
	j.mu.Unlock()
	for _, f := range frames {
		if err := jm.sendExec(j, f.node, f.tasks, "jm.dispatch", ""); err != nil {
			jm.log.Warn("task dispatch failed", "job", j.id, "tasks", len(f.tasks), "target", f.node, "err", err)
			jm.retryOrFail(j, f.tasks, f.node, fmt.Sprintf("dispatch to %s failed: %v", f.node, err))
		}
	}
}

// sendExec sends one EXEC_TASK frame under a dispatch span of the given
// name, closed with the send error, else with note.
func (jm *JobManager) sendExec(j *jobState, node string, tasks []string, span, note string) error {
	em := protocol.Body(msg.KindExecTask, msg.Address{Node: jm.node, Job: j.id}, msg.Address{Node: node, Job: j.id},
		protocol.ExecTaskReq{JobID: j.id, Tasks: tasks})
	da, tc := jm.dispatchSpan(j, span, tasks)
	em.Trace = tc
	err := jm.send(node, em)
	if err != nil {
		note = err.Error()
	}
	jm.endSpan(j, da, note)
	return err
}

// dispatchSpan opens the span a frame that starts tasks travels under,
// labelled with the first task and how many more ("t1 +7"), and returns the
// context the frame carries: the span's, else the job's root (the executing
// side may record spans even if this node does not).
func (jm *JobManager) dispatchSpan(j *jobState, span string, tasks []string) (*trace.Active, trace.Context) {
	da := jm.tracer.StartSpan(j.root, span).SetJob(j.id)
	if da == nil {
		return nil, j.root
	}
	label := tasks[0]
	if len(tasks) > 1 {
		label = fmt.Sprintf("%s +%d", label, len(tasks)-1)
	}
	return da.SetTask(label), da.Context()
}

// Enqueue places a job-scoped message (task lifecycle events or user
// message) on the owning job's serial queue. The job id is taken from the
// destination address so no payload decoding happens on the endpoint's
// dispatch goroutine. A message for a finished or unknown job, or one past
// a full queue, is dropped, matching the fabric's at-most-once semantics:
// nothing is owed once the job's end has been sent, because the end
// follows everything the job's tasks sent before they ended. Only the
// figure of a dropped event batch is still taken: the batches that come
// after a job failed or was cancelled are the ones that report the memory
// its end freed.
func (jm *JobManager) Enqueue(m *msg.Message) {
	jobID := m.To.Job
	if jobID == "" {
		jobID = m.From.Job
	}
	j, t := jm.lookup(jobID)
	if j == nil {
		var batch protocol.TaskEvents
		if m.Kind == msg.KindTaskEvents && protocol.Decode(m, &batch) == nil {
			jm.dir.Apply(m.From.Node, batch.Capacity)
		}
		if t == nil {
			jm.logf("message %s for unknown job %q dropped", m.Kind, jobID)
		} else {
			jm.log.Debug("message for finished job dropped", "job", jobID, "kind", m.Kind.String())
		}
		return
	}
	// Bounded here, by its owner. A dropped message can leave the job
	// waiting on a task that has finished, so the drop is a warning.
	if j.queue.Len() >= jobQueueCap {
		jm.log.Warn("job queue full, message dropped", "job", j.id, "kind", m.Kind.String())
		return
	}
	_ = j.queue.Put(m) // refused only once the job retired: late, and dropped
}

// jobWorker drains one job's queue in arrival order. Retirement closes the
// queue: the worker handles what was already queued — against the
// tombstone, like any late message — and exits.
func (jm *JobManager) jobWorker(j *jobState) {
	defer jm.wg.Done()
	for {
		m, err := j.queue.Get()
		if err != nil {
			return
		}
		j.mu.Lock()
		for j.placing > 0 {
			j.placed.Wait()
		}
		j.mu.Unlock()
		switch m.Kind {
		case msg.KindTaskEvents:
			jm.HandleTaskEvents(m)
		case msg.KindUser, msg.KindBroadcast:
			if err := jm.HandleUser(m.Kind, m); err != nil {
				jm.logf("route user message: %v", err)
			}
		default:
			jm.logf("job %s: unexpected queued kind %s", j.id, m.Kind)
		}
	}
}

// HandleTaskEvents processes a TaskManager's batch of lifecycle events:
// the node's figure goes to the placement directory, and the events drive
// the schedule forward. A TaskManager reports only the three task labels;
// the retry and job labels are this manager's own, to its client, so a
// batch that carries one is not a TaskManager's and is dropped whole.
func (jm *JobManager) HandleTaskEvents(m *msg.Message) {
	var batch protocol.TaskEvents
	if err := protocol.Decode(m, &batch); err != nil {
		jm.logf("bad task events: %v", err)
		return
	}
	for i := range batch.Events {
		if k := batch.Events[i].Kind; !protocol.IsTaskLabel(k) {
			jm.log.Warn("task events with a label no TaskManager sends dropped",
				"job", batch.JobID, "from", m.From.Node, "label", k.String(), "events", len(batch.Events))
			return
		}
	}
	jm.dir.Apply(m.From.Node, batch.Capacity)
	jm.applyEvents(&batch)
}

// failTasks applies a TASK_FAILED this manager raises itself — a dispatch
// that could not be recovered, a spent retry budget — for each named task:
// a batch like any other, attributed to node.
func (jm *JobManager) failTasks(j *jobState, node string, names []string, attempts map[string]int, reason string) {
	batch := protocol.TaskEvents{JobID: j.id, Node: node, Events: make([]protocol.TaskEventItem, len(names))}
	for i, name := range names {
		batch.Events[i] = protocol.TaskEventItem{Kind: msg.KindTaskFailed, Task: name, Err: reason, Attempt: attempts[name]}
	}
	jm.applyEvents(&batch)
}

// owed is what applying a batch of events leaves to do once the job's lock
// is released: sent together, after the batch, instead of once per event.
type owed struct {
	relay   []protocol.TaskEventItem // events the client is owed
	start   []int32                  // tasks the batch released
	cancels []taskCopy               // copies that lost the first-result-wins race
}

// taskCopy names one copy of a task by the node running it.
type taskCopy struct{ node, task string }

// applyEvents applies a batch of lifecycle events of one job from one node,
// in order, and then pays what they owe: the cancels, one EXEC_TASK per
// node, and one TASK_EVENTS frame to the client — sent by finishJob, with
// the job's end as its last label, if the batch ended the job. The batch is
// consumed: its Events are compacted into the relay.
func (jm *JobManager) applyEvents(batch *protocol.TaskEvents) {
	j, t := jm.lookup(batch.JobID)
	if j == nil {
		if t == nil {
			jm.logf("%d events for unknown job %s", len(batch.Events), batch.JobID)
		}
		return
	}
	o := owed{relay: batch.Events[:0]}
	jobDone, how, reason := false, outcomeCompleted, ""
	j.mu.Lock()
	for i := range batch.Events {
		ev := batch.Events[i]
		// Terminal events carry the task's drained spans (exec, shuffle
		// fetches); merge them even when the event itself turns out stale — a
		// losing twin's spans are still part of the trace. The client has no
		// use for them.
		j.addSpansLocked(ev.Spans...)
		ev.Spans = nil
		// Events racing the start or the retirement of a live record are
		// still relayed ("Get Messages from Tasks" includes lifecycle
		// notifications).
		if !j.started || j.notified || jm.applyLocked(j, batch.Node, &ev, &o) {
			o.relay = append(o.relay, ev)
		}
		if !j.notified && j.started && (j.Done() || j.Failed()) {
			jobDone = true
			how, reason = j.end()
			j.notified = true
		}
	}
	j.mu.Unlock()

	for _, c := range o.cancels {
		jm.cancelOn(j, c.node, "duplicate copy lost", c.task)
	}
	jm.execTasks(j, o.start)
	if jobDone {
		jm.finishJob(j, how, reason, batch.Node, o.relay)
		return
	}
	jm.relayEvents(j, batch.Node, o.relay)
}

// applyLocked advances a started, unfinished job's schedule by one event
// from node, adding what the event owes to o, and reports whether the
// client is owed the event. j.mu must be held.
func (jm *JobManager) applyLocked(j *jobState, node string, ev *protocol.TaskEventItem, o *owed) (relay bool) {
	i, ok := j.index[ev.Task]
	if !ok {
		return ev.Kind == msg.KindTaskStarted
	}
	r := &j.tasks[i]
	primary, twin := r.node, r.twin
	switch ev.Kind {
	case msg.KindTaskStarted:
		// Informational; seed the straggler baseline so a task that starts
		// and never syncs progress is still speculation-eligible.
		if r.beat.changedAt.IsZero() {
			r.beat.changedAt = time.Now()
		}
	case msg.KindTaskCompleted:
		if node != "" && node != primary && node != twin {
			// A copy this job no longer tracks (a cancelled loser, or an
			// orphan that raced its own recovery): its result is already
			// covered by the surviving copy.
			return false
		}
		newly, cerr := j.Complete(i)
		if cerr != nil {
			// With a twin or past retries in play this is a benign
			// duplicate (the other copy won earlier); otherwise it is an
			// out-of-protocol event worth a diagnostic.
			if twin == "" && r.retries == 0 {
				jm.logf("job %s: %v", j.id, cerr)
			}
			return false
		}
		if twin != "" {
			// First result wins; cancel the losing copy, which frees the
			// loser's reservation on its node.
			loser := twin
			if node == twin {
				loser = primary
			}
			r.node, r.twin = node, ""
			if loser != "" && loser != node {
				o.cancels = append(o.cancels, taskCopy{loser, ev.Task})
			}
		}
		r.beat = beatState{}
		for _, d := range newly {
			j.tasks[d].status = StatusRunning
		}
		o.start = append(o.start, newly...)
	case msg.KindTaskFailed:
		switch {
		case twin != "" && node == twin:
			// The speculative twin failed; the primary is still running.
			r.twin = ""
			return false
		case node != "" && node != primary:
			// Stale copy of a re-placed task (usually the cancelled loser
			// reporting "stopped"); not authoritative.
			return false
		case twin != "":
			// The primary failed but its speculative twin is still running:
			// promote the twin instead of failing the task.
			r.promoteTwin()
			return false
		default:
			r.err = ev.Err
			if !j.FailAny(i) {
				jm.logf("job %s: fail %q: already terminal", j.id, ev.Task)
			}
		}
	}
	return true
}

// promoteTwin makes a task's speculative twin its primary copy. The
// straggler baseline is reseeded, or the twin would be judged by the
// replaced primary's stale stall timestamp and speculated again at once.
func (r *taskRow) promoteTwin() {
	r.node, r.twin = r.twin, ""
	r.beat = beatState{changedAt: time.Now()}
}

// cancelOn sends node a CANCEL_JOB for the job: for the named tasks only
// when any are named, so the job's other assignments there survive.
func (jm *JobManager) cancelOn(j *jobState, node, reason string, tasks ...string) {
	cm := protocol.Body(msg.KindCancelJob, msg.Address{Node: jm.node, Job: j.id}, msg.Address{Node: node, Job: j.id},
		protocol.CancelJobReq{JobID: j.id, Reason: reason, Tasks: tasks})
	if err := jm.send(node, cm); err != nil {
		jm.logf("job %s: cancel %v on %s (%s): %v", j.id, tasks, node, reason, err)
	}
}

// finishJob is the one exit every job takes — completed, failed, cancelled
// or abandoned. The caller has set j.notified. It releases what the job
// still holds on other nodes (reason names why, for their logs), retires
// the record, and tells the client how a started job ended: relay, the
// events of node the caller still owes the client, goes out as one batch
// with the job's end as its last label, the last frame of the job's stream.
//
// What a job can hold elsewhere is reservations and running tasks — none
// once it completed — and the outputs its tasks put into, or pulled into,
// their nodes' caches, which a completed job holds like any other. So the
// CANCEL_JOB fan-out that ends the former is also the one signal that ends
// the latter: a job whose broker holds an advert sends it however it ended,
// a completed job that never used the data plane sends nothing.
func (jm *JobManager) finishJob(j *jobState, how outcome, reason, node string, relay []protocol.TaskEventItem) {
	adverts := j.broker.Entries()
	// Close the coordination space and data-plane broker first so workers
	// blocked in In/Rd or parked in a resolve — on a failed job, possibly
	// forever — unblock with ErrClosed before the cancel fan-out reaches
	// their nodes.
	j.space.Close()
	j.broker.Close()
	var nodes map[string]bool
	if how != outcomeCompleted || len(adverts) > 0 {
		j.mu.Lock()
		nodes = make(map[string]bool)
		for i := range j.tasks {
			nodes[j.tasks[i].node] = true
			nodes[j.tasks[i].twin] = true
		}
		delete(nodes, "")
		if how == outcomeCancelled && j.started {
			j.CancelAll()
		}
		j.mu.Unlock()
		// A producer re-placed since it advertised left its output on a
		// node the placement no longer names.
		for _, l := range adverts {
			if l.Node != "" {
				nodes[l.Node] = true
			}
		}
	}
	for node := range nodes {
		jm.cancelOn(j, node, reason)
	}

	var errText string
	switch how {
	case outcomeFailed:
		errText = "one or more tasks failed"
	case outcomeCancelled, outcomeAbandoned:
		errText = how.String() + ": " + reason
	}
	// A terminal anchor span marks when the job finished; the timeline
	// stays queryable through the tombstone.
	fa := jm.tracer.StartSpan(j.root, "jm.finish").SetJob(j.id)
	jm.endSpan(j, fa, errText)
	t := jm.retire(j, how)
	jm.log.Info("job finished", "job", j.id, "outcome", how.String())

	// A cancel is acknowledged to its requester and an abandoned job has
	// no client listening; the other two ends are the client's to learn.
	switch how {
	case outcomeCompleted:
		relay = append(relay, protocol.TaskEventItem{Kind: msg.KindJobCompleted, TaskErrs: t.taskErrs})
	case outcomeFailed:
		relay = append(relay, protocol.TaskEventItem{Kind: msg.KindJobFailed, Err: errText, TaskErrs: t.taskErrs})
	}
	jm.relayEvents(j, node, relay)
}

// relayEvents sends the client events of node it is owed, as TASK_EVENTS
// frames cut by protocol.CutTaskEvents: one, unless the job's end joined a
// full batch.
func (jm *JobManager) relayEvents(j *jobState, node string, events []protocol.TaskEventItem) {
	for len(events) > 0 {
		n := protocol.CutTaskEvents(events)
		m := protocol.Body(msg.KindTaskEvents,
			msg.Address{Node: jm.node, Job: j.id},
			msg.Address{Node: j.clientNode, Job: j.id, Task: protocol.ClientTaskName},
			protocol.TaskEvents{JobID: j.id, Node: node, Events: events[:n]})
		if err := jm.send(j.clientNode, m); err != nil {
			jm.logf("job %s: relay %d events to client: %v", j.id, n, err)
		}
		events = events[n:]
	}
}

// HandleUser routes a user message through the conduit: to the client when
// addressed to "client", to every sibling for broadcasts, otherwise to the
// hosting TaskManager of the destination task.
func (jm *JobManager) HandleUser(kind msg.Kind, m *msg.Message) error {
	var p protocol.UserPayload
	if err := protocol.Decode(m, &p); err != nil {
		return fmt.Errorf("jobmgr %s: bad user payload: %w", jm.node, err)
	}
	j, t := jm.lookup(p.JobID)
	if j == nil {
		if t == nil {
			return jm.errUnknownJob(p.JobID)
		}
		// The job's end went out after everything its tasks sent before
		// they ended; nobody is left to hear this.
		return nil
	}
	// The copies to send: to the client, to the named task's node, or — a
	// broadcast — to every sibling's.
	var to []msg.Address
	j.mu.Lock()
	switch {
	case kind == msg.KindBroadcast:
		for i := range j.tasks {
			if r := &j.tasks[i]; r.node != "" && r.spec.Name != p.FromTask {
				to = append(to, msg.Address{Node: r.node, Job: j.id, Task: r.spec.Name})
			}
		}
	case p.ToTask == protocol.ClientTaskName:
		to = append(to, msg.Address{Node: j.clientNode, Job: j.id, Task: p.ToTask})
	default:
		if r := j.row(p.ToTask); r != nil && r.node != "" {
			to = append(to, msg.Address{Node: r.node, Job: j.id, Task: p.ToTask})
		}
	}
	j.mu.Unlock()
	if len(to) == 0 && kind != msg.KindBroadcast {
		return fmt.Errorf("jobmgr %s: job %s has no task %q", jm.node, j.id, p.ToTask)
	}
	var err error
	for _, addr := range to {
		fp := p
		fp.ToTask = addr.Task
		if serr := jm.send(addr.Node, protocol.Body(msg.KindUser, m.From, addr, fp).SetHeader(protocol.HeaderRouted, "1")); serr != nil {
			err = fmt.Errorf("job %s: to %s/%s: %w", j.id, addr.Node, addr.Task, serr)
		}
	}
	return err
}

// HandleCancel processes a client-initiated KindCancelJob. Cancelling a
// job that already ended is acknowledged like any other.
func (jm *JobManager) HandleCancel(m *msg.Message) *msg.Message {
	var req protocol.CancelJobReq
	if err := protocol.Decode(m, &req); err != nil {
		return jm.errReply(m, fmt.Sprintf("bad cancel request: %v", err))
	}
	j, t := jm.lookup(req.JobID)
	if j == nil {
		if t == nil {
			return jm.noJobReply(m, req.JobID, nil)
		}
		return m.Reply(msg.KindPong, nil)
	}
	j.mu.Lock()
	already := j.notified
	j.notified = true
	j.mu.Unlock()
	if !already {
		jm.finishJob(j, outcomeCancelled, req.Reason, "", nil)
	}
	return m.Reply(msg.KindPong, nil)
}

// Close marks the JobManager unwilling to host further jobs and stops the
// per-job workers.
func (jm *JobManager) Close() {
	jm.mu.Lock()
	if jm.closed {
		jm.mu.Unlock()
		jm.wg.Wait()
		return
	}
	jm.closed = true
	close(jm.stop)
	jobs := make([]*jobState, 0, len(jm.jobs))
	for _, j := range jm.jobs {
		jobs = append(jobs, j)
	}
	jm.mu.Unlock()
	// Closing a space or broker answers its parked ops on this goroutine;
	// those answers must not run under jm.mu.
	for _, j := range jobs {
		j.queue.Close()
		j.space.Close()
		j.broker.Close()
	}
	jm.monitor.Close()
	jm.wg.Wait()
}
