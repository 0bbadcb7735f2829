// Package taskmgr implements the CN TaskManager: the component that
// "executes the various Tasks of various Jobs and is transparent to the
// user". A TaskManager answers placement solicitations, accepts archive
// uploads, "sets up a message queue for each Task and then executes each
// Task in a separate thread when the User program requests to start the
// Task" (threads are goroutines here).
package taskmgr

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cn/internal/archive"
	"cn/internal/config"
	"cn/internal/logging"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/trace"
	"cn/internal/transport"
	"cn/internal/tuplespace"
)

// SendFunc delivers a message to a node; the CN server injects its
// endpoint's Send.
type SendFunc func(toNode string, m *msg.Message) error

// CallFunc performs one request/response round trip to a node, with dst —
// when not nil — posted for the reply's bulk tail. The CN server wires its
// transport caller's CallInto in; tasks' tuple-space and data-plane broker
// operations route through it to the JobManager hosting the job (dst nil),
// chunk pulls — of an archive from the assigning JobManager, of a task's
// output from the node that produced it — to the node holding the blob (dst
// the region the chunk belongs in). nil disables all three: an assignment
// referencing a digest this node does not cache is then rejected.
type CallFunc = protocol.CallIntoFunc

// assignment is one task assigned to this TaskManager.
type assignment struct {
	jobID string
	// jobManager is the node whose JobManager currently owns the job. It
	// is re-pointed by HandleAdopt when a surviving JobManager re-homes a
	// dead peer's job, and read from the heartbeat, event, and tuple-space
	// paths concurrently — hence the atomic.
	jobManager atomic.Pointer[string]
	// moved is closed when setJM re-points the assignment; a send that
	// found the manager gone waits on it (see execContext.send).
	jmMu       sync.Mutex
	moved      chan struct{}
	clientNode string
	// peers is how many tasks of the job the assignment that brought this
	// one carried: the size its events' outbox starts at.
	peers     int
	spec      *task.Spec
	mailbox   *msg.Mailbox[*msg.Message]
	cancelled atomic.Bool
	started   atomic.Bool
	// ctx is the one context of the task's execution: every call the task
	// makes through its Context runs under it, and cancel — called when the
	// assignment is cancelled, which a TaskManager shutting down does to
	// every assignment — ends it, so an in-flight blocking call (a
	// tuple-space In parked on the JobManager) aborts promptly instead of
	// waiting out its window.
	ctx  context.Context
	stop context.CancelFunc
	// progress is the task's monotonic activity counter, bumped on every
	// message the task sends or receives; heartbeats carry it to the
	// JobManager as the straggler-detection signal.
	progress atomic.Uint64
	// trace is the context the exec dispatch carried in; set once by claim
	// before the execute goroutine launches and read only there. Zero when
	// the job is untraced.
	trace trace.Context
	// Stall bookkeeping, guarded by the TaskManager's mu: the progress
	// value the last beat observed and when it last changed. A running task
	// whose counter sits still for stallBeats heartbeat intervals counts
	// into the TMOffer's StalledTasks figure.
	lastProgress   uint64
	lastProgressAt time.Time
}

// jm returns the node of the JobManager currently owning the assignment.
func (a *assignment) jm() string { return *a.jobManager.Load() }

// setJM re-points the assignment at a new owning JobManager.
func (a *assignment) setJM(node string) {
	a.jobManager.Store(&node)
	a.jmMu.Lock()
	if a.moved != nil {
		close(a.moved)
		a.moved = nil
	}
	a.jmMu.Unlock()
}

// awaitJM waits until the assignment is re-pointed away from node and
// returns the new manager, or "" once the execution ends or within passes.
func (a *assignment) awaitJM(node string, within time.Duration) string {
	a.jmMu.Lock()
	if cur := a.jm(); cur != node {
		a.jmMu.Unlock()
		return cur
	}
	if a.moved == nil {
		a.moved = make(chan struct{})
	}
	moved := a.moved
	a.jmMu.Unlock()
	t := time.NewTimer(within)
	defer t.Stop()
	select {
	case <-moved:
		return a.jm()
	case <-a.ctx.Done():
	case <-t.C:
	}
	return ""
}

// newAssignment builds the record of one task assigned by jobManager.
func newAssignment(jobID, jobManager, clientNode string, spec *task.Spec) *assignment {
	a := &assignment{
		jobID:      jobID,
		clientNode: clientNode,
		spec:       spec,
		mailbox:    msg.NewMailbox[*msg.Message](),
	}
	a.ctx, a.stop = context.WithCancel(context.Background())
	a.setJM(jobManager)
	return a
}

// cancel marks the assignment cancelled and releases its waiters: the
// mailbox closes (Recv returns ErrStopped) and the context ends any
// in-flight tuple-space or data-plane call.
func (a *assignment) cancel() {
	a.cancelled.Store(true)
	a.stop()
	a.mailbox.Close()
}

// TaskManager executes tasks on one node.
type TaskManager struct {
	cfg    config.Config
	node   string
	send   SendFunc
	call   CallFunc
	log    *slog.Logger
	tracer *trace.Tracer
	blobs  *archive.Cache
	// releaseMu orders a task making its job the owner of a cache entry
	// (read side: execContext.publish, acquire) against the job's release
	// (write side: HandleCancel); see publish.
	releaseMu sync.RWMutex
	stop      chan struct{}
	hbSeq     atomic.Uint64
	// jobManagers lists the JobManager group's members, this node's own
	// included: every one gets this node's beat on each tick. nil beats
	// only the owners of assignments.
	jobManagers func() []string
	// beatScratch is beatOnce's grouping map, reused across rounds (the
	// heartbeat ticks forever on every node; rebuilding the map and its
	// slices each round was steady-state garbage). Between rounds its keys
	// are the JobManagers beaten last round, values truncated but with
	// capacity retained. Only the heartbeat goroutine touches it.
	beatScratch map[string][]protocol.TaskBeat

	mu       sync.Mutex
	freeMB   int
	assigned map[string]*assignment // key: jobID + "/" + task name
	running  int
	closed   bool
	wg       sync.WaitGroup
	// capSeq numbers the capacity figures this node reports (see
	// capacityLocked).
	capSeq uint64

	// outboxes holds, per job, the lifecycle events this node has not sent
	// yet (see post). An entry exists exactly while its flusher runs.
	outMu    sync.Mutex
	outboxes map[string]*outbox

	// Data-plane byte counters: payloads served to peer TaskManagers
	// (producer side) and pulled from them (consumer side).
	dataServedBytes  atomic.Int64
	dataFetchedBytes atomic.Int64
}

// outbox is one job's unsent lifecycle events, in the order they happened.
// It holds at most two per assignment of the job on this node (started and
// the terminal event) plus one per exec that could not start.
type outbox struct {
	// manager is where the next batch goes: the owning JobManager as the
	// event that opened the outbox knew it, re-pointed by HandleAdopt, read
	// when a batch is cut — so queued events of an adopted job reach the
	// adopter.
	manager string
	events  []protocol.TaskEventItem
	// flushing is set while the flusher runs; held counts the exec lists
	// whose TASK_STARTED events are in and whose tasks are being launched,
	// which start no flusher until they are.
	flushing bool
	held     int
}

// New creates a TaskManager on node and starts its heartbeat loop (unless
// cfg.HeartbeatInterval is negative). The tracer opens this TaskManager's
// spans (task exec, shuffle puts and gets); each task keeps its own and its
// terminal event carries them to the JobManager's timeline; nil disables
// TM-side span recording. A nil call disables archive pulls and tuple-space
// and data-plane access. jobManagers lists the JobManager group, which the
// heartbeat renews this node's lease at.
func New(cfg config.Config, node string, tracer *trace.Tracer, send SendFunc, call CallFunc, jobManagers func() []string) *TaskManager {
	cfg = cfg.WithDefaults()
	tm := &TaskManager{
		cfg:         cfg,
		node:        node,
		send:        send,
		call:        call,
		log:         logging.Component(cfg.Log, "taskmgr", node),
		tracer:      tracer,
		blobs:       archive.NewCache(),
		stop:        make(chan struct{}),
		assigned:    make(map[string]*assignment),
		outboxes:    make(map[string]*outbox),
		freeMB:      cfg.MemoryMB,
		jobManagers: jobManagers,
		beatScratch: make(map[string][]protocol.TaskBeat),
	}
	if cfg.HeartbeatInterval > 0 {
		tm.wg.Add(1)
		go tm.heartbeatLoop()
	}
	return tm
}

// heartbeatLoop streams HEARTBEAT messages to every JobManager, on the
// configured cadence.
func (tm *TaskManager) heartbeatLoop() {
	defer tm.wg.Done()
	ticker := time.NewTicker(tm.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-tm.stop:
			return
		case <-ticker.C:
			tm.beatOnce()
		}
	}
}

// beatOnce snapshots the assignment table, groups it by owning JobManager,
// and sends every member of the JobManager group — and any other owner —
// a Heartbeat: the renewal of this node's lease plus the progress sync of
// the tasks it runs for that manager, possibly none.
func (tm *TaskManager) beatOnce() {
	now := time.Now()
	var members []string
	if tm.jobManagers != nil {
		members = tm.jobManagers()
	}
	// Reuse the scratch map across rounds: truncate each entry so appends
	// below refill in place.
	byJM := tm.beatScratch
	for jm, beats := range byJM {
		byJM[jm] = beats[:0]
	}
	for _, jm := range members {
		if _, ok := byJM[jm]; !ok {
			byJM[jm] = nil
		}
	}
	tm.mu.Lock()
	for _, a := range tm.assigned {
		jmNode := a.jm()
		p := a.progress.Load()
		if p != a.lastProgress || a.lastProgressAt.IsZero() {
			a.lastProgress, a.lastProgressAt = p, now
		}
		byJM[jmNode] = append(byJM[jmNode], protocol.TaskBeat{
			JobID:    a.jobID,
			Task:     a.spec.Name,
			Running:  a.started.Load() && !a.cancelled.Load(),
			Progress: p,
		})
	}
	tm.mu.Unlock()
	seq := tm.hbSeq.Add(1)
	for jm, beats := range byJM {
		if len(beats) == 0 && !slices.Contains(members, jm) {
			delete(byJM, jm) // neither a member nor an owner any more
			continue
		}
		// Deterministic beat order keeps the wire payload stable for tests
		// and logs.
		sort.Slice(beats, func(a, b int) bool {
			if beats[a].JobID != beats[b].JobID {
				return beats[a].JobID < beats[b].JobID
			}
			return beats[a].Task < beats[b].Task
		})
		hb := protocol.Body(msg.KindHeartbeat,
			msg.Address{Node: tm.node},
			msg.Address{Node: jm},
			protocol.Heartbeat{Node: tm.node, Seq: seq, Beats: beats})
		if err := tm.send(jm, hb); err != nil {
			tm.logf("heartbeat to %s: %v", jm, err)
		}
	}
}

// HandleHeartbeatAck processes the JobManager's beat acknowledgement. Jobs
// the JobManager no longer tracks (evicted tombstones, forgotten abandons)
// have their local assignments cancelled so their reservations do not
// outlive the job.
func (tm *TaskManager) HandleHeartbeatAck(m *msg.Message) {
	var ack protocol.HeartbeatAck
	if err := protocol.Decode(m, &ack); err != nil {
		tm.logf("bad heartbeat ack: %v", err)
		return
	}
	for _, jobID := range ack.UnknownJobs {
		tm.logf("job %s unknown to %s; releasing its assignments", jobID, ack.Node)
		tm.HandleCancel(jobID)
	}
}

// BlobCache exposes the node's digest-keyed archive cache (metrics, tests).
func (tm *TaskManager) BlobCache() *archive.Cache { return tm.blobs }

func (tm *TaskManager) logf(format string, args ...any) {
	logging.Debugf(tm.log, format, args...)
}

func key(jobID, taskName string) string { return jobID + "/" + taskName }

// FreeMemoryMB returns the unreserved capacity.
func (tm *TaskManager) FreeMemoryMB() int {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.freeMB
}

// RunningTasks returns the number of currently executing tasks.
func (tm *TaskManager) RunningTasks() int {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.running
}

// capacityLocked reads the node's figure for a frame being built: free
// memory and running tasks under the next sequence number, so of two
// figures the JobManager receives the one read later carries the higher
// sequence whichever arrives first. tm.mu must be held.
func (tm *TaskManager) capacityLocked() protocol.Capacity {
	tm.capSeq++
	return protocol.Capacity{Seq: tm.capSeq, FreeMemoryMB: tm.freeMB, RunningTasks: tm.running}
}

// capacity is capacityLocked under tm.mu.
func (tm *TaskManager) capacity() protocol.Capacity {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.capacityLocked()
}

// HandleSolicit answers a KindTaskSolicit: the TaskManager is willing when
// it has enough free memory and knows (or will receive) the task class.
// It returns nil when unwilling — multicast solicitations are simply not
// answered in that case, like the paper's protocol.
func (tm *TaskManager) HandleSolicit(m *msg.Message) *msg.Message {
	var req protocol.TaskSolicitReq
	if err := protocol.Decode(m, &req); err != nil {
		tm.logf("bad solicit: %v", err)
		return nil
	}
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if tm.closed || tm.freeMB < req.Spec.Req.MemoryMB {
		return nil
	}
	c := tm.capacityLocked()
	offer := protocol.TMOffer{
		Node:            tm.node,
		FreeMemoryMB:    c.FreeMemoryMB,
		RunningTasks:    c.RunningTasks,
		Seq:             c.Seq,
		ResidentDigests: tm.blobs.RecentDigests(protocol.MaxOfferDigests),
		StalledTasks:    tm.stalledLocked(time.Now()),
	}
	return protocol.Reply(m, msg.KindTaskOffer, offer)
}

// stallBeats is how many silent heartbeat intervals a running task's
// progress counter must sit still before the task counts as stalled in
// this node's placement offers.
const stallBeats = 3

// stalledLocked counts running assignments whose progress counter has not
// advanced for stallBeats heartbeat intervals. Callers hold tm.mu. With
// heartbeating disabled the counter is never observed, so nothing ever
// reports as stalled.
func (tm *TaskManager) stalledLocked(now time.Time) int {
	if tm.cfg.HeartbeatInterval <= 0 {
		return 0
	}
	cutoff := now.Add(-stallBeats * tm.cfg.HeartbeatInterval)
	stalled := 0
	for _, a := range tm.assigned {
		if a.started.Load() && !a.cancelled.Load() &&
			!a.lastProgressAt.IsZero() && a.lastProgressAt.Before(cutoff) {
			stalled++
		}
	}
	return stalled
}

// HandleAssignBatch processes a KindAssignTasks: a batch assignment whose
// items carry content-addressed archive references only. Missing blobs are
// pulled from the JobManager once per digest; every item is then verified
// and reserved individually, so one oversubscribed task — or one whose
// archive could not be had — rejects alone instead of failing the batch.
// The accepted items the run list names start at once, as an EXEC_TASK
// listing them would start them. The reply carries the node's figure as it
// stands after all that.
func (tm *TaskManager) HandleAssignBatch(m *msg.Message) *msg.Message {
	var req protocol.AssignTasksReq
	if err := protocol.Decode(m, &req); err != nil {
		return protocol.Reply(m, msg.KindTasksAssigned, protocol.AssignTasksResp{
			Rejected: map[string]string{protocol.BatchRejected: err.Error()},
			Capacity: tm.capacity(),
		})
	}
	resp := protocol.AssignTasksResp{Rejected: make(map[string]string)}
	fetched, missing := tm.ensureBlobs(req.JobManager, req.JobID, req.Items)
	resp.Fetched = fetched
	for _, it := range req.Items {
		reason, bad := missing[it.Archive.Digest]
		if !bad {
			reason = tm.assignOne(req.JobID, req.JobManager, req.ClientNode, it, len(req.Items))
		}
		if reason != "" {
			resp.Rejected[it.Spec.Name] = reason
			tm.logf("reject %s: %s", key(req.JobID, it.Spec.Name), reason)
		}
	}
	tm.log.Info("tasks assigned", "job", req.JobID, "tasks", len(req.Items)-len(resp.Rejected), "rejected", len(resp.Rejected))
	run := req.Run[:0:0]
	for _, name := range req.Run {
		if _, rejected := resp.Rejected[name]; !rejected {
			run = append(run, name)
		}
	}
	tm.HandleExec(req.JobID, run, req.JobManager, m.Trace)
	resp.Capacity = tm.capacity()
	return protocol.Reply(m, msg.KindTasksAssigned, resp)
}

// ensureBlobs makes every digest referenced by items resident in the blob
// cache, pulling each missing one from the JobManager once, however many
// items name it. It returns how many blobs were transferred and, for each
// digest that could not be made resident, why: only the items referencing
// that digest are lost.
func (tm *TaskManager) ensureBlobs(jmNode, jobID string, items []protocol.TaskCreate) (fetched int, missing map[string]string) {
	seen := make(map[string]bool)
	for _, it := range items {
		ref := it.Archive
		if ref.Digest == "" || seen[ref.Digest] || tm.blobs.Has(ref.Digest) {
			continue
		}
		seen[ref.Digest] = true
		if err := tm.pullArchive(jmNode, jobID, ref); err != nil {
			if missing == nil {
				missing = make(map[string]string)
			}
			missing[ref.Digest] = fmt.Sprintf("archive blob %.12s… from %s: %v", ref.Digest, jmNode, err)
			continue
		}
		fetched++
	}
	return fetched, missing
}

// pullArchive chunk-pulls the blob ref names from the JobManager that
// assigned it — the way fetchData pulls a task's output — and caches it as
// an archive. The size the ref advertises is checked before anything is
// allocated for it, and PullBlob returns only bytes that hash to the digest.
// The bytes are memory of their own, not a buffer of the cache's free list:
// an archive stays for as long as the LRU likes it and nobody counts its
// readers, so it comes from, and goes back to, the collector.
func (tm *TaskManager) pullArchive(jmNode, jobID string, ref protocol.ArchiveRef) error {
	if tm.call == nil {
		return fmt.Errorf("not cached and no call path configured")
	}
	if err := protocol.CheckBlobSize(ref.Size); err != nil {
		return err
	}
	raw := make([]byte, ref.Size)
	err := protocol.PullBlob(context.Background(), tm.call, msg.KindBlobChunk,
		msg.Address{Node: tm.node}, msg.Address{Node: jmNode, Job: jobID}, ref.Digest, raw)
	if err != nil {
		return err
	}
	a, err := archive.Open(ref.Name, raw)
	if err != nil {
		return fmt.Errorf("bad archive: %v", err)
	}
	return tm.blobs.Put(a)
}

// assignOne validates and reserves a single task whose archive (if any) is
// already resident; peers is how many tasks of the job its assignment
// brought. It returns "" on success or the rejection reason.
func (tm *TaskManager) assignOne(jobID, jobManager, clientNode string, it protocol.TaskCreate, peers int) string {
	sp := it.Spec
	if it.Archive.Digest != "" {
		a, ok := tm.blobs.Get(it.Archive.Digest)
		if !ok {
			return fmt.Sprintf("archive blob %.12s… unavailable", it.Archive.Digest)
		}
		if a.Manifest.TaskClass != sp.Class {
			return fmt.Sprintf("archive manifest class %q does not match spec class %q",
				a.Manifest.TaskClass, sp.Class)
		}
	}
	if !tm.cfg.Registry.Has(sp.Class) {
		return fmt.Sprintf("class %q not deployable on this node", sp.Class)
	}

	tm.mu.Lock()
	defer tm.mu.Unlock()
	if tm.closed {
		return "task manager shut down"
	}
	k := key(jobID, sp.Name)
	if _, dup := tm.assigned[k]; dup {
		return "task already assigned"
	}
	if tm.freeMB < sp.Req.MemoryMB {
		return fmt.Sprintf("insufficient memory: need %d MB, free %d MB", sp.Req.MemoryMB, tm.freeMB)
	}
	tm.freeMB -= sp.Req.MemoryMB
	a := newAssignment(jobID, jobManager, clientNode, sp)
	a.peers = peers
	tm.assigned[k] = a
	return ""
}

// ReleaseIfUnstarted drops a single assignment and frees its memory
// reservation, but only when the task never began executing — the exec
// dispatch failure path, where a reported TaskFailed would otherwise leave
// the reservation held until the whole job is cancelled. Started tasks are
// left alone (their reservation is released by execute's epilogue).
func (tm *TaskManager) ReleaseIfUnstarted(jobID, taskName string) bool {
	tm.mu.Lock()
	k := key(jobID, taskName)
	a, ok := tm.assigned[k]
	if !ok || a.started.Load() {
		tm.mu.Unlock()
		return false
	}
	tm.freeMB += a.spec.Req.MemoryMB
	delete(tm.assigned, k)
	tm.mu.Unlock()
	a.cancel()
	tm.logf("released unstarted %s (%d MB)", k, a.spec.Req.MemoryMB)
	return true
}

// ErrAlreadyStarted reports a duplicate exec for a task that is already
// running. Under at-least-once re-dispatch (recovery re-exec, failover
// adoption) duplicates are expected and benign: the running copy will
// report its own terminal event.
var ErrAlreadyStarted = errors.New("task already started")

// HandleExec processes a KindExecTask from the JobManager at node from: start
// every listed task of the job, in order. tc is the trace context the frame
// carried (zero when untraced); each task's exec span parents to it. A task
// that is already running is left alone — under at-least-once re-dispatch
// (recovery re-exec, failover adoption) the running copy reports its own
// end. A task that cannot start fails alone: its reservation is released —
// it must not hold capacity until job teardown — and its TASK_FAILED joins
// the job's outbox, behind whatever the job already has queued there. The
// outbox's flusher is held until the whole list is started, so the list's
// starts — and the ends of what finishes at once — leave in one batch.
func (tm *TaskManager) HandleExec(jobID string, tasks []string, from string, tc trace.Context) {
	// Counted like a running task, so the flusher a failure report may
	// start is never added to a wait group Close is already draining.
	tm.mu.Lock()
	if tm.closed || len(tasks) == 0 {
		tm.mu.Unlock()
		return
	}
	tm.wg.Add(1)
	tm.mu.Unlock()
	defer tm.wg.Done()
	tm.outMu.Lock()
	ob := tm.outboxLocked(jobID, from, 2*len(tasks))
	ob.held++
	tm.outMu.Unlock()
	for _, name := range tasks {
		a, err := tm.claim(jobID, name, tc)
		ev := protocol.TaskEventItem{Kind: msg.KindTaskStarted, Task: name}
		switch {
		case errors.Is(err, ErrAlreadyStarted):
			continue
		case err != nil:
			tm.ReleaseIfUnstarted(jobID, name)
			ev.Kind, ev.Err = msg.KindTaskFailed, err.Error()
		}
		tm.outMu.Lock()
		ob.events = append(ob.events, ev) // before the task runs: its start precedes its end
		tm.outMu.Unlock()
		if a != nil {
			go tm.execute(a)
		}
	}
	tm.outMu.Lock()
	ob.held--
	tm.kickLocked(jobID, ob)
	tm.outMu.Unlock()
}

// claim marks an assigned task started and counts it running; the caller
// reports its TASK_STARTED and runs execute.
func (tm *TaskManager) claim(jobID, taskName string, tc trace.Context) (*assignment, error) {
	tm.mu.Lock()
	a, ok := tm.assigned[key(jobID, taskName)]
	closed := tm.closed
	tm.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("taskmgr %s: shut down", tm.node)
	}
	if !ok {
		return nil, fmt.Errorf("taskmgr %s: task %s not assigned", tm.node, key(jobID, taskName))
	}
	if !a.started.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("taskmgr %s: task %s: %w", tm.node, key(jobID, taskName), ErrAlreadyStarted)
	}
	a.trace = tc
	tm.mu.Lock()
	tm.running++
	tm.wg.Add(1)
	tm.mu.Unlock()
	return a, nil
}

// execute runs one task to completion on its own goroutine (the paper's
// "separate thread"), reporting lifecycle events to the JobManager.
func (tm *TaskManager) execute(a *assignment) {
	defer tm.wg.Done()
	from := msg.Address{Node: tm.node, Job: a.jobID, Task: a.spec.Name}
	ea := tm.tracer.StartSpan(a.trace, "tm.exec").SetJob(a.jobID).SetTask(a.spec.Name)
	tc := ea.Context()
	if tc.IsZero() {
		// Tracer-less node on a traced job: pass the dispatch context
		// through unchanged so downstream calls stay connected.
		tc = a.trace
	}
	ctx := &execContext{tm: tm, a: a, self: from, trace: tc}
	var runErr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				// Both run models confine panics: a crashing task must not
				// take down the server. RUN_AS_PROCESS semantics (paper's
				// isolation) are the default in Go's goroutine model.
				runErr = fmt.Errorf("task panic: %v", r)
			}
		}()
		t, err := tm.cfg.Registry.New(a.spec.Class)
		if err != nil {
			runErr = err
			return
		}
		runErr = t.Run(ctx)
	}()
	// Run has returned: what Get handed the task is the task's no longer.
	// Before the terminal event, so that a job the JobManager calls finished
	// has no task holding a buffer anywhere.
	spans := ctx.end(ea, runErr)

	tm.mu.Lock()
	tm.running--
	tm.freeMB += a.spec.Req.MemoryMB
	delete(tm.assigned, key(a.jobID, a.spec.Name))
	tm.mu.Unlock()
	a.mailbox.Close()
	a.stop() // the execution is over, and with it its context

	if runErr != nil {
		tm.event(msg.KindTaskFailed, a, runErr.Error(), spans)
		return
	}
	tm.event(msg.KindTaskCompleted, a, "", spans)
}

// event records a lifecycle event of a running assignment. A terminal
// event carries the task's spans, so they join the JobManager's per-job
// timeline exactly once.
func (tm *TaskManager) event(kind msg.Kind, a *assignment, errText string, spans []trace.Span) {
	tm.post(a.jobID, a.jm(), 2*a.peers, protocol.TaskEventItem{Kind: kind, Task: a.spec.Name, Err: errText, Spans: spans})
}

// post appends events to their job's outbox and starts the job's flusher
// unless it runs, or an exec list is being launched. manager — where the
// poster believes the job lives — is where a new outbox's flusher sends
// unless an adoption re-points it; size is how many events the job's tasks
// here are known to owe (two per task: its start and its end), which a new
// outbox starts with room for. There is no timer and nothing waits for a
// batch to fill: whatever the node reports about the job while the flusher
// is being scheduled, or is busy sending, leaves in the next frame.
func (tm *TaskManager) post(jobID, manager string, size int, evs ...protocol.TaskEventItem) {
	tm.outMu.Lock()
	defer tm.outMu.Unlock()
	ob := tm.outboxLocked(jobID, manager, size)
	ob.events = append(ob.events, evs...)
	tm.kickLocked(jobID, ob)
}

// outboxLocked returns the job's outbox, opening it if need be. tm.outMu
// must be held.
func (tm *TaskManager) outboxLocked(jobID, manager string, size int) *outbox {
	ob := tm.outboxes[jobID]
	if ob == nil {
		ob = &outbox{manager: manager, events: make([]protocol.TaskEventItem, 0, max(size, 1))}
		tm.outboxes[jobID] = ob
	}
	return ob
}

// kickLocked starts the job's flusher if the outbox has events for it and
// nothing holds it back. tm.outMu must be held, and the caller counted in
// tm.wg (execute, HandleExec).
func (tm *TaskManager) kickLocked(jobID string, ob *outbox) {
	if ob.flushing || ob.held > 0 || len(ob.events) == 0 {
		return
	}
	ob.flushing = true
	tm.wg.Add(1)
	go tm.flush(jobID, ob)
}

// flush is one job's flusher: yield once — a task that does little has its
// STARTED and its terminal event in the outbox by then, and so have the
// sibling tasks one exec list started — then send what has gathered as
// TASK_EVENTS frames, cut by protocol.CutTaskEvents, until the outbox is
// empty; the empty outbox is deleted and the flusher exits, so a job leaves
// nothing behind here. Events of one job therefore leave the node in the
// order they were posted, one flusher at a time. Each batch carries the
// node's figure read after the batch was cut: a task releases its memory
// before it posts its end, so the figure includes the releases the batch
// reports. A batch that cannot be sent
// is logged and dropped: delivery is at-most-once, leases and recovery own
// the rest.
func (tm *TaskManager) flush(jobID string, ob *outbox) {
	defer tm.wg.Done()
	runtime.Gosched()
	for {
		tm.outMu.Lock()
		if len(ob.events) == 0 {
			ob.flushing = false
			if ob.held == 0 {
				delete(tm.outboxes, jobID)
			}
			tm.outMu.Unlock()
			return
		}
		n := protocol.CutTaskEvents(ob.events)
		batch, manager := ob.events[:n:n], ob.manager
		ob.events = ob.events[n:]
		tm.outMu.Unlock()
		m := protocol.Body(msg.KindTaskEvents,
			msg.Address{Node: tm.node, Job: jobID},
			msg.Address{Node: manager, Job: jobID},
			protocol.TaskEvents{JobID: jobID, Node: tm.node, Events: batch, Capacity: tm.capacity()})
		if err := tm.send(manager, m); err != nil {
			tm.logf("%d events of job %s to %s: %v", n, jobID, manager, err)
		}
	}
}

// HandleAdopt processes a KindJMAdopt from a surviving JobManager that is
// re-homing a dead peer's job: every assignment of the job is re-pointed at
// the new manager and the reply lists which of the checkpointed tasks are
// still held here. Last adopter wins — a split-brain double adoption
// converges on whichever survivor re-points last, and the loser's
// heartbeat ack marks the job unknown, releasing nothing it still owns.
func (tm *TaskManager) HandleAdopt(m *msg.Message) *msg.Message {
	var req protocol.JMAdoptReq
	if err := protocol.Decode(m, &req); err != nil {
		tm.logf("bad adopt: %v", err)
		return protocol.Reply(m, msg.KindJMAdopt, protocol.JMAdoptResp{Node: tm.node})
	}
	resp := protocol.JMAdoptResp{Node: tm.node}
	tm.mu.Lock()
	for _, a := range tm.assigned {
		if a.jobID != req.JobID {
			continue
		}
		a.setJM(req.NewManager)
		resp.Present = append(resp.Present, protocol.TaskBeat{
			JobID:    a.jobID,
			Task:     a.spec.Name,
			Running:  a.started.Load() && !a.cancelled.Load(),
			Progress: a.progress.Load(),
		})
	}
	tm.mu.Unlock()
	tm.outMu.Lock()
	if ob := tm.outboxes[req.JobID]; ob != nil {
		ob.manager = req.NewManager
	}
	tm.outMu.Unlock()
	sort.Slice(resp.Present, func(i, j int) bool { return resp.Present[i].Task < resp.Present[j].Task })
	tm.log.Info("job re-pointed at new manager", "job", req.JobID, "manager", req.NewManager, "assignments", len(resp.Present))
	return protocol.Reply(m, msg.KindJMAdopt, resp)
}

// HandleUser routes an inbound user message to the target task's mailbox.
// The put never blocks: a task's mailbox holds whatever its task has not
// read yet.
func (tm *TaskManager) HandleUser(m *msg.Message) error {
	var p protocol.UserPayload
	if err := protocol.Decode(m, &p); err != nil {
		return fmt.Errorf("taskmgr %s: bad user payload: %w", tm.node, err)
	}
	tm.mu.Lock()
	a, ok := tm.assigned[key(p.JobID, p.ToTask)]
	tm.mu.Unlock()
	if !ok {
		return fmt.Errorf("taskmgr %s: user message for unknown task %s", tm.node, key(p.JobID, p.ToTask))
	}
	if err := a.mailbox.Put(m); err != nil {
		return fmt.Errorf("taskmgr %s: deliver to %s: %w", tm.node, p.ToTask, err)
	}
	return nil
}

// HandleCancel cancels a job's tasks on this node: mailboxes close (Recv
// returns ErrStopped) and Done() turns true so tasks can exit. An empty
// tasks list cancels every task of the job; a non-empty list cancels only
// the named ones (a batch rollback must not touch the job's other
// assignments).
//
// Without a task list it is also the word that the job is over — its
// JobManager sends it on every exit, completion included, once the job has
// used the data plane — so the job's ownership of what it put or pulled
// into this node's cache ends here, and with the last owner the entry.
func (tm *TaskManager) HandleCancel(jobID string, tasks ...string) {
	only := make(map[string]bool, len(tasks))
	for _, t := range tasks {
		only[t] = true
	}
	match := func(a *assignment) bool {
		return a.jobID == jobID && (len(only) == 0 || only[a.spec.Name])
	}
	tm.mu.Lock()
	var toCancel []*assignment
	for _, a := range tm.assigned {
		if match(a) {
			toCancel = append(toCancel, a)
		}
	}
	tm.mu.Unlock()
	for _, a := range toCancel {
		a.cancel()
	}
	// Unstarted assignments release their reservation immediately.
	tm.mu.Lock()
	for k, a := range tm.assigned {
		if match(a) && !a.started.Load() {
			tm.freeMB += a.spec.Req.MemoryMB
			delete(tm.assigned, k)
		}
	}
	tm.mu.Unlock()
	if len(tasks) == 0 {
		// After the cancels above: a task of the job that takes the read
		// side from here on sees itself cancelled.
		tm.releaseMu.Lock()
		tm.blobs.ReleaseJob(jobID)
		tm.releaseMu.Unlock()
	}
}

// Close stops accepting work and waits for running tasks to finish; their
// mailboxes are closed first so blocked Recv calls unblock.
func (tm *TaskManager) Close() {
	tm.mu.Lock()
	if tm.closed {
		tm.mu.Unlock()
		return
	}
	tm.closed = true
	for _, a := range tm.assigned {
		a.cancel()
	}
	tm.mu.Unlock()
	close(tm.stop)
	tm.wg.Wait()
}

// execContext implements task.Context for one running task. The owning
// JobManager's node is resolved per operation so an adopted assignment's
// messages and tuple-space calls follow the job to its new manager.
type execContext struct {
	tm   *TaskManager
	a    *assignment
	self msg.Address
	// trace is the context the task's outbound calls carry: the tm.exec
	// span when this node records spans, else the dispatch context as-is
	// (so a traced job stays connected even on tracer-less nodes).
	trace trace.Context
	// ts is the task's attachment to the job's tuple space and data-plane
	// broker at the manager node it was built for (see tsWire).
	ts atomic.Pointer[protocol.TSWire]
	// held are the blobs Get handed the task, released when its Run returns
	// (end); ended refuses a hold after that. spans are the task's finished
	// shuffle spans, shipped in its terminal event; ended drops a span that
	// ends after that. A task may Get and Put from several goroutines.
	heldMu sync.Mutex
	held   []*archive.Blob
	spans  []trace.Span
	ended  bool
}

// TaskName implements task.Context.
func (c *execContext) TaskName() string { return c.a.spec.Name }

// JobID implements task.Context.
func (c *execContext) JobID() string { return c.a.jobID }

// NodeName implements task.Context.
func (c *execContext) NodeName() string { return c.tm.node }

// Params implements task.Context.
func (c *execContext) Params() []task.Param {
	return append([]task.Param(nil), c.a.spec.Params...)
}

// send routes a user payload through the JobManager conduit. A manager
// that cannot be reached — it died, its node left the fabric — holds the
// message on the assignment until a surviving JobManager adopts the job
// (JM_ADOPT re-points it) and sends it there; it fails if the task ends
// first, or if no adopter comes within the lease window an adoption takes.
// With checkpointing off nobody adopts, and it fails at once.
func (c *execContext) send(kind msg.Kind, toTask string, payload []byte) error {
	if c.a.cancelled.Load() {
		return task.ErrStopped
	}
	p := protocol.UserPayload{
		JobID:    c.a.jobID,
		FromTask: c.a.spec.Name,
		ToTask:   toTask,
		Data:     payload,
	}
	jmNode := c.a.jm()
	for {
		m := protocol.Body(kind, c.self, msg.Address{Node: jmNode, Job: c.a.jobID, Task: toTask}, p)
		err := c.tm.send(jmNode, m)
		if err == nil {
			break
		}
		cfg := c.tm.cfg
		next := ""
		if cfg.CheckpointEvery > 0 && (errors.Is(err, transport.ErrUnknownNode) || errors.Is(err, transport.ErrClosed)) {
			next = c.a.awaitJM(jmNode, cfg.SuspectAfter+cfg.DeadAfter+cfg.AssignTimeout)
		}
		if next == "" {
			return fmt.Errorf("task %s: send to %s: %w", c.a.spec.Name, toTask, err)
		}
		jmNode = next
	}
	c.a.progress.Add(1)
	return nil
}

// Send implements task.Context.
func (c *execContext) Send(toTask string, payload []byte) error {
	if toTask == "" {
		return fmt.Errorf("task %s: send: empty destination", c.a.spec.Name)
	}
	return c.send(msg.KindUser, toTask, payload)
}

// SendClient implements task.Context.
func (c *execContext) SendClient(payload []byte) error {
	return c.send(msg.KindUser, protocol.ClientTaskName, payload)
}

// Broadcast implements task.Context.
func (c *execContext) Broadcast(payload []byte) error {
	return c.send(msg.KindBroadcast, "", payload)
}

// Recv implements task.Context.
func (c *execContext) Recv() (string, []byte, error) {
	m, err := c.a.mailbox.Get()
	if err != nil {
		return "", nil, task.ErrStopped
	}
	var p protocol.UserPayload
	if err := protocol.Decode(m, &p); err != nil {
		return "", nil, fmt.Errorf("task %s: recv: %w", c.a.spec.Name, err)
	}
	c.a.progress.Add(1)
	return p.FromTask, p.Data, nil
}

// tsWire returns the task's wire to the job's space and data-plane broker,
// built once per manager node: re-placed tasks carry the same jobManager, so
// a recovered instance reconnects to the same space, and an assignment
// adopted mid-run gets a wire — and an Out window — of its own to the
// survivor.
func (c *execContext) tsWire() *protocol.TSWire {
	jmNode := c.a.jm()
	old := c.ts.Load()
	if old != nil && old.To.Node == jmNode {
		return old
	}
	w := &protocol.TSWire{
		From:  c.self,
		To:    msg.Address{Node: jmNode, Job: c.a.jobID},
		Trace: c.trace,
		Call:  c.tm.call,
		Send:  c.tm.send,
	}
	if !c.ts.CompareAndSwap(old, w) {
		return c.tsWire() // another goroutine of the task got there first
	}
	return w
}

// tsReady is the local half of every op on the task's wire, tuple-space and
// data-plane alike: a task with no call path has no manager to ask, and a
// cancelled or stopped one gets ErrStopped with nothing sent.
func (c *execContext) tsReady() error {
	if c.tm.call == nil {
		return fmt.Errorf("task %s: no call path configured", c.a.spec.Name)
	}
	if c.a.cancelled.Load() {
		return task.ErrStopped
	}
	return nil
}

// tsDone maps the outcome of a wire op: the error of a task cancelled
// under its call is ErrStopped, and an op that went out is progress.
func (c *execContext) tsDone(err error) error {
	if err != nil {
		if c.a.cancelled.Load() {
			return task.ErrStopped
		}
		return fmt.Errorf("task %s: %w", c.a.spec.Name, err)
	}
	c.a.progress.Add(1)
	return nil
}

// tsDo performs one acknowledged tuple-space call to the job's hosting
// JobManager on the calling goroutine, under the execution's context: the
// wire bounds it by protocol.CallTimeout (a dead JobManager fails the
// operation instead of hanging the task), and cancelling the task or shutting
// the TaskManager down aborts it, so a parked In never outlives its node.
func (c *execContext) tsDo(kind msg.Kind, req protocol.TSOpReq) (*protocol.TSOpResp, error) {
	if err := c.tsReady(); err != nil {
		return nil, err
	}
	resp, err := c.tsWire().Do(c.a.ctx, kind, req)
	return resp, c.tsDone(err)
}

// Out implements task.Context: the tuple is checked here and sent one-way
// (see protocol.TSWire.Out); the heartbeat's progress counts it when sent.
func (c *execContext) Out(t tuplespace.Tuple) error {
	if err := protocol.CheckTuple(t); err != nil {
		return err
	}
	if err := c.tsReady(); err != nil {
		return err
	}
	return c.tsDone(c.tsWire().Out(c.a.ctx, t))
}

// Flush implements task.Context.
func (c *execContext) Flush() error {
	if err := c.tsReady(); err != nil {
		return err
	}
	return c.tsDone(c.tsWire().Flush(c.a.ctx))
}

// In implements task.Context.
func (c *execContext) In(tpl tuplespace.Template) (tuplespace.Tuple, error) {
	return protocol.TSMatch(c.tsDo, msg.KindTSIn, tpl)
}

// Rd implements task.Context.
func (c *execContext) Rd(tpl tuplespace.Template) (tuplespace.Tuple, error) {
	return protocol.TSMatch(c.tsDo, msg.KindTSRd, tpl)
}

// InP implements task.Context.
func (c *execContext) InP(tpl tuplespace.Template) (tuplespace.Tuple, error) {
	return protocol.TSMatch(c.tsDo, msg.KindTSInP, tpl)
}

// RdP implements task.Context.
func (c *execContext) RdP(tpl tuplespace.Template) (tuplespace.Tuple, error) {
	return protocol.TSMatch(c.tsDo, msg.KindTSRdP, tpl)
}

// Logf implements task.Context.
func (c *execContext) Logf(format string, args ...any) {
	c.tm.logf("task %s: "+format, append([]any{key(c.a.jobID, c.a.spec.Name)}, args...)...)
}

// Done implements task.Context.
func (c *execContext) Done() bool { return c.a.cancelled.Load() }
