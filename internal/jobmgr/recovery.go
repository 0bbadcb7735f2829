// Recovery engine: the JobManager half of CN's fault-tolerance subsystem.
//
// Every TaskManager sends a HEARTBEAT to every member of the JobManager
// group on each tick: the node's lease renewal, carrying the per-task
// progress sync of the tasks it runs for that manager (possibly none).
// Each JobManager feeds the beats into its one health.Monitor — the
// node's lease covers its TaskManager and its JobManager alike, since
// both live in one CNServer process — and reacts to its transitions:
//
//   - suspect: the node's cached offer is evicted so new plans avoid it;
//   - dead: the node's in-flight tasks are orphaned and re-placed on
//     surviving nodes (archive blobs re-fetch by digest, so re-placement
//     costs one assignment round, not a re-upload), bounded by the
//     MaxTaskRetries budget; exhausted tasks fail so the job terminates
//     instead of hanging. Then the jobs the node's JobManager checkpointed
//     here go up for adoption (checkpoint.go). The row stays dead until
//     the node beats again;
//   - alive (resurrection): nothing to undo — the next solicitation round
//     re-admits the node.
//
// A separate straggler scan (enabled by config.Config.StragglerAfter) re-places
// running tasks whose progress sync has stalled: a speculative twin runs
// on another node, the first result wins, and the loser is cancelled.
// Every re-placement is announced to the client as a TASK_RETRIED label in
// the job's TASK_EVENTS stream, carrying the attempt count and reason.

package jobmgr

import (
	"fmt"
	"sort"
	"time"

	"cn/internal/health"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
)

// maxRetries returns the effective per-task re-placement budget.
func (jm *JobManager) maxRetries() int {
	if jm.cfg.MaxTaskRetries < 0 {
		return 0
	}
	return jm.cfg.MaxTaskRetries
}

// liveNodes is the placement directory's liveness gate: one snapshot of
// the nodes that are valid placement targets — members of the TaskManager
// discovery group (they did not leave or crash off the fabric) whose
// health lease is current (not suspect or dead). Built once per Offers()
// evaluation so the cache-hit hot path stays O(nodes).
func (jm *JobManager) liveNodes() map[string]bool {
	if jm.caller == nil {
		return nil // no fabric view: treat every node as live
	}
	members := jm.caller.Endpoint().GroupMembers(protocol.GroupTaskManagers)
	live := make(map[string]bool, len(members))
	for _, n := range members {
		if jm.monitor.Alive(n) {
			live[n] = true
		}
	}
	return live
}

// HandleHeartbeat processes a TaskManager's KindHeartbeat: renew the
// node's lease, absorb the per-task progress sync, and acknowledge —
// flagging beat jobs this JobManager no longer tracks so the TaskManager
// can release their leftover assignments. A beat with no task beats means
// "nothing of yours is here; I am alive".
func (jm *JobManager) HandleHeartbeat(m *msg.Message) *msg.Message {
	var hb protocol.Heartbeat
	if err := protocol.Decode(m, &hb); err != nil {
		jm.logf("bad heartbeat: %v", err)
		return nil
	}
	node := hb.Node
	if node == "" {
		node = m.From.Node
	}
	jm.monitor.Observe(node)
	now := time.Now()
	unknown := make(map[string]bool)
	for _, b := range hb.Beats {
		j, t := jm.lookup(b.JobID)
		if j == nil {
			// A retired job is still known: its own cancel (or the task's
			// own end) releases the assignment, not this ack.
			if t == nil {
				unknown[b.JobID] = true
			}
			continue
		}
		if !b.Running {
			continue
		}
		j.mu.Lock()
		// Only the current primary's beats drive straggler detection; a
		// speculative twin or stale copy must not mask a stalled primary.
		if r := j.row(b.Task); r != nil && r.node == node {
			bs := &r.beat
			if b.Progress != bs.progress || bs.changedAt.IsZero() {
				bs.progress = b.Progress
				bs.changedAt = now
			}
		}
		j.mu.Unlock()
	}
	ack := protocol.HeartbeatAck{Node: jm.node, Seq: hb.Seq}
	for id := range unknown {
		ack.UnknownJobs = append(ack.UnknownJobs, id)
	}
	sort.Strings(ack.UnknownJobs)
	return protocol.Reply(m, msg.KindHeartbeatAck, ack)
}

// watchHealth reacts to the failure detector's state transitions.
func (jm *JobManager) watchHealth() {
	defer jm.wg.Done()
	ch, cancel := jm.monitor.Subscribe()
	defer cancel()
	for {
		select {
		case <-jm.stop:
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			switch ev.State {
			case health.StateSuspect:
				// Suspect nodes are excluded from new plans but their
				// tasks keep running: a late beat resurrects them cheaply.
				jm.dir.Evict(ev.Node)
				jm.logf("node %s suspect; excluded from placement", ev.Node)
			case health.StateDead:
				jm.recoverNode(ev.Node)
				jm.adoptFrom(ev.Node)
			case health.StateAlive:
				// Resurrection: the next solicitation round re-admits it.
				jm.logf("node %s alive again", ev.Node)
			}
		}
	}
}

// recoverNode orphans a dead node's in-flight tasks across every hosted
// job and re-places them on surviving nodes.
func (jm *JobManager) recoverNode(node string) {
	jm.dir.Evict(node)
	jm.mu.Lock()
	jobs := make([]*jobState, 0, len(jm.jobs))
	for _, j := range jm.jobs {
		jobs = append(jobs, j)
	}
	jm.mu.Unlock()

	recovered := 0
	for _, j := range jobs {
		var orphans []string
		j.mu.Lock()
		if j.notified {
			j.mu.Unlock()
			continue
		}
		for i := range j.tasks {
			r := &j.tasks[i]
			// Twins on the dead node simply disappear; their primaries live on.
			if r.twin == node {
				r.twin = ""
			}
			if r.node != node || r.retrying || r.status.terminal() {
				continue
			}
			if r.twin != "" {
				// The task already has a live copy elsewhere: promote it
				// instead of re-placing.
				r.promoteTwin()
				continue
			}
			r.retrying = true
			orphans = append(orphans, r.spec.Name)
		}
		// Data-plane adverts served by the dead node are unreachable now.
		// Inline-backed ones degrade to JM-served copies inside the broker;
		// the rest are lost outputs whose producers must run again — even
		// completed ones, since a consumer may yet resolve the key. Running
		// producers on the dead node are already orphaned above; running
		// producers elsewhere will re-advertise when they complete.
		for _, l := range j.broker.InvalidateNode(node) {
			if i, ok := j.index[l.Task]; ok && j.Rerun(i) {
				orphans = append(orphans, l.Task)
			}
		}
		j.mu.Unlock()
		if len(orphans) > 0 {
			recovered += len(orphans)
			jm.retryTasks(j, orphans, fmt.Sprintf("node %s died", node), map[string]bool{node: true})
		}
	}
	jm.logf("node %s dead: %d orphaned tasks recovered", node, recovered)
}

// retryOrFail routes the tasks of an exec frame that could not be sent into
// the recovery path, falling back to an immediate task failure when
// recovery is disabled. It never blocks the caller: re-placement performs
// solicitation round trips, so it runs on its own goroutine.
func (jm *JobManager) retryOrFail(j *jobState, names []string, badNode, reason string) {
	if jm.cfg.MaxTaskRetries < 0 {
		jm.failTasks(j, badNode, names, nil, reason)
		return
	}
	var lost []string
	j.mu.Lock()
	if j.notified {
		j.mu.Unlock()
		return
	}
	for _, name := range names {
		if r := j.row(name); r != nil && !r.retrying {
			r.retrying = true
			lost = append(lost, name)
		}
	}
	j.mu.Unlock()
	if len(lost) == 0 {
		return
	}

	jm.mu.Lock()
	if jm.closed {
		jm.mu.Unlock()
		return
	}
	jm.wg.Add(1)
	jm.mu.Unlock()
	go func() {
		defer jm.wg.Done()
		jm.retryTasks(j, lost, reason, map[string]bool{badNode: true})
	}()
}

// retryTasks re-places a set of a job's tasks whose assignments were lost.
// Every task named must already be marked retrying by the caller.
// Budget-exhausted tasks fail (the job terminates instead of hanging); the
// rest are re-assigned on surviving nodes in one batch, re-dispatched when
// they were already running, and announced to the client as TASK_RETRIED
// labels.
func (jm *JobManager) retryTasks(j *jobState, names []string, reason string, exclude map[string]bool) {
	budget := jm.maxRetries()
	var exhausted, toPlace []string
	var specs []*task.Spec
	attempts := make(map[string]int, len(names))

	j.mu.Lock()
	if j.notified {
		j.clearRetryingLocked(names)
		j.mu.Unlock()
		return
	}
	for _, name := range names {
		r := j.row(name)
		if r == nil {
			continue
		}
		if r.retries >= budget {
			attempts[name] = r.retries
			exhausted = append(exhausted, name)
			continue
		}
		r.retries++
		attempts[name] = r.retries
		specs = append(specs, r.spec)
		toPlace = append(toPlace, name)
	}
	j.mu.Unlock()

	if len(exhausted) > 0 {
		j.clearRetrying(exhausted)
		jm.failTasks(j, "", exhausted, attempts, fmt.Sprintf("%s; retry budget (%d) exhausted", reason, budget))
	}
	if len(specs) == 0 {
		return
	}

	placements, err := jm.placeBatch(j, specs, exclude, false)
	if err != nil {
		j.clearRetrying(toPlace)
		jm.failTasks(j, "", toPlace, attempts, fmt.Sprintf("%s; re-placement failed: %v", reason, err))
		return
	}

	var execNow []int32
	var applied []string
	obsolete := make(map[string]string)
	j.mu.Lock()
	if j.notified {
		// The job finished (or was cancelled) while placement ran; the
		// fresh reservations must not leak.
		j.clearRetryingLocked(toPlace)
		j.mu.Unlock()
		jm.releaseBatch(j, placements, "job finished during recovery")
		return
	}
	now := time.Now()
	for _, name := range toPlace {
		i := j.index[name]
		r := &j.tasks[i]
		r.retrying = false
		node := placements[name]
		// The task may have reached a terminal state while placement ran
		// (a falsely-declared-dead node's copy completed): the result
		// stands and the fresh assignment must be released, not recorded.
		if r.status.terminal() {
			obsolete[name] = node
			continue
		}
		r.node = node
		r.beat = beatState{changedAt: now}
		applied = append(applied, name)
		if r.status == StatusRunning {
			execNow = append(execNow, i)
		}
	}
	j.mu.Unlock()

	if len(obsolete) > 0 {
		jm.releaseBatch(j, obsolete, "task finished during recovery")
	}
	for _, name := range applied {
		// Retries are trace-visible: one anchor span per re-placement, its
		// Err carrying the reason (node death, lost output, dispatch failure).
		ra := jm.tracer.StartSpan(j.root, "jm.retry").SetJob(j.id).SetTask(name)
		jm.endSpan(j, ra, reason)
		jm.relayEvents(j, placements[name], []protocol.TaskEventItem{{
			Kind: msg.KindTaskRetried, Task: name, Err: reason, Attempt: attempts[name]}})
	}
	jm.execTasks(j, execNow)
	jm.log.Info("tasks re-placed", "job", j.id, "tasks", len(applied), "reason", reason)
}

func (j *jobState) clearRetrying(names []string) {
	j.mu.Lock()
	j.clearRetryingLocked(names)
	j.mu.Unlock()
}

// clearRetryingLocked ends the named tasks' re-placements. j.mu must be held.
func (j *jobState) clearRetryingLocked(names []string) {
	for _, name := range names {
		if r := j.row(name); r != nil {
			r.retrying = false
		}
	}
}

// stragglerLoop periodically scans running tasks for stalled progress.
func (jm *JobManager) stragglerLoop() {
	defer jm.wg.Done()
	sweep := jm.cfg.StragglerAfter / 4
	if sweep < 5*time.Millisecond {
		sweep = 5 * time.Millisecond
	}
	ticker := time.NewTicker(sweep)
	defer ticker.Stop()
	for {
		select {
		case <-jm.stop:
			return
		case now := <-ticker.C:
			jm.checkStragglers(now)
		}
	}
}

// checkStragglers speculatively re-places running tasks whose progress
// sync has not advanced for StragglerAfter. The twin runs alongside the
// original: the first terminal result wins and the loser is cancelled.
func (jm *JobManager) checkStragglers(now time.Time) {
	jm.mu.Lock()
	jobs := make([]*jobState, 0, len(jm.jobs))
	for _, j := range jm.jobs {
		jobs = append(jobs, j)
	}
	jm.mu.Unlock()

	budget := jm.maxRetries()
	for _, j := range jobs {
		var candidates []int32
		j.mu.Lock()
		for i := 0; i < len(j.tasks) && !j.notified; i++ {
			r := &j.tasks[i]
			if r.status != StatusRunning || r.twin != "" || r.retrying || r.retries >= budget {
				continue
			}
			if !jm.monitor.Alive(r.node) {
				continue // suspect/dead nodes are the recovery path's job
			}
			if r.beat.changedAt.IsZero() || now.Sub(r.beat.changedAt) < jm.cfg.StragglerAfter {
				continue
			}
			r.retrying = true
			candidates = append(candidates, int32(i))
		}
		j.mu.Unlock()
		for _, i := range candidates {
			jm.speculate(j, i)
		}
	}
}

// speculate places and starts the twin of straggler i, a running task of a
// started job, on another node.
func (jm *JobManager) speculate(j *jobState, i int32) {
	j.mu.Lock()
	r := &j.tasks[i]
	sp, primary := r.spec, r.node
	r.retries++
	attempt := r.retries
	j.mu.Unlock()

	reason := fmt.Sprintf("straggler: no progress for %v on %s", jm.cfg.StragglerAfter, primary)
	// Mark the straggling node in the directory's straggler marks so the
	// scorer steers this twin — and subsequent placements — away from it
	// until the marks decay.
	jm.dir.NoteStraggler(primary)
	placements, err := jm.placeBatch(j, []*task.Spec{sp}, map[string]bool{primary: true}, false)
	if err != nil {
		// No capacity for a twin: leave the original running and return
		// the budget unit so a real failure can still be recovered.
		j.mu.Lock()
		r.retries--
		r.retrying = false
		j.mu.Unlock()
		jm.logf("job %s: cannot speculate %q: %v", j.id, sp.Name, err)
		return
	}
	node := placements[sp.Name]

	j.mu.Lock()
	r.retrying = false
	if j.notified || r.status != StatusRunning || r.node != primary {
		j.mu.Unlock()
		jm.releaseBatch(j, placements, "speculation obsolete")
		return
	}
	r.twin = node
	j.mu.Unlock()

	// The twin's exec names its node itself: the row's node is still the
	// primary's.
	if err := jm.sendExec(j, node, []string{sp.Name}, "jm.speculate", reason); err != nil {
		// The twin never ran: release its reservation, return the budget
		// unit, and do not advertise a retry that did not happen.
		jm.logf("job %s: start twin %q on %s: %v", j.id, sp.Name, node, err)
		j.mu.Lock()
		if r.twin == node {
			r.twin = ""
		}
		r.retries--
		j.mu.Unlock()
		jm.releaseBatch(j, placements, "twin dispatch failed")
		return
	}
	jm.relayEvents(j, node, []protocol.TaskEventItem{{
		Kind: msg.KindTaskRetried, Task: sp.Name, Err: reason, Attempt: attempt, Speculative: true}})
	jm.logf("job %s: speculating %q on %s (primary %s)", j.id, sp.Name, node, primary)
}
