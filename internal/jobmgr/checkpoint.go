// JobManager durability: peer checkpoint replication and failover.
//
// At config.Config.CheckpointEvery cadence each JobManager multicasts, per live
// job, a KindJMCheckpoint carrying an opaque snapshot of the job's control
// state — specs, placement, schedule progress, retry budgets, tuple-space
// contents, and (size permitting) the stashed archive blobs. Peers store
// the latest snapshot per (origin, job) without decoding it. A checkpoint's
// arrival renews nothing: the origin's liveness is its node's lease in the
// one health.Monitor, renewed by the node's TaskManager beats (recovery.go).
//
// When that lease lapses to dead, the lexicographically smallest surviving
// group member is the adopter. It first confirms the origin is gone with
// one PING bounded by SuspectAfter: an origin that answers keeps its jobs
// and its lease is renewed. Otherwise the adopter takes its checkpointed
// jobs: the snapshot is decoded into a fresh jobState, the tuple space is
// rebuilt, the TaskManagers named by the checkpoint are told (KindJMAdopt)
// to re-point the job's assignments at the adopter, and tasks the
// checkpoint knows about but no surviving TaskManager still holds —
// including everything placed on the dead node itself — re-enter the
// existing recovery engine for re-placement.
// Finally the client is notified (a one-way KindJMAdopt) so its future
// calls target the survivor.
//
// Guarantees (and their limits): task execution is at-least-once — a
// completion event in flight when the origin died is lost and the task
// re-runs; tuple-space contents revert to the last checkpoint; if the
// elected adopter itself dies mid-adoption the job is lost (checkpoints
// replicate one failure deep).

package jobmgr

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"cn/internal/dataplane"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/trace"
	"cn/internal/tuplespace"
	"cn/internal/wire"
)

// ckptVersion versions the opaque checkpoint encoding; a peer accepts
// exactly this version, as the wire does. Version 2 added the data-plane
// location table, version 3 the trace section (root context + a capped span
// timeline); version 4 writes specs, string maps, tuples and blobs with the
// wire codec's own sub-encodings and gives an archive ref its Size; version
// 5 writes a job's tasks as one record each instead of five sections keyed
// by task name.
const ckptVersion = 5

// maxCheckpointTraceSpans caps the timeline spans a checkpoint carries;
// the early, structural spans (submit, placement, dispatch) survive
// failover, later per-task detail is best-effort.
const maxCheckpointTraceSpans = 256

// maxCheckpointBlobBytes caps the aggregate archive bytes a checkpoint
// inlines. Jobs whose blobs exceed it checkpoint without them: re-placed
// tasks then depend on the chosen TaskManager's digest cache, and a node
// without the blob fails the assignment and retries elsewhere.
const maxCheckpointBlobBytes = 256 << 10

// maxCheckpointDataBytes bounds the encoded snapshot so the multicast
// stays under the transport frame limit with headroom for the envelope.
const maxCheckpointDataBytes = 768 << 10

// peerCheckpoint is the stored image of one (origin, job) checkpoint.
type peerCheckpoint struct {
	seq  uint64
	data []byte
}

// jobCheckpoint is the decoded control state of one job.
type jobCheckpoint struct {
	name       string
	clientNode string
	started    bool
	// table holds a row per task — spec, archive ref, node, retries, error,
	// and status once started — not yet linked into a schedule.
	table    taskTable
	tuples   []tuplespace.Tuple
	tsOps    int64
	blobs    map[string][]byte
	locs     []dataplane.Loc
	root     trace.Context
	timeline []trace.Span
}

// checkpointLoop multicasts every hosted job's control state to the
// JobManager group at the configured cadence.
func (jm *JobManager) checkpointLoop() {
	defer jm.wg.Done()
	ticker := time.NewTicker(jm.cfg.CheckpointEvery)
	defer ticker.Stop()
	for {
		select {
		case <-jm.stop:
			return
		case <-ticker.C:
			jm.checkpointAll()
		}
	}
}

// checkpointAll emits one checkpoint round: a snapshot per live job. A
// finished job's terminal record is not sent from here but at its
// retirement, and only if a snapshot of it ever was.
func (jm *JobManager) checkpointAll() {
	jm.mu.Lock()
	jobs := make([]*jobState, 0, len(jm.jobs))
	for _, j := range jm.jobs {
		jobs = append(jobs, j)
	}
	jm.mu.Unlock()

	for _, j := range jobs {
		jm.checkpointJob(j)
	}
}

// checkpointJob sequences and multicasts one job's snapshot under ckptMu,
// so the job's retirement — which reads the sequence it leaves behind —
// cannot slip its terminal record in front of this frame.
func (jm *JobManager) checkpointJob(j *jobState) {
	jm.ckptMu.Lock()
	defer jm.ckptMu.Unlock()
	j.mu.Lock()
	if j.notified {
		j.mu.Unlock()
		return
	}
	data, err := encodeJobCheckpointLocked(j)
	if err != nil {
		j.mu.Unlock()
		jm.logf("job %s: checkpoint encode: %v", j.id, err)
		return
	}
	j.ckptSeq++
	ck := protocol.JMCheckpoint{Origin: jm.node, JobID: j.id, Seq: j.ckptSeq, Data: data}
	j.mu.Unlock()
	jm.multicastCheckpoint(ck)
}

func (jm *JobManager) multicastCheckpoint(ck protocol.JMCheckpoint) {
	m := protocol.Body(msg.KindJMCheckpoint,
		msg.Address{Node: jm.node, Job: ck.JobID},
		msg.Address{},
		ck)
	if err := jm.caller.Endpoint().Multicast(protocol.GroupJobManagers, m); err != nil {
		jm.logf("job %s: checkpoint multicast: %v", ck.JobID, err)
	}
}

// HandleCheckpoint absorbs a peer's KindJMCheckpoint: keep the newest
// snapshot per job. The multicast loops back to the sender; its own
// checkpoints are ignored here.
func (jm *JobManager) HandleCheckpoint(m *msg.Message) {
	if jm.peerCkpts == nil {
		return
	}
	var ck protocol.JMCheckpoint
	if err := protocol.Decode(m, &ck); err != nil {
		jm.logf("bad checkpoint: %v", err)
		return
	}
	if ck.Origin == "" || ck.Origin == jm.node || ck.JobID == "" {
		return
	}
	jm.peerMu.Lock()
	defer jm.peerMu.Unlock()
	byJob := jm.peerCkpts[ck.Origin]
	if ck.Done {
		delete(byJob, ck.JobID)
		if len(byJob) == 0 {
			delete(jm.peerCkpts, ck.Origin)
		}
		return
	}
	if byJob == nil {
		byJob = make(map[string]*peerCheckpoint)
		jm.peerCkpts[ck.Origin] = byJob
	}
	if prev := byJob[ck.JobID]; prev == nil || ck.Seq > prev.seq {
		byJob[ck.JobID] = &peerCheckpoint{seq: ck.Seq, data: append([]byte(nil), ck.Data...)}
	}
}

// adoptFrom runs the failover election for an origin whose lease went
// dead and, when this node wins and the origin does not answer a PING,
// adopts every job the origin checkpointed. Losers drop their copies: the
// winner re-replicates the jobs under its own name on its next checkpoint
// tick — or, when the origin answered, the origin keeps sending its own.
func (jm *JobManager) adoptFrom(origin string) {
	if jm.peerCkpts == nil {
		return
	}
	jm.peerMu.Lock()
	held := len(jm.peerCkpts[origin])
	jm.peerMu.Unlock()
	if held == 0 {
		return
	}
	// Election without coordination: the lexicographically smallest
	// surviving member of the JobManager group adopts. The dead origin
	// already left the group (its endpoint closed with it), but it is
	// excluded explicitly in case its membership lingers.
	winner := jm.node
	for _, n := range jm.caller.Endpoint().GroupMembers(protocol.GroupJobManagers) {
		if n != origin && n < winner {
			winner = n
		}
	}
	if winner != jm.node {
		jm.takeCheckpoints(origin)
		jm.logf("peer %s dead: %s adopts its %d jobs", origin, winner, held)
		return
	}
	if jm.originAnswers(origin) {
		// A lapsed lease on a live manager (its beats were late, or only
		// its TaskManager is gone): its jobs and their images stay put.
		jm.monitor.Observe(origin)
		jm.logf("peer %s lease lapsed but it answers; not adopting", origin)
		return
	}
	byJob := jm.takeCheckpoints(origin)
	ids := make([]string, 0, len(byJob))
	for id := range byJob {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := jm.adoptJob(origin, id, byJob[id].data); err != nil {
			jm.logf("adopt job %s from dead %s: %v", id, origin, err)
		}
	}
}

// adoptJob rebuilds one checkpointed job under this JobManager and
// re-homes its live assignments.
func (jm *JobManager) adoptJob(origin, jobID string, data []byte) error {
	ck, err := decodeJobCheckpoint(data)
	if err != nil {
		return err
	}

	j := jm.newJob(jobID, ck.name, ck.clientNode, 0)
	j.taskTable, j.blobs = ck.table, ck.blobs
	j.root, j.timeline = ck.root, ck.timeline
	j.broker.Restore(ck.locs)
	// Adverts served by the dead origin's own TaskManager are unreachable.
	// Inline-backed ones degrade to adopter-served copies; the rest are
	// gone, and their producers re-run below alongside the placement
	// orphans (completed producers via Rerun).
	lostLocs := j.broker.InvalidateNode(origin)
	if ck.started {
		if err := j.start(); err != nil {
			return err
		}
		// Ready tasks in the image were caught between dependency
		// satisfaction and dispatch; the adopter owns dispatching them.
		for _, i := range j.Ready() {
			j.tasks[i].status = StatusRunning
		}
	}
	for _, t := range ck.tuples {
		if err := j.space.Keep(t); err != nil {
			return fmt.Errorf("restore tuple space: %w", err)
		}
	}
	j.tsOps.Store(ck.tsOps)

	// Insert before contacting any TaskManager: a re-pointed node's next
	// heartbeat must find the job known here, or the ack's UnknownJobs
	// would release the very assignments being adopted.
	jm.mu.Lock()
	if jm.closed {
		jm.mu.Unlock()
		return fmt.Errorf("job manager shut down")
	}
	if jm.jobs[jobID] != nil || jm.tombs[jobID] != nil {
		jm.mu.Unlock()
		return nil // already hosted, or hosted and finished (a re-delivered death event)
	}
	jm.jobs[jobID] = j
	jm.wg.Add(1)
	go jm.jobWorker(j)
	jm.mu.Unlock()

	// The adoption itself is a traced event: its span parents to the
	// persisted root, so the post-failover spans hang off the same trace
	// the dead origin started.
	aa := jm.tracer.StartSpan(j.root, "jm.adopt").SetJob(jobID)
	jm.endSpan(j, aa, "")

	// A checkpoint caught between the last terminal event and the client
	// notification: nothing to re-home, just finish the job properly.
	j.mu.Lock()
	if j.started && (j.Done() || j.Failed()) {
		how, reason := j.end()
		j.notified = true
		j.mu.Unlock()
		jm.finishJob(j, how, reason, "", nil)
		return nil
	}
	// Re-point surviving assignments node by node. checkpointed tasks on
	// the dead origin's own TaskManager, on unreachable nodes, or absent
	// from a survivor's reply are orphans for the recovery engine.
	byNode := make(map[string][]string)
	for i := range j.tasks {
		if r := &j.tasks[i]; r.node != "" && !r.status.terminal() {
			byNode[r.node] = append(byNode[r.node], r.spec.Name)
		}
	}
	j.mu.Unlock()

	present := make(map[string]protocol.TaskBeat)
	for node, names := range byNode {
		if node == origin {
			continue
		}
		resp, err := jm.callAdopt(node, jobID, ck.clientNode, names)
		if err != nil {
			jm.logf("job %s: adopt call to %s: %v", jobID, node, err)
			continue
		}
		for _, b := range resp.Present {
			if b.JobID == jobID {
				present[b.Task] = b
			}
		}
	}

	var orphans []string
	var execNow []int32
	now := time.Now()
	j.mu.Lock()
	for _, names := range byNode {
		for _, name := range names {
			i := j.index[name]
			r := &j.tasks[i]
			if b, ok := present[name]; ok {
				r.beat = beatState{progress: b.Progress, changedAt: now}
				if !b.Running && r.status == StatusRunning {
					// The assignment survived but the start never landed (the
					// exec was in flight when the origin died): dispatch it
					// now. Running copies need no re-exec — and a duplicate
					// would be swallowed by the start guard anyway.
					execNow = append(execNow, i)
				}
				continue
			}
			r.retrying = true
			orphans = append(orphans, name)
		}
	}
	// Completed producers whose only data-plane output copy lived on the
	// dead origin rewind to running and re-place with the orphans, so a
	// consumer resolve parked on the adopter eventually publishes again.
	for _, l := range lostLocs {
		if i, ok := j.index[l.Task]; ok && j.Rerun(i) {
			orphans = append(orphans, l.Task)
		}
	}
	j.mu.Unlock()
	slices.Sort(execNow)
	sort.Strings(orphans)

	jm.execTasks(j, execNow)
	if len(orphans) > 0 {
		jm.retryTasks(j, orphans, fmt.Sprintf("job adopted after manager %s died", origin),
			map[string]bool{origin: true})
	}

	// Tell the client its job moved so future calls target this node.
	nm := protocol.Body(msg.KindJMAdopt,
		msg.Address{Node: jm.node, Job: jobID},
		msg.Address{Node: ck.clientNode, Job: jobID, Task: protocol.ClientTaskName},
		protocol.JMAdoptReq{JobID: jobID, NewManager: jm.node, ClientNode: ck.clientNode})
	if err := jm.send(ck.clientNode, nm); err != nil {
		jm.logf("job %s: notify client of adoption: %v", jobID, err)
	}
	jm.log.Info("job adopted", "job", jobID, "origin", origin,
		"live", len(present), "orphaned", len(orphans))
	return nil
}

// takeCheckpoints removes and returns the job images held for origin.
func (jm *JobManager) takeCheckpoints(origin string) map[string]*peerCheckpoint {
	jm.peerMu.Lock()
	defer jm.peerMu.Unlock()
	byJob := jm.peerCkpts[origin]
	delete(jm.peerCkpts, origin)
	return byJob
}

// originAnswers reports whether a manager whose lease lapsed still answers
// one PING within SuspectAfter.
func (jm *JobManager) originAnswers(origin string) bool {
	ping := msg.New(msg.KindPing, msg.Address{Node: jm.node}, msg.Address{Node: origin}, nil)
	_, err := jm.caller.CallInto(context.Background(), origin, ping, nil, jm.cfg.SuspectAfter)
	return err == nil
}

// callAdopt asks one TaskManager to re-point a job's assignments.
func (jm *JobManager) callAdopt(node, jobID, clientNode string, tasks []string) (*protocol.JMAdoptResp, error) {
	sort.Strings(tasks)
	req := protocol.JMAdoptReq{JobID: jobID, NewManager: jm.node, ClientNode: clientNode, Tasks: tasks}
	am := protocol.Body(msg.KindJMAdopt,
		msg.Address{Node: jm.node, Job: jobID},
		msg.Address{Node: node, Job: jobID},
		req)
	reply, err := jm.caller.CallInto(context.Background(), node, am, nil, jm.cfg.AssignTimeout)
	if err != nil {
		return nil, err
	}
	var resp protocol.JMAdoptResp
	if err := protocol.Decode(reply, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// encodeJobCheckpointLocked flattens a job's control state with the wire
// codec's primitives. j.mu must be held. Maps are walked in sorted order
// so identical states encode identically.
func encodeJobCheckpointLocked(j *jobState) ([]byte, error) {
	var blobBytes int
	for _, raw := range j.blobs {
		blobBytes += len(raw)
	}
	withBlobs := blobBytes > 0 && blobBytes <= maxCheckpointBlobBytes

	data, err := appendJobCheckpointLocked(nil, j, withBlobs)
	if err != nil {
		return nil, err
	}
	if len(data) > maxCheckpointDataBytes && withBlobs {
		data, err = appendJobCheckpointLocked(nil, j, false)
		if err != nil {
			return nil, err
		}
	}
	if len(data) > maxCheckpointDataBytes {
		return nil, fmt.Errorf("checkpoint %d bytes exceeds cap %d", len(data), maxCheckpointDataBytes)
	}
	return data, nil
}

func appendJobCheckpointLocked(dst []byte, j *jobState, withBlobs bool) ([]byte, error) {
	dst = wire.AppendUvarint(dst, ckptVersion)
	dst = wire.AppendString(dst, j.name)
	dst = wire.AppendString(dst, j.clientNode)
	dst = wire.AppendBool(dst, j.started)

	dst = wire.AppendUvarint(dst, uint64(len(j.tasks)))
	for i := range j.tasks {
		r := &j.tasks[i]
		dst = wire.AppendArchiveRef(wire.AppendSpec(dst, r.spec), r.archive)
		dst = wire.AppendString(dst, r.node)
		dst = wire.AppendString(wire.AppendVarint(dst, int64(r.retries)), r.err)
		if j.started {
			dst = wire.AppendUvarint(dst, uint64(r.status))
		}
	}

	tuples := j.space.Snapshot()
	dst = wire.AppendUvarint(dst, uint64(len(tuples)))
	for _, t := range tuples {
		dst = wire.AppendTuple(dst, t)
	}
	dst = wire.AppendVarint(dst, j.tsOps.Load())

	if withBlobs {
		dst = wire.AppendBlobMap(dst, j.blobs)
	} else {
		dst = wire.AppendBlobMap(dst, nil)
	}

	// The data-plane location table rides every checkpoint: adverts are a
	// few strings each (plus inline copies bounded by DataInlineMax), and
	// an adopter without them would park every consumer resolve until the
	// producers were needlessly re-run.
	locs := j.broker.Entries()
	dst = wire.AppendUvarint(dst, uint64(len(locs)))
	for _, l := range locs {
		dst = wire.AppendDataPutReq(dst, protocol.DataPutReq{
			Key: l.Key, Task: l.Task, Node: l.Node, Digest: l.Digest, Size: l.Size, Data: l.Inline})
	}

	// Trace section: the job's root context plus a capped prefix of the
	// assembled timeline, so an adopted job keeps its pre-failover spans
	// and the adopter's own spans parent into the same trace.
	dst = wire.AppendUvarint(dst, j.root.TraceID)
	dst = wire.AppendUvarint(dst, j.root.SpanID)
	dst = wire.AppendUvarint(dst, j.root.ParentID)
	spans := j.timeline
	if len(spans) > maxCheckpointTraceSpans {
		spans = spans[:maxCheckpointTraceSpans]
	}
	dst = wire.AppendSpans(dst, spans)
	return dst, nil
}

// decodeJobCheckpoint is the inverse of encodeJobCheckpointLocked. Every
// count is bounds-checked against the remaining input by the wire reader,
// so hostile bytes error instead of allocating unbounded state. The wire's
// readers hand out []byte values that alias their input and a nil map for an
// empty one; what outlives the image here — blobs, inline locations, tuple
// fields — is copied out of it, so an adopted job does not pin a peer's
// whole image, and the maps adoption writes to are made.
func decodeJobCheckpoint(data []byte) (*jobCheckpoint, error) {
	r := wire.NewReader(data)
	v, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if v != ckptVersion {
		return nil, fmt.Errorf("jobmgr: checkpoint version %d, want %d", v, ckptVersion)
	}
	ck := &jobCheckpoint{}
	if ck.name, err = r.String(); err != nil {
		return nil, err
	}
	if ck.clientNode, err = r.String(); err != nil {
		return nil, err
	}
	if ck.started, err = r.Bool(); err != nil {
		return nil, err
	}

	ntasks, err := r.Count("checkpoint tasks")
	if err != nil {
		return nil, err
	}
	// Grown as records parse: a row is far larger than the byte that
	// counts it, so a hostile count must not size the table up front.
	ck.table = newTaskTable(0)
	for i := 0; i < ntasks; i++ {
		sp, err := wire.ReadSpec(r)
		if err != nil {
			return nil, err
		}
		if sp == nil {
			return nil, fmt.Errorf("jobmgr: checkpoint spec %d absent", i)
		}
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		ref, err := wire.ReadArchiveRef(r)
		if err != nil {
			return nil, err
		}
		if err := ck.table.add(sp, ref); err != nil {
			return nil, fmt.Errorf("jobmgr: checkpoint: %w", err)
		}
		row := &ck.table.tasks[i]
		if row.node, err = r.String(); err != nil {
			return nil, err
		}
		if row.retries, err = r.Int(); err != nil {
			return nil, err
		}
		if row.err, err = r.String(); err != nil {
			return nil, err
		}
		if ck.started {
			st, err := r.Uvarint()
			if err != nil {
				return nil, err
			}
			if st > uint64(StatusCancelled) {
				return nil, fmt.Errorf("jobmgr: checkpoint status %d out of range", st)
			}
			row.status = Status(st)
		}
	}

	ntuples, err := r.Count("checkpoint tuples")
	if err != nil {
		return nil, err
	}
	ck.tuples = make([]tuplespace.Tuple, 0, ntuples)
	for i := 0; i < ntuples; i++ {
		t, err := wire.ReadTuple(r)
		if err == nil {
			err = protocol.CheckTuple(t)
		}
		if err != nil {
			return nil, err
		}
		for fi, v := range t {
			if x, ok := v.([]byte); ok {
				t[fi] = bytes.Clone(x)
			}
		}
		ck.tuples = append(ck.tuples, t)
	}
	if ck.tsOps, err = r.Varint(); err != nil {
		return nil, err
	}

	if ck.blobs, err = wire.ReadBlobMap(r, "checkpoint blobs"); err != nil {
		return nil, err
	}
	for d, raw := range ck.blobs {
		ck.blobs[d] = bytes.Clone(raw)
	}
	nlocs, err := r.Count("checkpoint data-plane locations")
	if err != nil {
		return nil, err
	}
	ck.locs = make([]dataplane.Loc, 0, nlocs)
	for i := 0; i < nlocs; i++ {
		var put protocol.DataPutReq
		if err := wire.ReadDataPutReq(r, &put); err != nil {
			return nil, err
		}
		l := locOf(&put)
		l.Inline = bytes.Clone(l.Inline)
		ck.locs = append(ck.locs, l)
	}
	if ck.root.TraceID, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if ck.root.SpanID, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if ck.root.ParentID, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if ck.timeline, err = wire.ReadSpans(r); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("jobmgr: %d trailing bytes after checkpoint", r.Len())
	}
	if ck.blobs == nil {
		ck.blobs = make(map[string][]byte)
	}
	return ck, nil
}
