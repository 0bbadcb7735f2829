// Package protocol defines the payload bodies of CN's
// well-defined messages: the "Message Request, expected Message Action and
// expected Message Response" triples exchanged between the CN API client,
// JobManagers, and TaskManagers. Each struct corresponds to one msg.Kind;
// Body, Reply and Decode encode and decode it (with cn/internal/wire's codec).
package protocol

import (
	"fmt"

	"cn/internal/archive"
	"cn/internal/metrics"
	"cn/internal/msg"
	"cn/internal/task"
	"cn/internal/trace"
)

// Multicast group names. CN servers join both; clients join neither.
const (
	// GroupJobManagers receives job-manager solicitations ("Requests to
	// JobManager are communicated using multicast").
	GroupJobManagers = "cn.jobmanagers"
	// GroupTaskManagers receives task placement solicitations ("The
	// JobManager solicits TaskManager for the Tasks").
	GroupTaskManagers = "cn.taskmanagers"
)

// JobRequirements is carried by KindJobManagerSolicit: the client's
// user-specified requirements a willing JobManager must meet.
type JobRequirements struct {
	// MinMemoryMB is the minimum free memory the hosting node must have.
	MinMemoryMB int
	// ExpectedTasks hints how many tasks the job will create.
	ExpectedTasks int
}

// JMOffer is the body of KindJobManagerOffer. Refused, when set, is why the
// manager cannot take a job now (shut down, or at its job cap).
type JMOffer struct {
	Node         string
	FreeMemoryMB int
	ActiveJobs   int
	Refused      string
}

// TaskSolicitReq is the body of KindTaskSolicit (JobManager -> TaskManagers
// multicast).
type TaskSolicitReq struct {
	JobID string
	Spec  *task.Spec
}

// MaxOfferDigests bounds how many resident content digests one TMOffer
// advertises. The digests are the node's most-recently-used cache entries;
// a bounded set keeps the offer payload small on large caches while still
// covering the blobs a warm node is most likely to be asked about.
const MaxOfferDigests = 32

// Capacity is a TaskManager's figure of its own books: the unreserved
// memory and running tasks it counts, read under its lock as the frame that
// carries the figure is built. Seq numbers the node's figures in the order
// they were read, so a receiver keeps the newest of figures that crossed on
// different lanes; 0 means the frame carries no figure.
type Capacity struct {
	Seq          uint64
	FreeMemoryMB int
	RunningTasks int
}

// TMOffer is the body of KindTaskOffer: the node's capacity figure plus the
// locality fields (resident digests, stall count) the placement scorer
// reads.
type TMOffer struct {
	Node         string
	FreeMemoryMB int
	RunningTasks int
	// Seq is the sequence of the figure FreeMemoryMB and RunningTasks form
	// (see Capacity).
	Seq uint64
	// ResidentDigests is a bounded most-recently-used sample of the content
	// digests in the node's blob cache — task archives and data-plane
	// shuffle blobs alike. The placement scorer matches a job's wanted
	// digests against it so warm nodes outrank cold ones.
	ResidentDigests []string
	// StalledTasks counts running tasks whose progress counter has not
	// advanced for several heartbeat intervals — the node's self-observed
	// straggler signal, scored as a placement penalty.
	StalledTasks int
}

// ArchiveRef is a content-addressed reference to a task archive: the digest
// identifies the blob, the name preserves the descriptor's jar="..." label,
// and Size is how many bytes hash to the digest — what a TaskManager lacking
// the blob allocates before it pulls. The JobManager fills Size from bytes it
// has verified; it travels only beside a digest. A zero ArchiveRef means the
// task ships no archive (pre-deployed class).
type ArchiveRef struct {
	Name   string
	Digest string
	Size   int64
}

// IsZero reports whether the ref names no archive.
func (r ArchiveRef) IsZero() bool { return r.Digest == "" && r.Name == "" }

// TaskCreate is one task of a batch: its spec plus the content-addressed
// reference to its archive. The blob bytes travel separately (deduplicated
// by digest) or not at all when the receiver already caches the digest.
type TaskCreate struct {
	Spec    *task.Spec
	Archive ArchiveRef
}

// CreateTasksReq is the body of KindCreateTasks (client -> JobManager), the
// one admission frame: it adds a whole task set to a job in one request, and
// may create the job and start it too. Blobs carries each distinct archive's
// bytes exactly once, keyed by digest, so N tasks sharing an archive cost one
// copy on the wire instead of N.
//
// The job's first frame carries its header — ClientNode set, with the Name
// and Req of the paper's "Create Job in JobManager" — and opens the job
// under the JobID the client chose; a manager that already holds that ID,
// live or finished, refuses it. A first frame may carry no tasks (a client
// about to push an archive chunk by chunk needs the job to exist first).
// Start starts the whole job in dependency order once the frame's tasks are
// placed, and Spans carries the client-side spans of the job's trace to the
// JobManager's timeline. A start with no tasks is "Start the Tasks" alone.
type CreateTasksReq struct {
	JobID string
	Tasks []TaskCreate
	Blobs map[string][]byte

	ClientNode string
	Name       string
	Req        JobRequirements

	Start bool
	Spans []trace.Span
}

// Check validates the request as its JobManager must before recording
// anything: every task has a valid spec, no name appears twice, and every
// inline blob hashes to its key — bytes that do not would poison the digest
// for the whole job, and every TaskManager would find out separately (at
// most MaxInlinePerMessage bytes are hashed per message).
func (r *CreateTasksReq) Check() error {
	for digest, raw := range r.Blobs {
		if got := archive.DigestBytes(raw); got != digest {
			return fmt.Errorf("inline blob hashes to %.12s…, not the declared %.12s…", got, digest)
		}
	}
	seen := make(map[string]bool, len(r.Tasks))
	for _, it := range r.Tasks {
		if it.Spec == nil {
			return fmt.Errorf("job %s: task without a spec", r.JobID)
		}
		if err := it.Spec.Validate(); err != nil {
			return err
		}
		if seen[it.Spec.Name] {
			return fmt.Errorf("job %s: task %q appears twice in batch", r.JobID, it.Spec.Name)
		}
		seen[it.Spec.Name] = true
	}
	return nil
}

// CreateTasksResp is the body of KindTasksAccepted.
type CreateTasksResp struct {
	// Placements maps task name -> executing node.
	Placements map[string]string
}

// AssignTasksReq is the body of KindAssignTasks (JobManager -> one chosen
// TaskManager): a batch assignment carrying archive references only. A
// TaskManager that lacks a referenced blob pulls it once from the JobManager
// with KindBlobChunk; blobs it already caches cost nothing. Run names the
// items to start the moment they are reserved — the ready tasks of a job
// started in the same admission frame — so no KindExecTask follows for them.
type AssignTasksReq struct {
	JobID      string
	JobManager string
	ClientNode string
	Items      []TaskCreate
	Run        []string
}

// BatchRejected is the pseudo task name a TaskManager uses in
// AssignTasksResp.Rejected when the whole batch failed before any item
// could be considered (e.g. the request did not decode).
const BatchRejected = "*"

// AssignTasksResp is the body of KindTasksAssigned.
type AssignTasksResp struct {
	// Rejected maps task name -> rejection reason; tasks absent from the
	// map were accepted and reserved. The BatchRejected key marks a
	// whole-batch failure.
	Rejected map[string]string
	// Fetched counts blobs the TaskManager had to pull for this batch.
	Fetched int
	// Capacity is the node's figure after the batch's reservations and the
	// starts of its run list.
	Capacity Capacity
}

// MaxInlineBlob is the largest archive that still rides whole inside a
// CreateTasksReq. Bigger blobs move chunk by chunk via KindBlobChunk so no
// single frame approaches the transport's MaxFrameBytes guard.
const MaxInlineBlob = 128 << 10

// MaxInlinePerMessage bounds the AGGREGATE inline blob bytes of one
// CreateTasksReq. Many individually-small archives could otherwise add up
// past the transport frame limit; blobs over this running budget are pushed
// in chunks even though each alone would qualify for inlining. It stays well
// under the frame limit to leave room for specs and envelope overhead.
const MaxInlinePerMessage = 512 << 10

// BlobChunkBytes is the data size of one KindBlobChunk message. Chunk
// pulls are serial acknowledged round trips nested inside the
// JobManager's AssignTimeout, so the chunk is sized near the transport
// frame limit (with room for envelope overhead) to minimize the number
// of round trips a large archive costs on real-latency links.
const BlobChunkBytes = 768 << 10

// MaxBlobBytes bounds one archive blob end to end (push staging refuses
// larger totals), so a hostile or buggy uploader cannot balloon a
// JobManager's memory one chunk at a time.
const MaxBlobBytes = 1 << 30

// BlobChunkReq is the body of KindBlobChunk, serving both directions of
// the chunk protocol:
//
//   - push (client -> JobManager): Data carries raw[Offset:Offset+len] and
//     Total the blob's full size; chunks arrive in offset order and the
//     JobManager digest-verifies the reassembled blob before storing it.
//   - pull (TaskManager -> JobManager): Data is empty; the reply returns
//     up to MaxBytes (0 = BlobChunkBytes) of the stored blob at Offset.
//
// Data travels in the frame's bulk tail, not in the encoded body (Body and
// Decode move it), so a chunk is never copied into a payload.
type BlobChunkReq struct {
	JobID    string
	Digest   string
	Offset   int64
	MaxBytes int64
	Total    int64
	Data     []byte
}

// BlobChunkResp is the body of KindBlobChunkAck. For a pull it carries the
// requested chunk and the blob's Total size; for a push, Offset echoes the
// staged length so the sender can detect divergence. Err reports a
// request-level failure (unknown digest, out-of-order chunk, digest
// mismatch on completion). Data travels in the frame's bulk tail, as in
// BlobChunkReq.
type BlobChunkResp struct {
	Digest string
	Offset int64
	Total  int64
	Data   []byte
	Err    string
}

// ExecTaskReq is the body of KindExecTask (JobManager -> TaskManager): run
// these previously assigned tasks of one job now — everything the schedule
// released for the node at once, in release order, that did not ride its
// assignment's run list. Each task starts on its
// own; one that cannot start fails alone.
type ExecTaskReq struct {
	JobID string
	Tasks []string
}

// TaskEventsMax bounds the events of one KindTaskEvents frame. A batch is
// whatever gathered while its sender was being scheduled, so the bound only
// bites on a node finishing hundreds of tasks of one job at once; 256 keeps
// such a frame near 10 KiB of names — far below the transport's frame limit,
// small enough that the per-job worker applying it under the job's lock
// does not hold up a heartbeat for long — while a 32-task fan-out still
// fits one frame with room to spare. The rest follows in order.
const TaskEventsMax = 256

// TaskEventsMaxBytes cuts a batch early when its variable-size parts — error
// texts and, on traced jobs, the spans terminal events carry — would pass
// 256 KiB, the bulk lane's flush cap: a batch of traced shuffle tasks can
// carry dozens of spans each, and one batch should not be a flush of its own.
const TaskEventsMaxBytes = 256 << 10

// TaskEventItem is one event of a batch. Kind is a label here, never the
// kind of a frame: msg.KindTaskStarted, KindTaskCompleted and
// KindTaskFailed in any batch; in a batch the JobManager sends the client,
// also KindTaskRetried (the task was re-placed on the batch's Node) and, as
// the last event of the job's stream, KindJobCompleted or KindJobFailed.
type TaskEventItem struct {
	Kind msg.Kind
	Task string // empty for the job labels
	// Err is a task's failure reason, a retry's reason, or why the job
	// failed; empty otherwise.
	Err string
	// Attempt counts re-placements of the task so far (0 for the original
	// placement).
	Attempt int
	// Spans carries the task's recorded spans (exec, shuffle pulls) on its
	// terminal event, so the TaskManager's side of the trace reaches the
	// JobManager's per-job timeline exactly once.
	Spans []trace.Span
	// Speculative marks a TASK_RETRIED raised by straggler speculation
	// rather than failure recovery.
	Speculative bool
	// TaskErrs maps each failed task to its reason, on a job label.
	TaskErrs map[string]string
}

// IsTaskLabel reports whether k is one of the three labels a TaskManager
// reports: the only ones a JobManager applies.
func IsTaskLabel(k msg.Kind) bool {
	return k == msg.KindTaskStarted || k == msg.KindTaskCompleted || k == msg.KindTaskFailed
}

// IsJobLabel reports whether k is one of the two labels that end a job's
// stream to its client.
func IsJobLabel(k msg.Kind) bool {
	return k == msg.KindJobCompleted || k == msg.KindJobFailed
}

// weight estimates the bytes of the item's variable-size parts on the wire:
// its error text, and per span the strings plus 48 for the ids, times and
// length prefixes.
func (e *TaskEventItem) weight() int {
	n := len(e.Err)
	for k, v := range e.TaskErrs {
		n += len(k) + len(v)
	}
	for i := range e.Spans {
		sp := &e.Spans[i]
		n += 48 + len(sp.Name) + len(sp.Node) + len(sp.Job) + len(sp.Task) + len(sp.Err)
	}
	return n
}

// TaskEvents is the body of KindTaskEvents: events of one job that happened
// on one node, in the order they happened. A TaskManager sends what its
// outbox for the job held; the JobManager sends the client what it relays of
// a batch it applied, the re-placements it made (Node is where to), and the
// job's end, which rides the last batch of the job's stream. A
// TaskManager's batch carries its node's figure as the batch was cut, after
// the memory of every task whose end the batch reports was released; the
// JobManager's relay to the client carries none.
type TaskEvents struct {
	JobID    string
	Node     string
	Events   []TaskEventItem
	Capacity Capacity
}

// CutTaskEvents returns how many leading events of a pending run fit one
// frame: at most TaskEventsMax, fewer when their weight would pass
// TaskEventsMaxBytes, never less than one.
func CutTaskEvents(events []TaskEventItem) int {
	n, bytes := 0, 0
	for n < len(events) && n < TaskEventsMax {
		bytes += events[n].weight()
		if n > 0 && bytes > TaskEventsMaxBytes {
			break
		}
		n++
	}
	return n
}

// TaskBeat is one assignment's entry in a Heartbeat: a compact progress
// sync the JobManager uses both as a liveness proof and as the straggler
// signal (a running task whose Progress counter stops advancing is a
// speculation candidate).
type TaskBeat struct {
	JobID string
	Task  string
	// Running reports whether the task's goroutine is executing (false for
	// assigned-but-unstarted tasks).
	Running bool
	// Progress is a monotonic activity counter (messages sent/received plus
	// explicit progress reports by the task).
	Progress uint64
}

// Heartbeat is the body of KindHeartbeat (TaskManager -> each JobManager
// holding assignments on it): the lease renewal plus per-task progress.
type Heartbeat struct {
	Node  string
	Seq   uint64
	Beats []TaskBeat
}

// HeartbeatAck is the body of KindHeartbeatAck. UnknownJobs lists beat
// job ids this JobManager no longer tracks, so the TaskManager can release
// assignments orphaned by job eviction.
type HeartbeatAck struct {
	Node        string
	Seq         uint64
	UnknownJobs []string
}

// UserPayload is the body of KindUser and KindBroadcast: user-defined
// messages for which "CN merely provides a message delivery mechanism".
type UserPayload struct {
	JobID    string
	FromTask string
	ToTask   string // "client" addresses the client program
	Data     []byte
}

// ClientTaskName is the pseudo task name addressing the client program.
const ClientTaskName = "client"

// HeaderRouted marks a user message already forwarded by a JobManager; a
// routed message is a final delivery and must not be re-routed.
const HeaderRouted = "cn-routed"

// CancelJobReq is the body of KindCancelJob. An empty Tasks cancels the
// whole job on the receiving TaskManager; a non-empty Tasks releases only
// those assignments (used to roll back a partially accepted batch without
// touching the job's other tasks).
type CancelJobReq struct {
	JobID  string
	Reason string
	Tasks  []string
}

// JMCheckpoint is the body of KindJMCheckpoint (JobManager -> peer
// JobManagers via multicast): one hosted job's control-state image,
// replicated at checkpoint cadence so a surviving peer can re-home the job
// if the origin dies. Data is an opaque jobmgr-encoded snapshot; peers
// store it without decoding and only unpack on adoption. Seq orders
// checkpoints per (Origin, JobID) — a peer keeps the highest it has seen.
// Done marks a terminal tombstone: the job finished, peers drop their copy.
type JMCheckpoint struct {
	Origin string
	JobID  string
	Seq    uint64
	Done   bool
	Data   []byte
}

// JMAdoptReq is the body of KindJMAdopt (adopting JobManager -> a
// TaskManager holding the dead manager's assignments): re-point the job's
// assignments at NewManager so heartbeats, lifecycle events, and
// tuple-space calls flow to the survivor.
type JMAdoptReq struct {
	JobID      string
	NewManager string
	ClientNode string
	// Tasks lists the assignments the checkpoint places on this node; the
	// TaskManager answers with the subset still present.
	Tasks []string
}

// JMAdoptResp is the KindJMAdopt reply: the job's assignments still held
// by the answering TaskManager. Checkpointed tasks absent from Present
// finished or vanished since the last checkpoint and are re-placed by the
// adopter through the recovery engine.
type JMAdoptResp struct {
	Node    string
	Present []TaskBeat
}

// JobEvent is the body of a KindJobFailed reply: the JobManager refused a
// call, and Err says why. A job's end reaches its client as a label in the
// TaskEvents stream, not as a JobEvent.
type JobEvent struct {
	JobID    string
	Failed   bool
	Err      string
	TaskErrs map[string]string
}

// StatsPullReq is the body of KindStatsPull (scraper -> node): report the
// node's metrics registry. The scraper is the portal's aggregation loop;
// any client attached to the fabric may pull.
type StatsPullReq struct {
	// Scraper names the requesting endpoint (diagnostics only).
	Scraper string
}

// StatsReportResp is the body of KindStatsReport: one node's full metrics
// registry snapshot, the unit of cluster-wide aggregation. Spans are not
// counted here: a node keeps none outside its JobManager's per-job timelines.
type StatsReportResp struct {
	Node    string                   `json:"node"`
	Metrics metrics.RegistrySnapshot `json:"metrics"`
}

// Decode unmarshals a message's body into out, which must match the
// kind's body type. A chunk body's Data is the frame's tail, aliased.
func Decode(m *msg.Message, out any) error {
	if err := unmarshal(m.Payload, out); err != nil {
		return err
	}
	switch v := out.(type) {
	case *BlobChunkReq:
		v.Data = m.Tail
	case *BlobChunkResp:
		v.Data = m.Tail
	}
	return nil
}

// Body constructs a message of the given kind with an encoded body; it
// panics only if body's type has no row in the codec table (a programming
// error).
// The body is encoded at once into a payload of the message's own, so the
// message shares no memory with body and the caller may reuse every slice
// body holds as soon as Body returns — whichever path the message then
// takes, a socket or an in-process hand-over. The one exception is a chunk
// body's Data: it is not encoded but rides the frame's tail by reference,
// so it must stay unmodified until the message has been sent.
func Body(kind msg.Kind, from, to msg.Address, body any) *msg.Message {
	m := msg.New(kind, from, to, marshal(body))
	m.Tail = tailOf(body)
	return m
}

// Reply is Body for a response correlated with m (see msg.Message.Reply).
func Reply(m *msg.Message, kind msg.Kind, body any) *msg.Message {
	r := m.Reply(kind, marshal(body))
	r.Tail = tailOf(body)
	return r
}

// tailOf returns the bytes of body that travel in the frame's tail rather
// than in the payload: the Data of the two chunk bodies.
func tailOf(body any) []byte {
	switch v := body.(type) {
	case BlobChunkReq:
		return v.Data
	case *BlobChunkReq:
		return v.Data
	case BlobChunkResp:
		return v.Data
	case *BlobChunkResp:
		return v.Data
	}
	return nil
}

// The payload codec: cn/internal/wire's Marshal and Unmarshal, which its
// init installs with InstallCodec once, before main (wire imports this
// package, so it cannot be called from here).
var (
	marshal   func(body any) []byte
	unmarshal func(payload []byte, out any) error
)

// InstallCodec is wire's init's hand-over; nothing else calls it.
func InstallCodec(m func(any) []byte, u func([]byte, any) error) { marshal, unmarshal = m, u }
