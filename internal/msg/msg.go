// Package msg implements the Computational Neighborhood message model.
//
// The paper states: "CN uses messages as the fundamental information between
// the CN and the client. CN has well-defined messages that define the Message
// Request, expected Message Action and expected Message Response. Besides the
// well-defined messages, CN also allows user-defined messages that only the
// application (client and its tasks) understands."
//
// This package defines the message envelope, the well-defined message kinds
// and the addressing shared by every CN component. A payload is bytes: a
// protocol body is encoded by cn/internal/protocol, a user message by the
// application that sends it.
package msg

import (
	"fmt"
	"strings"
	"sync/atomic"

	"cn/internal/trace"
)

// Kind identifies a well-defined CN message category. Applications exchange
// KindUser messages; all other kinds are part of the CN protocol itself.
type Kind int

// Well-defined CN message kinds. The request/response pairing follows the
// paper's "Message Request / expected Message Action / expected Message
// Response" structure.
const (
	// KindInvalid is the zero Kind and never appears on the wire.
	KindInvalid Kind = iota

	// Discovery protocol (client -> JobManagers via multicast).
	KindJobManagerSolicit // request: who can host a job with these requirements?
	KindJobManagerOffer   // response: this JobManager is willing

	// Job lifecycle (client -> selected JobManager). A job is created,
	// given tasks and started by KindCreateTasks.
	KindTaskStarted   // label inside KindTaskEvents, never a frame: task began executing
	KindTaskCompleted // label inside KindTaskEvents, never a frame: task terminated normally
	KindTaskFailed    // label inside KindTaskEvents, never a frame: task terminated with an error
	KindCancelJob     // request: abandon a job
	KindJobCompleted  // label inside KindTaskEvents, never a frame: all tasks in a job reached a terminal state
	KindJobFailed     // response: a refused call; label inside KindTaskEvents: the job failed

	// Task placement (JobManager -> TaskManagers via multicast).
	KindTaskSolicit // request: who can execute this task?
	KindTaskOffer   // response: this TaskManager is willing
	KindExecTask    // request: JobManager tells a TaskManager to run a task

	// Batch placement and content-addressed archive distribution.
	KindCreateTasks   // request: create the job, add a whole task set to it and/or start it, in one round
	KindTasksAccepted // response: per-task placements
	KindAssignTasks   // request: batch assignment carrying archive refs only
	KindTasksAssigned // response: per-task assignment results

	// Data plane.
	KindUser      // user-defined message; CN provides delivery only
	KindBroadcast // user message fanned out to every task in the job

	// Health.
	KindPing
	KindPong

	// Failure detection and recovery.
	KindHeartbeat    // TaskManager -> JobManager: lease renewal + per-task progress sync
	KindHeartbeatAck // JobManager -> TaskManager: beat acknowledged, unknown jobs flagged
	KindTaskRetried  // label inside KindTaskEvents, never a frame: a task was re-placed (recovery or speculation)

	// Tuple-space coordination (task or client -> the JobManager hosting
	// the job's space).
	KindTSOut    // request: store a tuple in the job's space
	KindTSIn     // request: take a matching tuple (blocking; parks server-side)
	KindTSRd     // request: read a matching tuple (blocking; parks server-side)
	KindTSInP    // request: take a matching tuple without blocking
	KindTSRdP    // request: read a matching tuple without blocking
	KindTSReply  // response: tuple-space operation result
	KindTSCancel // notice: abandon a parked blocking op (requester gave up)

	// Chunked blob streaming: one archive chunk per message so a large
	// archive never balloons a single frame past the transport's
	// MaxFrameBytes guard.
	KindBlobChunk    // request: push one chunk (client -> JM) or pull one (TM -> JM)
	KindBlobChunkAck // response: the pulled chunk, or the push acknowledgement

	// JobManager durability: peer checkpoint replication and failover.
	KindJMCheckpoint // event: JobManager multicasts a job's control-state checkpoint to peers
	KindJMAdopt      // request/response: a surviving JobManager re-homes a dead peer's job

	// Direct task-to-task data plane: producers advertise content-addressed
	// outputs to the JobManager (locations only, never bytes) and consumers
	// pull the bytes straight from the producer's TaskManager.
	KindDataPut     // request: producer TM -> JM location advert for a keyed output
	KindDataResolve // request: consumer TM -> JM lookup of a key's location (parks until published)
	KindDataLoc     // response: the key's location (or inline bytes for small payloads)
	KindDataFetch   // request: consumer TM -> producer TM direct chunk pull

	// Cluster-wide metrics aggregation: a scraper (the portal) pulls each
	// node's metrics registry over the fabric.
	KindStatsPull   // request: scraper -> node, report your registry snapshot
	KindStatsReport // response: the node's counters, gauges, and histograms

	// Task lifecycle events travel batched: what one node has to report
	// about one job rides one frame (TaskManager -> JobManager), and what
	// the JobManager relays of it rides one frame more (-> client). The
	// client-bound stream also carries the JobManager's own labels: a
	// task's re-placement and, last, the job's end.
	KindTaskEvents // event: a batch of task (and, to the client, retry and job) labels

	// kindEnd is the exclusive upper bound of the kind space; keep it last.
	kindEnd
)

// KindCount is the size of the kind space, for per-kind counter arrays.
const KindCount = int(kindEnd)

var kindNames = map[Kind]string{
	KindInvalid:           "INVALID",
	KindJobManagerSolicit: "JM_SOLICIT",
	KindJobManagerOffer:   "JM_OFFER",
	KindTaskStarted:       "TASK_STARTED",
	KindTaskCompleted:     "TASK_COMPLETED",
	KindTaskFailed:        "TASK_FAILED",
	KindCancelJob:         "CANCEL_JOB",
	KindJobCompleted:      "JOB_COMPLETED",
	KindJobFailed:         "JOB_FAILED",
	KindTaskSolicit:       "TASK_SOLICIT",
	KindTaskOffer:         "TASK_OFFER",
	KindExecTask:          "EXEC_TASK",
	KindCreateTasks:       "CREATE_TASKS",
	KindTasksAccepted:     "TASKS_ACCEPTED",
	KindAssignTasks:       "ASSIGN_TASKS",
	KindTasksAssigned:     "TASKS_ASSIGNED",
	KindUser:              "USER",
	KindBroadcast:         "BROADCAST",
	KindPing:              "PING",
	KindPong:              "PONG",
	KindHeartbeat:         "HEARTBEAT",
	KindHeartbeatAck:      "HEARTBEAT_ACK",
	KindTaskRetried:       "TASK_RETRIED",
	KindTSOut:             "TS_OUT",
	KindTSIn:              "TS_IN",
	KindTSRd:              "TS_RD",
	KindTSInP:             "TS_INP",
	KindTSRdP:             "TS_RDP",
	KindTSReply:           "TS_REPLY",
	KindTSCancel:          "TS_CANCEL",
	KindBlobChunk:         "BLOB_CHUNK",
	KindBlobChunkAck:      "BLOB_CHUNK_ACK",
	KindJMCheckpoint:      "JM_CHECKPOINT",
	KindJMAdopt:           "JM_ADOPT",
	KindDataPut:           "DATA_PUT",
	KindDataResolve:       "DATA_RESOLVE",
	KindDataLoc:           "DATA_LOC",
	KindDataFetch:         "DATA_FETCH",
	KindStatsPull:         "STATS_PULL",
	KindStatsReport:       "STATS_REPORT",
	KindTaskEvents:        "TASK_EVENTS",
}

// String returns the wire name of the kind, e.g. "TASK_COMPLETED".
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Address names a message endpoint inside a CN deployment. An address is
// hierarchical: a node hosts jobs, a job hosts tasks. Empty trailing
// components widen the scope: {Node:"n1"} addresses the server on n1,
// {Node:"n1", Job:"j1"} its JobManager state for job j1, and
// {Node:"n1", Job:"j1", Task:"t3"} a single task mailbox.
type Address struct {
	Node string
	Job  string
	Task string
}

// String renders the address as node/job/task with empty parts elided.
func (a Address) String() string {
	parts := []string{a.Node}
	if a.Job != "" || a.Task != "" {
		parts = append(parts, a.Job)
	}
	if a.Task != "" {
		parts = append(parts, a.Task)
	}
	return strings.Join(parts, "/")
}

// IsZero reports whether the address is entirely empty.
func (a Address) IsZero() bool { return a == Address{} }

// Message is the envelope exchanged between CN components and applications.
type Message struct {
	// ID is unique per producing process.
	ID uint64
	// Kind classifies the message; user traffic uses KindUser/KindBroadcast.
	Kind Kind
	// CorrelID links a response to the request it answers (0 for events).
	CorrelID uint64
	// From and To are the endpoints. To may be a widened address for
	// multicast kinds.
	From, To Address
	// Payload is the encoded body: a protocol body as protocol.Body wrote it,
	// or a user message's bytes as its application wrote them.
	Payload []byte
	// Tail is the frame's optional bulk tail: bytes that ride after the
	// envelope without being copied into it (see docs/WIRE.md). It is
	// borrowed and immutable — the sender must not write to it once the
	// message is handed to an endpoint, and receivers only read it.
	Tail []byte
	// TailDone, when set, is called exactly once by the endpoint the message
	// is handed to, when that endpoint no longer reads Tail: after the frame
	// was written, or when it was dropped unsent — on any path, including a
	// Send that fails. It is how a sender whose tail aliases a counted
	// buffer learns it may let go. It does not travel and Clone drops it;
	// a message carrying it is sent once, to one node.
	TailDone func()
	// Headers carries small string metadata (e.g. task class, error text).
	Headers map[string]string
	// Trace is the distributed-tracing context this message carries. The
	// zero value means "not traced" and adds nothing to the encoded frame.
	Trace trace.Context
}

var nextID atomic.Uint64

// NewID returns a process-unique message id.
func NewID() uint64 { return nextID.Add(1) }

// New constructs a message of the given kind between two endpoints with an
// already-encoded payload.
func New(kind Kind, from, to Address, payload []byte) *Message {
	return &Message{
		ID:      NewID(),
		Kind:    kind,
		From:    from,
		To:      to,
		Payload: payload,
	}
}

// Reply constructs a response message correlated with m, addressed back to
// its sender. The request's trace context is carried over so a traced
// round trip stays attributable on both legs.
func (m *Message) Reply(kind Kind, payload []byte) *Message {
	r := New(kind, m.To, m.From, payload)
	r.CorrelID = m.ID
	r.Trace = m.Trace
	return r
}

// Header returns the named header or "".
func (m *Message) Header(key string) string {
	if m.Headers == nil {
		return ""
	}
	return m.Headers[key]
}

// SetHeader sets a header, allocating the map on first use, and returns m
// for chaining.
func (m *Message) SetHeader(key, value string) *Message {
	if m.Headers == nil {
		m.Headers = make(map[string]string, 4)
	}
	m.Headers[key] = value
	return m
}

// Clone returns a deep copy of m (payload and headers are copied; the
// immutable tail is shared, and TailDone stays with the original).
func (m *Message) Clone() *Message {
	c := *m
	c.TailDone = nil
	if m.Payload != nil {
		c.Payload = append([]byte(nil), m.Payload...)
	}
	if m.Headers != nil {
		c.Headers = make(map[string]string, len(m.Headers))
		for k, v := range m.Headers {
			c.Headers[k] = v
		}
	}
	return &c
}

// String renders a compact one-line description for logs.
func (m *Message) String() string {
	return fmt.Sprintf("%s %s->%s id=%d len=%d", m.Kind, m.From, m.To, m.ID, len(m.Payload))
}
