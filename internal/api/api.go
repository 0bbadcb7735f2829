// Package api implements the client-side CN API, the factory façade the
// paper lists (§3):
//
//   - Initialize CN API (using the factory)      -> Initialize
//   - Create Job in JobManager                    -> Client.CreateJob
//   - Create Tasks for the Job                    -> Job.CreateTask
//   - Start the Tasks                             -> Job.Start
//   - Get Messages from Tasks                     -> Job.GetMessage / GetEvent
//   - Send Messages to Tasks                      -> Job.SendMessage
//
// Creating the job, its tasks and their start are one CREATE_TASKS frame to
// the JobManager when the program calls Job.Submit, and never more frames
// than steps.
//
// "The user is responsible, usually toward the beginning of the parallel
// program, to acquire a reference to the CN API."
package api

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cn/internal/archive"
	"cn/internal/discovery"
	"cn/internal/logging"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/trace"
	"cn/internal/transport"
)

// Errors returned by the client API.
var (
	// ErrJobFinished is returned for operations on a job that already
	// reached a terminal state.
	ErrJobFinished = errors.New("api: job already finished")
)

var clientSeq atomic.Int64

// Options configures Initialize.
type Options struct {
	// ClientName overrides the generated client node name.
	ClientName string
	// DiscoveryWindow bounds JobManager discovery (0 = 200ms).
	DiscoveryWindow time.Duration
	// Policy selects among JobManager offers (nil = BestFit).
	Policy discovery.Policy
	// CallTimeout bounds individual request/response calls (0 = 10s).
	// Tuple-space operations carry their own bound, protocol.CallTimeout.
	CallTimeout time.Duration
	// Log receives diagnostics as Debug records, under component=client and
	// the client's node name; nil disables logging.
	Log *slog.Logger
	// Tracer makes this client a trace root: job submission opens the
	// trace (sampling decided there) and every job call carries its
	// context on the wire. Nil leaves jobs untraced from the client side
	// (a JobManager may still self-sample them).
	Tracer *trace.Tracer
}

// Client is an initialized CN API handle bound to one cluster network.
type Client struct {
	opts   Options
	node   string
	ep     transport.Endpoint
	caller *transport.Caller
	// epoch and seq name the client's jobs, <node>.<epoch>.<seq>: epoch is
	// drawn at random per Client, so a client re-attached under its old
	// name does not reuse an ID a manager may still hold.
	epoch string
	seq   atomic.Uint64

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool
	// manager is the JobManager the client's last create landed on: where
	// CreateJob binds the next job while the node is in the group.
	manager string
}

// Initialize attaches a client to the cluster fabric and returns the API
// handle (the paper's factory acquisition step).
func Initialize(net transport.Network, opts Options) (*Client, error) {
	name := opts.ClientName
	if name == "" {
		name = fmt.Sprintf("client-%d", clientSeq.Add(1))
	}
	if opts.CallTimeout <= 0 {
		opts.CallTimeout = 10 * time.Second
	}
	opts.Log = logging.Component(opts.Log, "client", name)
	c := &Client{opts: opts, node: name, jobs: make(map[string]*Job),
		epoch: fmt.Sprintf("%08x", rand.Uint32())}
	ep, err := net.Attach(name, c.handle)
	if err != nil {
		return nil, fmt.Errorf("api: initialize: %w", err)
	}
	c.ep = ep
	c.caller = transport.NewCaller(ep)
	return c, nil
}

// Node returns the client's node name on the fabric.
func (c *Client) Node() string { return c.node }

func (c *Client) logf(format string, args ...any) {
	logging.Debugf(c.opts.Log, format, args...)
}

// handle is the client's endpoint dispatch: replies feed the caller, user
// messages and events feed the owning job.
func (c *Client) handle(m *msg.Message) {
	if c.caller.Handle(m) {
		return
	}
	switch m.Kind {
	case msg.KindUser:
		var p protocol.UserPayload
		if err := protocol.Decode(m, &p); err != nil {
			c.logf("bad user payload: %v", err)
			return
		}
		// The inbox takes every message while the job runs; a closed one
		// belongs to a job that ended (or a handle released), and what
		// still arrives for it is dropped without a word.
		if j := c.job(p.JobID); j != nil {
			_ = j.inbox.Put(m)
		}
	case msg.KindTaskEvents:
		// Applied here, on the delivering goroutine: the batch is decoded
		// once and its events are counted and queued in order. The job's
		// stream is one lane, so every user message and event the job sent
		// is in by the time the job's end, its last label, is applied.
		var batch protocol.TaskEvents
		if err := protocol.Decode(m, &batch); err != nil {
			return
		}
		if j := c.job(batch.JobID); j != nil {
			j.recordEvents(batch.Node, batch.Events)
		}
	case msg.KindJMAdopt:
		// A surviving JobManager adopted the job after its original manager
		// died; re-point the handle so future calls reach the survivor.
		var req protocol.JMAdoptReq
		if err := protocol.Decode(m, &req); err != nil {
			return
		}
		if j := c.job(req.JobID); j != nil && req.NewManager != "" {
			j.setManager(req.NewManager)
			c.logf("job %s re-homed to %s", req.JobID, req.NewManager)
		}
	}
}

func (c *Client) job(id string) *Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[id]
}

// OpenJobs returns how many job handles the client still routes frames to:
// those created and not yet released.
func (c *Client) OpenJobs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.jobs)
}

// Scrape pulls one node's metrics registry snapshot over the wire
// (KindStatsPull) — the primitive cluster-wide metrics aggregation is built
// from.
func (c *Client) Scrape(ctx context.Context, node string) (*protocol.StatsReportResp, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m := protocol.Body(msg.KindStatsPull,
		msg.Address{Node: c.node, Task: protocol.ClientTaskName},
		msg.Address{Node: node},
		protocol.StatsPullReq{Scraper: c.node})
	reply, err := c.caller.CallInto(ctx, node, m, nil, c.opts.CallTimeout)
	if err != nil {
		return nil, fmt.Errorf("api: scrape %s: %w", node, err)
	}
	var resp protocol.StatsReportResp
	if err := protocol.Decode(reply, &resp); err != nil {
		return nil, fmt.Errorf("api: scrape %s: %w", node, err)
	}
	return &resp, nil
}

// Discover performs one JobManager discovery round without creating a job.
func (c *Client) Discover(req protocol.JobRequirements) (protocol.JMOffer, []protocol.JMOffer, error) {
	return c.DiscoverWith(c.opts.Policy, req)
}

// DiscoverWith is Discover under an explicit selection policy.
func (c *Client) DiscoverWith(policy discovery.Policy, req protocol.JobRequirements) (protocol.JMOffer, []protocol.JMOffer, error) {
	return discovery.Discover(c.caller, c.node, discovery.Options{
		Window:       c.opts.DiscoveryWindow,
		Policy:       policy,
		Requirements: req,
	})
}

// CreateJob names a job and binds it to a JobManager; it sends nothing. The
// manager is the one the client's last create landed on while that node is
// still a member of the JobManager group (a local check); otherwise — the
// client's first job, or the node left — one discovery round picks it, run
// once more if it collected no offer: one silent round on a healthy cluster
// must not cost the job. The job is created on the manager by its first
// CreateTasks, Submit or Start; when the manager refuses that frame or
// cannot be reached, the client runs one discovery round and sends the frame
// once more, to the manager that round picks.
func (c *Client) CreateJob(name string, req protocol.JobRequirements) (*Job, error) {
	jmNode := c.keptManager()
	if jmNode == "" {
		var err error
		if jmNode, err = c.solicit(req); err != nil {
			return nil, fmt.Errorf("api: create job %q: %w", name, err)
		}
	}
	j := c.newJob(jmNode, name, req)
	j.rebind = true
	return j, nil
}

// CreateJobOn names a job bound to a specific JobManager node (used when the
// caller already discovered or statically knows the manager). Like CreateJob
// it sends nothing; a first frame that manager refuses is not sent
// elsewhere.
func (c *Client) CreateJobOn(jmNode, name string, req protocol.JobRequirements) (*Job, error) {
	return c.newJob(jmNode, name, req), nil
}

// keptManager is the manager the last create landed on, or "" when there is
// none or its node is no longer in the JobManager group.
func (c *Client) keptManager() string {
	c.mu.Lock()
	node := c.manager
	c.mu.Unlock()
	if node == "" || !slices.Contains(c.ep.GroupMembers(protocol.GroupJobManagers), node) {
		return ""
	}
	return node
}

// solicit runs a discovery round, and once more if it collected no offer.
func (c *Client) solicit(req protocol.JobRequirements) (string, error) {
	offer, _, err := c.Discover(req)
	if errors.Is(err, discovery.ErrNoOffers) {
		offer, _, err = c.Discover(req)
	}
	return offer.Node, err
}

// newJob names a job on jmNode and routes its frames to the handle.
func (c *Client) newJob(jmNode, name string, req protocol.JobRequirements) *Job {
	id := fmt.Sprintf("%s.%s.%d", c.node, c.epoch, c.seq.Add(1))
	// The trace is born here: the submit span is the root every other
	// span of the job — JM scheduling, task exec, shuffle pulls — hangs
	// off, and its context rides every admission frame's envelope.
	ra := c.opts.Tracer.StartRoot("job.submit", id)
	submit, ok := ra.End(nil)
	j := &Job{
		client: c,
		ID:     id,
		Name:   name,
		JMNode: jmNode,
		req:    req,
		trace:  ra.Context(),
		inbox:  msg.NewMailbox[*msg.Message](),
		events: msg.NewMailbox[Event](),
		done:   make(chan struct{}),
	}
	j.keep(submit, ok)
	c.mu.Lock()
	c.jobs[j.ID] = j
	c.mu.Unlock()
	c.logf("job %s named on %s", j.ID, jmNode)
	return j
}

func replyError(op string, reply *msg.Message) error {
	var ev protocol.JobEvent
	if err := protocol.Decode(reply, &ev); err == nil && ev.Err != "" {
		return fmt.Errorf("api: %s: %s", op, ev.Err)
	}
	return fmt.Errorf("api: %s: request refused", op)
}

// Close detaches the client from the fabric. Jobs in flight are abandoned.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	jobs := make([]*Job, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	c.mu.Unlock()
	for _, j := range jobs {
		j.inbox.Close()
		j.events.Close()
		j.events.Drain()
	}
	return c.ep.Close()
}

// Job is a handle on one CN job hosted by a JobManager.
type Job struct {
	client *Client
	// ID is the job's id, named by the client: <client node>.<epoch>.<n>.
	ID string
	// Name is the user-assigned job name.
	Name string
	// JMNode is the hosting JobManager's node. It is re-pointed when a
	// surviving JobManager adopts the job after a manager death; calls
	// read it through manager() so in-flight handles follow the move.
	JMNode string
	// trace is the job's root trace context (zero when the submit was not
	// sampled); set once at creation, read-only after.
	trace trace.Context
	// req is the job's header, sent with its first frame; rebind lets a
	// refused first frame go to another manager (CreateJob, not
	// CreateJobOn). Both are set once at creation.
	req    protocol.JobRequirements
	rebind bool
	// openMu serializes the job's first frame: opened is set once a
	// manager accepted it, and frames after it carry no header.
	openMu sync.Mutex
	opened bool

	inbox *msg.Mailbox[*msg.Message] // user messages addressed to the client
	// events queues task lifecycle events for GetEvent, as decoded: every
	// one, in the order the JobManager relayed them, however late the
	// reader (the census in prog counts them as they arrive).
	events *msg.Mailbox[Event]

	// pushMu serializes chunked blob uploads from this handle: the
	// JobManager stages one sequential upload per (node, digest), so two
	// goroutines pushing concurrently — same digest or not — must not
	// interleave their chunk sequences.
	pushMu sync.Mutex

	mu      sync.Mutex
	started bool
	// spans are the job's finished client-side spans, shipped by Start;
	// one that ends after Start is dropped.
	spans    []trace.Span
	finished bool
	released bool
	result   *Result
	done     chan struct{}
	prog     Progress
	// ts is the handle's attachment to the job's tuple space at the
	// manager node it was built for (see tsWire); every Space of the job
	// shares it, and with it the Out window.
	ts *protocol.TSWire
}

// Progress counts task lifecycle events as observed by the client — the
// cheap, client-local complement to the JobManager's schedule census.
type Progress struct {
	// Tasks is how many tasks were successfully created on the job.
	Tasks int `json:"tasks"`
	// Started/Completed/Failed count the respective lifecycle events. A
	// recovered task restarts, so Started can exceed Tasks on jobs that
	// survived node failures.
	Started   int `json:"started"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Retried counts TASK_RETRIED events: re-placements after a node
	// death, a failed dispatch, or straggler speculation.
	Retried int `json:"retried"`
}

// Result is a job's terminal status.
type Result struct {
	JobID    string
	Failed   bool
	Err      string
	TaskErrs map[string]string
}

// Event is one task lifecycle notification.
type Event struct {
	Kind msg.Kind
	Task string
	Node string
	Err  string
	// Attempt is the task's re-placement count when the event fired (0 for
	// the original placement).
	Attempt int
	// Speculative marks a TASK_RETRIED raised by straggler speculation
	// rather than failure recovery.
	Speculative bool
}

// Manager returns the node currently hosting the job's JobManager — the
// original host, or the adopting survivor after a failover.
func (j *Job) Manager() string { return j.manager() }

// manager returns the node currently hosting the job's JobManager.
func (j *Job) manager() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.JMNode
}

// setManager re-points the handle at an adopting JobManager.
func (j *Job) setManager(node string) {
	j.mu.Lock()
	j.JMNode = node
	j.mu.Unlock()
}

// CreateTask registers a single task with the job; ar carries the task's
// archive (may be nil when the class is pre-deployed on all nodes). It is
// a one-element CreateTasks.
func (j *Job) CreateTask(spec *task.Spec, ar *archive.Archive) error {
	var archives map[string]*archive.Archive
	if ar != nil {
		if spec.Archive == "" {
			spec.Archive = ar.Name
		}
		// Key by the spec's archive name: the explicitly passed archive
		// always ships with this task, even when spec.Archive was preset
		// to a name other than ar.Name.
		archives = map[string]*archive.Archive{spec.Archive: ar}
	}
	_, err := j.CreateTasks([]*task.Spec{spec}, archives)
	return err
}

// CreateTasks registers a whole task set with the job in one round trip —
// "Create Tasks for the Job" as a batch. The JobManager places the entire
// set in one solicitation round and distributes archives by digest, so N
// tasks sharing an archive cost one blob transfer per chosen node instead
// of N uploads.
//
// archives maps archive file names (each spec's Archive field) to built
// archives; specs whose archive name is absent run against pre-deployed
// classes. The result maps task name -> executing node.
func (j *Job) CreateTasks(specs []*task.Spec, archives map[string]*archive.Archive) (map[string]string, error) {
	return j.createTasks(specs, archives, false)
}

// Submit is CreateTasks and Start in one round trip: the job's whole task
// set, and with it the start, ride one CREATE_TASKS frame — with a job that
// CreateJob just named, the only frame the client sends to admit it. The
// tasks ready at the start run the moment their assignments land. A refused
// Submit of a job's first frame leaves nothing on the manager.
func (j *Job) Submit(specs []*task.Spec, archives map[string]*archive.Archive) (map[string]string, error) {
	return j.createTasks(specs, archives, true)
}

func (j *Job) createTasks(specs []*task.Spec, archives map[string]*archive.Archive, start bool) (map[string]string, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("api: create tasks: empty task set")
	}
	req := protocol.CreateTasksReq{
		JobID: j.ID,
		Tasks: make([]protocol.TaskCreate, 0, len(specs)),
	}
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("api: create tasks: %w", err)
		}
		item := protocol.TaskCreate{Spec: spec}
		if ar := archives[spec.Archive]; ar != nil {
			digest := ar.Digest()
			item.Archive = protocol.ArchiveRef{Name: ar.Name, Digest: digest}
			if req.Blobs == nil {
				req.Blobs = make(map[string][]byte)
			}
			if _, dup := req.Blobs[digest]; !dup {
				req.Blobs[digest] = ar.Bytes()
			}
		}
		req.Tasks = append(req.Tasks, item)
	}
	// Large archives never ride inside the create-tasks message: they are
	// pushed to the JobManager chunk by chunk first (protocol.PushBlob;
	// digest-verified on arrival), and the batch then carries content-addressed references
	// only, so no single frame approaches the transport limit. The budget
	// is aggregate: many small archives that together would overflow a
	// frame are chunk-streamed too (digests iterated in sorted order so
	// the inline/push split is deterministic). A push needs the job on the
	// manager, so a job's first push follows a header-only frame.
	digests := make([]string, 0, len(req.Blobs))
	for digest := range req.Blobs {
		digests = append(digests, digest)
	}
	sort.Strings(digests)
	inlined := 0
	for _, digest := range digests {
		raw := req.Blobs[digest]
		if len(raw) <= protocol.MaxInlineBlob && inlined+len(raw) <= protocol.MaxInlinePerMessage {
			inlined += len(raw)
			continue
		}
		if _, err := j.call(nil, "create job"); err != nil {
			return nil, err
		}
		j.pushMu.Lock()
		err := protocol.PushBlob(context.Background(), j.client.caller.CallInto,
			msg.Address{Node: j.client.node, Job: j.ID, Task: protocol.ClientTaskName},
			msg.Address{Node: j.manager(), Job: j.ID}, digest, raw)
		j.pushMu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("api: create tasks: upload archive %.12s…: %w", digest, err)
		}
		delete(req.Blobs, digest)
	}
	if start {
		spans, err := j.begin()
		if err != nil {
			return nil, err
		}
		req.Start, req.Spans = true, spans
	}
	// Each task reports its start and its end: room for them up front.
	j.events.Grow(2 * len(specs))
	op := fmt.Sprintf("create %d tasks", len(specs))
	ca := j.client.opts.Tracer.StartSpan(j.trace, "job.create_tasks").SetJob(j.ID)
	resp, err := j.call(&req, op)
	j.keep(ca.End(err))
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.prog.Tasks += len(specs)
	j.mu.Unlock()
	return resp.Placements, nil
}

// call sends one CREATE_TASKS — a nil req only opens the job — and decodes
// its acceptance. The job's first frame carries the job's header. When the
// manager refuses it or cannot be reached, and the job came from CreateJob,
// the client forgets that manager, runs one discovery round and sends the
// frame once more, to the manager it picks. A first frame that timed out is
// not sent again: the manager may hold the job.
func (j *Job) call(req *protocol.CreateTasksReq, op string) (*protocol.CreateTasksResp, error) {
	j.openMu.Lock()
	if j.opened {
		j.openMu.Unlock()
		if req == nil {
			return nil, nil
		}
		return j.callOnce(req, op)
	}
	defer j.openMu.Unlock()
	if req == nil {
		req = &protocol.CreateTasksReq{JobID: j.ID}
	}
	c := j.client
	req.ClientNode, req.Name, req.Req = c.node, j.Name, j.req
	resp, err := j.callOnce(req, op)
	if err != nil && j.rebind && !errors.Is(err, context.DeadlineExceeded) {
		c.mu.Lock()
		if c.manager == j.manager() {
			c.manager = ""
		}
		c.mu.Unlock()
		node, serr := c.solicit(j.req)
		if serr != nil {
			return nil, fmt.Errorf("%w (and no other JobManager: %w)", err, serr)
		}
		j.setManager(node)
		resp, err = j.callOnce(req, op)
	}
	if err == nil {
		j.opened = true
		c.mu.Lock()
		c.manager = j.manager()
		c.mu.Unlock()
		c.logf("job %s created on %s", j.ID, j.manager())
	}
	return resp, err
}

// callOnce sends one CREATE_TASKS to the job's manager.
func (j *Job) callOnce(req *protocol.CreateTasksReq, op string) (*protocol.CreateTasksResp, error) {
	jmNode := j.manager()
	cm := protocol.Body(msg.KindCreateTasks,
		msg.Address{Node: j.client.node, Job: j.ID, Task: protocol.ClientTaskName},
		msg.Address{Node: jmNode, Job: j.ID},
		*req)
	cm.Trace = j.trace
	reply, err := j.client.caller.CallInto(context.Background(), jmNode, cm, nil, j.client.opts.CallTimeout)
	if err != nil {
		return nil, fmt.Errorf("api: %s of job %s on %s: %w", op, j.ID, jmNode, err)
	}
	if reply.Kind == msg.KindJobFailed {
		return nil, replyError(op, reply)
	}
	var resp protocol.CreateTasksResp
	if err := protocol.Decode(reply, &resp); err != nil {
		return nil, fmt.Errorf("api: %s: %w", op, err)
	}
	return &resp, nil
}

// begin marks the job started and hands over the client-side spans that
// ride the starting frame.
func (j *Job) begin() ([]trace.Span, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started {
		return nil, fmt.Errorf("api: job %s already started", j.ID)
	}
	j.started = true
	spans := j.spans
	j.spans = nil
	return spans, nil
}

// keep adds a finished client-side span of the job to what Start ships.
func (j *Job) keep(sp trace.Span, ok bool) {
	if !ok {
		return
	}
	j.mu.Lock()
	if !j.started && len(j.spans) < trace.MaxJobSpans {
		j.spans = append(j.spans, sp)
	}
	j.mu.Unlock()
}

// Progress returns the client-observed lifecycle census for the job.
func (j *Job) Progress() Progress {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.prog
}

// Start begins execution: the whole job runs in dependency order. It is a
// CREATE_TASKS frame with the Start flag and no tasks; the client-side spans
// of the job's trace (submit, task creation) ride it to the JobManager's
// timeline, so the client never needs scraping.
func (j *Job) Start() error {
	spans, err := j.begin()
	if err != nil {
		return err
	}
	req := protocol.CreateTasksReq{JobID: j.ID, Start: true, Spans: spans}
	_, err = j.call(&req, "start job")
	return err
}

// recordEvents applies a relayed batch of events that happened on node:
// task and retry labels are counted and queued, and a job label finishes
// the job.
func (j *Job) recordEvents(node string, events []protocol.TaskEventItem) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case msg.KindTaskStarted:
			j.prog.Started++
		case msg.KindTaskCompleted:
			j.prog.Completed++
		case msg.KindTaskFailed:
			j.prog.Failed++
		case msg.KindTaskRetried:
			j.prog.Retried++
		case msg.KindJobCompleted, msg.KindJobFailed:
			j.finishLocked(&Result{JobID: j.ID, Failed: ev.Kind == msg.KindJobFailed, Err: ev.Err, TaskErrs: ev.TaskErrs})
			continue
		}
		// A released handle's closed queue refuses the event, which the
		// census has counted already.
		_ = j.events.Put(Event{Kind: ev.Kind, Task: ev.Task, Node: node, Err: ev.Err,
			Attempt: ev.Attempt, Speculative: ev.Speculative})
	}
}

// finishLocked records the job's end: the inbox closes — GetMessage
// returns what it holds, then ErrJobFinished — and waiters are released.
// j.mu must be held.
func (j *Job) finishLocked(res *Result) {
	if j.finished {
		return
	}
	j.finished = true
	j.result = res
	j.inbox.Close()
	close(j.done)
}

// Release ends the client's interest in the job: the handle leaves the
// client's routing table — frames that still arrive for the job are
// dropped — and its queued messages and events are discarded. Call it once
// the job's results have been read; a long-lived Client that never
// releases keeps every job it ever ran. Wait, Progress and the identity
// accessors stay readable. Release is idempotent.
func (j *Job) Release() {
	c := j.client
	c.mu.Lock()
	if c.jobs[j.ID] == j {
		delete(c.jobs, j.ID)
	}
	c.mu.Unlock()
	j.mu.Lock()
	j.released = true
	j.mu.Unlock()
	j.inbox.Close()
	j.inbox.Drain()
	j.events.Close()
	j.events.Drain()
}

// Done returns a channel closed once the job reaches a terminal state.
// Every user message a task sent before it ended is queued by then: the
// job's end is the last frame of the job's stream, which carries the
// messages and the events in the order the JobManager relayed them. The
// exception is a task the JobManager itself gave up on — its node died, or
// its retries ran out — whose messages still on the way may be dropped.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job reaches a terminal state or ctx is done.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.result, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("api: wait job %s: %w", j.ID, ctx.Err())
	}
}

// Run is Start followed by Wait.
func (j *Job) Run(ctx context.Context) (*Result, error) {
	if err := j.Start(); err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// SendMessage delivers a user payload to a task ("Send Messages to Tasks").
func (j *Job) SendMessage(toTask string, data []byte) error {
	j.mu.Lock()
	finished := j.finished
	j.mu.Unlock()
	if finished {
		return ErrJobFinished
	}
	p := protocol.UserPayload{
		JobID:    j.ID,
		FromTask: protocol.ClientTaskName,
		ToTask:   toTask,
		Data:     data,
	}
	jmNode := j.manager()
	m := protocol.Body(msg.KindUser,
		msg.Address{Node: j.client.node, Job: j.ID, Task: protocol.ClientTaskName},
		msg.Address{Node: jmNode, Job: j.ID, Task: toTask},
		p)
	if err := j.client.ep.Send(jmNode, m); err != nil {
		return fmt.Errorf("api: send to %s: %w", toTask, err)
	}
	return nil
}

// GetMessage blocks for the next user message from any task ("Get Messages
// from Tasks"), returning the sending task's name and the payload. Messages
// from one task come in the order it sent them. Nothing is dropped while
// the handle is open, however far the reader falls behind: the handle's
// memory is the messages not yet read, until Release. Once the job has
// ended and its messages have been read it returns ErrJobFinished, so a
// loop over GetMessage ends with the job. A message from a task the
// JobManager itself gave up on (see Done) may be missing.
func (j *Job) GetMessage(ctx context.Context) (string, []byte, error) {
	m, err := j.inbox.GetContext(ctx)
	if err != nil {
		return "", nil, j.getError(err)
	}
	return decodeUser(m)
}

// TryGetMessage is GetMessage without blocking; ok is false when no message
// is queued. Like GetMessage, it drops nothing while the handle is open.
func (j *Job) TryGetMessage() (from string, data []byte, ok bool, err error) {
	m, err := j.inbox.TryGet()
	if errors.Is(err, msg.ErrEmpty) {
		return "", nil, false, nil
	}
	if err != nil {
		return "", nil, false, j.getError(err)
	}
	from, data, err = decodeUser(m)
	return from, data, err == nil, err
}

// getError names why the inbox gave nothing: ErrJobFinished once the job's
// end closed it and its messages were read, else err — a released handle's
// inbox is closed with its messages discarded.
func (j *Job) getError(err error) error {
	j.mu.Lock()
	finished := j.finished && !j.released
	j.mu.Unlock()
	if finished && errors.Is(err, msg.ErrClosed) {
		return ErrJobFinished
	}
	return fmt.Errorf("api: get message: %w", err)
}

// decodeUser reads a user message's sender and payload.
func decodeUser(m *msg.Message) (string, []byte, error) {
	var p protocol.UserPayload
	if err := protocol.Decode(m, &p); err != nil {
		return "", nil, fmt.Errorf("api: get message: %w", err)
	}
	return p.FromTask, p.Data, nil
}

// GetEvent blocks for the next task lifecycle event, in the order the
// JobManager relayed them. It fails with msg.ErrClosed once the handle is
// released or its client closed.
func (j *Job) GetEvent(ctx context.Context) (*Event, error) {
	ev, err := j.events.GetContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("api: get event: %w", err)
	}
	return &ev, nil
}

// over reports whether the handle's job ended or the handle was released.
func (j *Job) over() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished || j.released
}

// Cancel abandons the job. A job that never sent its first frame exists
// only here, and ends here.
func (j *Job) Cancel(reason string) error {
	j.openMu.Lock()
	opened := j.opened
	j.openMu.Unlock()
	if !opened {
		j.mu.Lock()
		j.finishLocked(&Result{JobID: j.ID, Failed: true, Err: "cancelled: " + reason})
		j.mu.Unlock()
		return nil
	}
	jmNode := j.manager()
	cm := protocol.Body(msg.KindCancelJob,
		msg.Address{Node: j.client.node, Job: j.ID, Task: protocol.ClientTaskName},
		msg.Address{Node: jmNode, Job: j.ID},
		protocol.CancelJobReq{JobID: j.ID, Reason: reason})
	reply, err := j.client.caller.CallInto(context.Background(), jmNode, cm, nil, j.client.opts.CallTimeout)
	if err != nil {
		return fmt.Errorf("api: cancel job %s: %w", j.ID, err)
	}
	if reply.Kind == msg.KindJobFailed {
		return replyError("cancel job", reply)
	}
	j.mu.Lock()
	j.finishLocked(&Result{JobID: j.ID, Failed: true, Err: "cancelled: " + reason})
	j.mu.Unlock()
	return nil
}
