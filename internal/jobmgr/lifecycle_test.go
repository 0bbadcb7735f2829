package jobmgr_test

// The job lifecycle as invariants: what a JobManager holds while a job
// runs, what is left once it has ended, and what the remains still answer.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cn/internal/api"
	"cn/internal/cluster"
	"cn/internal/config"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/server"
	"cn/internal/task"
	"cn/internal/transport"
	"cn/internal/tuplespace"
)

func lifecycleRegistry() *task.Registry {
	r := task.NewRegistry()
	r.MustRegister("life.Noop", func() task.Task {
		return task.Func(func(task.Context) error { return nil })
	})
	r.MustRegister("life.Fail", func() task.Task {
		return task.Func(func(task.Context) error { return errors.New("boom") })
	})
	// life.Gate holds its job open until someone puts {"go"} in the space.
	r.MustRegister("life.Gate", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			_, err := ctx.In(tuplespace.Template{"go"})
			return err
		})
	})
	return r
}

func spec(name, class string) *task.Spec {
	return &task.Spec{Name: name, Class: class,
		Req: task.Requirements{MemoryMB: 1, RunModel: task.RunAsThreadInTM}}
}

// startNode boots one CN server, "n1", on its own ideal in-memory fabric.
func startNode(t *testing.T, cfg config.Config) (*server.Server, *transport.MemNetwork) {
	t.Helper()
	net := transport.NewIdealNetwork()
	t.Cleanup(func() { net.Close() })
	cfg.Registry = lifecycleRegistry()
	srv, err := server.Start(net, "n1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, net
}

func connect(t *testing.T, net transport.Network) *api.Client {
	t.Helper()
	cl, err := api.Initialize(net, api.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// runOne drives a one-task job on n1 from creation to its terminal event.
// It reports through t.Error so it can run off the test's goroutine.
func runOne(t *testing.T, cl *api.Client, created func(id string)) bool {
	j, err := cl.CreateJobOn("n1", "life", protocol.JobRequirements{})
	if err != nil {
		t.Errorf("create job: %v", err)
		return false
	}
	defer j.Release()
	if _, err := j.CreateTasks([]*task.Spec{spec("t", "life.Noop")}, nil); err != nil {
		t.Errorf("job %s: create tasks: %v", j.ID, err)
		return false
	}
	// The job exists on its manager from its first frame on.
	if created != nil {
		created(j.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := j.Run(ctx)
	if err != nil || res.Failed {
		t.Errorf("job %s: run: %v %+v", j.ID, err, res)
		return false
	}
	return true
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFinishedJobsLeaveOnlyTombstones: after 2000 jobs a manager holds no
// live record, no goroutine and about a tombstone's worth of heap per job.
// MaxJobs 4 makes the run itself the admission check: 2000 jobs pass a
// four-job cap one after another only if finished jobs stop counting the
// moment their client hears of it.
func TestFinishedJobsLeaveOnlyTombstones(t *testing.T) {
	srv, net := startNode(t, config.Config{TraceSample: -1, MaxJobs: 4})
	jm := srv.JobManager()
	cl := connect(t, net)
	for i := 0; i < 200; i++ { // lazy set-up and pools fill before the baseline
		if !runOne(t, cl, nil) {
			t.FailNow()
		}
	}
	heap0, gor0 := liveHeap(), runtime.NumGoroutine()

	const jobs = 2000
	for i := 0; i < jobs; i++ {
		if !runOne(t, cl, nil) {
			t.FailNow()
		}
		// Retirement precedes the client's notification: no polling.
		if n := jm.ActiveJobs(); n != 0 {
			t.Fatalf("ActiveJobs = %d right after job %d's terminal event", n, i)
		}
	}
	if live, retired := jm.TableSizes(); live != 0 || retired != 200+jobs {
		t.Errorf("tables hold %d live, %d retired; want 0 and %d", live, retired, 200+jobs)
	}
	// Workers exit once they have drained their closed mailbox.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > gor0+8 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > gor0+8 {
		t.Errorf("%d goroutines after %d jobs, baseline %d", n, jobs, gor0)
	}
	if grown := int64(liveHeap()) - int64(heap0); grown > jobs*1024 {
		t.Errorf("live heap grew %d B over %d finished jobs (%d B/job), want <= 1 KiB/job",
			grown, jobs, grown/jobs)
	}
}

// TestJobProgressNeverUnknownWhileJobsFinish hammers JobProgress for every
// job created so far while 500 of them finish: the record is always in one
// of the two tables.
func TestJobProgressNeverUnknownWhileJobsFinish(t *testing.T) {
	srv, net := startNode(t, config.Config{TraceSample: -1, MaxJobs: 64})
	jm := srv.JobManager()

	var mu sync.Mutex
	var ids []string
	stop := make(chan struct{})
	var hammer sync.WaitGroup
	hammer.Add(1)
	go func() {
		defer hammer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			snapshot := ids
			mu.Unlock()
			for _, id := range snapshot {
				if _, ok := jm.JobProgress(id); !ok {
					t.Errorf("JobProgress(%s): unknown", id)
					return
				}
			}
		}
	}()

	const clients, each = 4, 125
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl := connect(t, net)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ok := runOne(t, cl, func(id string) {
					mu.Lock()
					ids = append(ids[:len(ids):len(ids)], id)
					mu.Unlock()
				})
				if !ok {
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	hammer.Wait()
	for _, id := range ids {
		if p, ok := jm.JobProgress(id); !ok || p.Done != 1 || p.Total != 1 {
			t.Fatalf("JobProgress(%s) = %+v, %v; want the final census", id, p, ok)
		}
	}
}

// rawClient speaks the wire protocol directly, as the client node "c1".
type rawClient struct {
	t      *testing.T
	ep     transport.Endpoint
	caller *transport.Caller
	inbox  chan *msg.Message // everything that is not a reply
	jobs   int               // jobs opened, numbering their IDs
}

// open creates a job the way a client's first frame does, with a
// header-only CREATE_TASKS under an ID of the client's, and returns the ID.
func (c *rawClient) open(name string) string {
	c.t.Helper()
	c.jobs++
	id := fmt.Sprintf("c1.%s.%d", name, c.jobs)
	if r := c.call(msg.KindCreateTasks, id, protocol.CreateTasksReq{JobID: id, ClientNode: "c1", Name: name}); r.Kind != msg.KindTasksAccepted {
		c.t.Fatalf("create %s answered %v", id, r.Kind)
	}
	return id
}

// start sends the job's Start frame.
func (c *rawClient) start(id string) *msg.Message {
	c.t.Helper()
	return c.call(msg.KindCreateTasks, id, protocol.CreateTasksReq{JobID: id, Start: true})
}

func newRawClient(t *testing.T, net transport.Network) *rawClient {
	t.Helper()
	// Sized for every frame a test's job can send the client.
	c := &rawClient{t: t, inbox: make(chan *msg.Message, 256)}
	ready := make(chan struct{})
	ep, err := net.Attach("c1", func(m *msg.Message) {
		<-ready
		if !c.caller.Handle(m) {
			c.inbox <- m
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c.ep, c.caller = ep, transport.NewCaller(ep)
	close(ready)
	return c
}

func (c *rawClient) message(kind msg.Kind, jobID, toTask string, body any) *msg.Message {
	return protocol.Body(kind,
		msg.Address{Node: "c1", Job: jobID, Task: protocol.ClientTaskName},
		msg.Address{Node: "n1", Job: jobID, Task: toTask}, body)
}

func (c *rawClient) call(kind msg.Kind, jobID string, body any) *msg.Message {
	c.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := c.caller.Call(ctx, "n1", c.message(kind, jobID, "", body))
	if err != nil {
		c.t.Fatalf("call %v: %v", kind, err)
	}
	return reply
}

func (c *rawClient) send(kind msg.Kind, jobID, toTask string, body any) {
	c.t.Helper()
	if err := c.ep.Send("n1", c.message(kind, jobID, toTask, body)); err != nil {
		c.t.Fatalf("send %v: %v", kind, err)
	}
}

// next returns the next non-reply message of the given kind, skipping
// others, or nil when none arrives in time.
func (c *rawClient) next(kind msg.Kind, within time.Duration) *msg.Message {
	timeout := time.After(within)
	for {
		select {
		case m := <-c.inbox:
			if m.Kind == kind {
				return m
			}
		case <-timeout:
			return nil
		}
	}
}

// end returns the label that ends the job's stream — the last event of a
// TASK_EVENTS batch — or nil when none arrives in time.
func (c *rawClient) end(within time.Duration) *protocol.TaskEventItem {
	c.t.Helper()
	deadline := time.Now().Add(within)
	for {
		m := c.next(msg.KindTaskEvents, time.Until(deadline))
		if m == nil {
			return nil
		}
		batch := decode[protocol.TaskEvents](c.t, m)
		for i, ev := range batch.Events {
			if protocol.IsJobLabel(ev.Kind) {
				if i != len(batch.Events)-1 {
					c.t.Errorf("%s is event %d of %d, want the last", ev.Kind, i+1, len(batch.Events))
				}
				return &batch.Events[i]
			}
		}
	}
}

func decode[T any](t *testing.T, m *msg.Message) T {
	t.Helper()
	var v T
	if err := protocol.Decode(m, &v); err != nil {
		t.Fatalf("decode %v: %v", m.Kind, err)
	}
	return v
}

// TestRetiredJobContract: what each kind of frame gets when the job it
// names has been retired.
func TestRetiredJobContract(t *testing.T) {
	for _, traced := range []bool{false, true} {
		name := "untraced"
		sample := -1.0
		if traced {
			name, sample = "traced", 1
		}
		t.Run(name, func(t *testing.T) {
			srv, net := startNode(t, config.Config{TraceSample: sample})
			jm := srv.JobManager()
			c := newRawClient(t, net)

			id := c.open("contract")
			c.call(msg.KindCreateTasks, id, protocol.CreateTasksReq{JobID: id,
				Tasks: []protocol.TaskCreate{{Spec: spec("t", "life.Noop")}}})
			c.start(id)
			if ev := c.end(10 * time.Second); ev == nil || ev.Kind != msg.KindJobCompleted {
				t.Fatalf("job ended with %+v, want JOB_COMPLETED", ev)
			}

			if n := jm.ActiveJobs(); n != 0 {
				t.Errorf("ActiveJobs = %d after the terminal event", n)
			}
			want := func() {
				t.Helper()
				if p, ok := jm.JobProgress(id); !ok || p.Total != 1 || p.Done != 1 {
					t.Errorf("JobProgress = %+v, %v; want the final census", p, ok)
				}
			}
			want()
			spans, ok := jm.JobTrace(id)
			switch {
			case !ok:
				t.Error("JobTrace: unknown job")
			case !traced && len(spans) != 0:
				t.Errorf("untraced job's tombstone holds %d spans", len(spans))
			case traced:
				names := make([]string, len(spans))
				for i, sp := range spans {
					names[i] = sp.Name
				}
				for _, n := range []string{"jm.job", "jm.place", "jm.dispatch", "tm.exec", "jm.finish"} {
					if !strings.Contains(" "+strings.Join(names, " ")+" ", " "+n+" ") {
						t.Errorf("trace %v lacks a %s span", names, n)
					}
				}
			}

			// A tuple-space op and a data-plane resolve meet a closed space
			// and a closed broker, not an unknown job.
			ts := decode[protocol.TSOpResp](t, c.call(msg.KindTSOut, id, protocol.TSOpReq{Tuple: tuplespace.Tuple{"x", 1}}))
			if !ts.Closed || ts.Err != "" {
				t.Errorf("TS_OUT on a retired job = %+v, want Closed", ts)
			}
			loc := decode[protocol.DataLocResp](t,
				c.call(msg.KindDataResolve, id, protocol.DataResolveReq{JobID: id, Key: "k", Task: "t"}))
			if !loc.Closed || loc.Err != "" {
				t.Errorf("DATA_RESOLVE on a retired job = %+v, want Closed", loc)
			}

			// A heartbeat naming the retired job's task: still known.
			ack := decode[protocol.HeartbeatAck](t, c.call(msg.KindHeartbeat, "", protocol.Heartbeat{Node: "n1", Seq: 1,
				Beats: []protocol.TaskBeat{{JobID: id, Task: "t"}, {JobID: "n1-job999", Task: "t"}}}))
			if len(ack.UnknownJobs) != 1 || ack.UnknownJobs[0] != "n1-job999" {
				t.Errorf("UnknownJobs = %v, want only the job that never existed", ack.UnknownJobs)
			}

			// A late task event is dropped, and so is a message to the
			// client or to a sibling: the job's end was the last frame of
			// its stream.
			c.send(msg.KindTaskEvents, id, "", protocol.TaskEvents{JobID: id, Node: "n1",
				Events: []protocol.TaskEventItem{{Kind: msg.KindTaskCompleted, Task: "t"}}})
			c.send(msg.KindUser, id, "other", protocol.UserPayload{JobID: id, FromTask: "t", ToTask: "other", Data: []byte("sibling")})
			c.send(msg.KindUser, id, protocol.ClientTaskName,
				protocol.UserPayload{JobID: id, FromTask: "t", ToTask: protocol.ClientTaskName, Data: []byte("late")})
			select {
			case m := <-c.inbox:
				t.Errorf("unexpected %v after the job's end", m.Kind)
			case <-time.After(50 * time.Millisecond):
			}
			want()

			// Stale requests: a cancel is acknowledged, a start is told how
			// the job ended.
			if r := c.call(msg.KindCancelJob, id, protocol.CancelJobReq{JobID: id, Reason: "late"}); r.Kind != msg.KindPong {
				t.Errorf("cancel of a retired job answered %v", r.Kind)
			}
			r := c.start(id)
			if ev := decode[protocol.JobEvent](t, r); r.Kind != msg.KindJobFailed || !strings.Contains(ev.Err, "already finished (completed)") {
				t.Errorf("start of a retired job answered %v %q", r.Kind, ev.Err)
			}
			want()
			if live, retired := jm.TableSizes(); live != 0 || retired != 1 {
				t.Errorf("tables hold %d live, %d retired; want 0 and 1", live, retired)
			}
		})
	}
}

// lockedBuffer is a bytes.Buffer a logger may write from any goroutine.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestNodeBatchWithClientLabelDropped: the retry and job labels are the
// JobManager's own, to its client. A TASK_EVENTS batch from outside that
// carries one is dropped whole and logged: its task labels are not applied,
// the job does not end, and the client hears nothing of it.
func TestNodeBatchWithClientLabelDropped(t *testing.T) {
	var logs lockedBuffer
	srv, net := startNode(t, config.Config{TraceSample: -1, Log: slog.New(slog.NewTextHandler(&logs, nil))})
	jm := srv.JobManager()
	c := newRawClient(t, net)
	id := c.open("labels")
	c.call(msg.KindCreateTasks, id, protocol.CreateTasksReq{JobID: id,
		Tasks: []protocol.TaskCreate{{Spec: spec("t", "life.Gate")}}})
	c.start(id)
	if c.next(msg.KindTaskEvents, 10*time.Second) == nil {
		t.Fatal("t's TASK_STARTED never relayed")
	}

	batch := func(events ...protocol.TaskEventItem) protocol.TaskEvents {
		return protocol.TaskEvents{JobID: id, Node: "n1", Events: events}
	}
	completed := protocol.TaskEventItem{Kind: msg.KindTaskCompleted, Task: "t"}
	c.send(msg.KindTaskEvents, id, "", batch(completed, protocol.TaskEventItem{Kind: msg.KindJobCompleted}))
	c.send(msg.KindTaskEvents, id, "", batch(completed, protocol.TaskEventItem{Kind: msg.KindTaskRetried, Task: "t", Attempt: 1}))
	// The job's queue is FIFO: once a batch sent after them is relayed, the
	// two above have been handled.
	c.send(msg.KindTaskEvents, id, "", batch(protocol.TaskEventItem{Kind: msg.KindTaskStarted, Task: "t"}))
	m := c.next(msg.KindTaskEvents, 10*time.Second)
	if m == nil {
		t.Fatal("the valid batch was never relayed")
	}
	if got := decode[protocol.TaskEvents](t, m).Events; len(got) != 1 || got[0].Kind != msg.KindTaskStarted {
		t.Errorf("relayed %+v, want the one TASK_STARTED", got)
	}
	if p, ok := jm.JobProgress(id); !ok || p.Done != 0 || jm.ActiveJobs() != 1 {
		t.Errorf("census %+v, %v, ActiveJobs %d: a dropped batch was applied", p, ok, jm.ActiveJobs())
	}
	for _, label := range []string{"JOB_COMPLETED", "TASK_RETRIED"} {
		if !strings.Contains(logs.String(), "label="+label) {
			t.Errorf("no log of the batch labelled %s:\n%s", label, logs.String())
		}
	}

	c.call(msg.KindTSOut, id, protocol.TSOpReq{Tuple: tuplespace.Tuple{"go"}})
	if ev := c.end(10 * time.Second); ev == nil || ev.Kind != msg.KindJobCompleted {
		t.Fatalf("job ended with %+v, want JOB_COMPLETED", ev)
	}
}

// TestJobEndAfterAFullBatchIsCut: the batch that ends a job may already
// hold protocol.TaskEventsMax events when the job's end joins it. The relay
// is cut like any batch, so the client decodes every frame and the job's
// end arrives, last.
func TestJobEndAfterAFullBatchIsCut(t *testing.T) {
	_, net := startNode(t, config.Config{TraceSample: -1})
	c := newRawClient(t, net)
	id := c.open("full")
	c.call(msg.KindCreateTasks, id, protocol.CreateTasksReq{JobID: id,
		Tasks: []protocol.TaskCreate{{Spec: spec("t", "life.Gate")}}})
	c.start(id)
	if c.next(msg.KindTaskEvents, 10*time.Second) == nil {
		t.Fatal("t's TASK_STARTED never relayed")
	}
	// A full batch, every event of it relayed, the last one ending the job.
	events := make([]protocol.TaskEventItem, protocol.TaskEventsMax)
	for i := range events {
		events[i] = protocol.TaskEventItem{Kind: msg.KindTaskStarted, Task: "t"}
	}
	events[len(events)-1].Kind = msg.KindTaskCompleted
	c.send(msg.KindTaskEvents, id, "", protocol.TaskEvents{JobID: id, Node: "n1", Events: events})
	if ev := c.end(10 * time.Second); ev == nil || ev.Kind != msg.KindJobCompleted {
		t.Fatalf("job ended with %+v, want JOB_COMPLETED", ev)
	}
}

// TestEveryExitRetires: a failed, a cancelled and an abandoned job end in
// the same place as a completed one, and their tombstones expire alike.
func TestEveryExitRetires(t *testing.T) {
	srv, net := startNode(t, config.Config{TraceSample: -1, TombstoneTTL: 400 * time.Millisecond})
	jm := srv.JobManager()
	c := newRawClient(t, net)
	create := func(class string) string {
		id := c.open("exit")
		c.call(msg.KindCreateTasks, id, protocol.CreateTasksReq{JobID: id,
			Tasks: []protocol.TaskCreate{{Spec: spec("t", class)}}})
		return id
	}

	failed := create("life.Fail")
	c.start(failed)
	if ev := c.end(10 * time.Second); ev == nil || ev.Kind != msg.KindJobFailed || !strings.Contains(ev.TaskErrs["t"], "boom") {
		t.Fatalf("job ended with %+v, want JOB_FAILED with t's error", ev)
	}
	if p, ok := jm.JobProgress(failed); !ok || p.Failed != 1 || jm.ActiveJobs() != 0 {
		t.Errorf("failed job's census = %+v, %v; ActiveJobs = %d", p, ok, jm.ActiveJobs())
	}
	// The refusal of a stale request repeats how the job ended.
	again := decode[protocol.JobEvent](t, c.start(failed))
	if !strings.Contains(again.Err, "already finished (failed)") || !strings.Contains(again.TaskErrs["t"], "boom") {
		t.Errorf("start of a failed, retired job answered %+v", again)
	}

	cancelled := create("life.Gate")
	c.start(cancelled)
	if r := c.call(msg.KindCancelJob, cancelled, protocol.CancelJobReq{JobID: cancelled, Reason: "test"}); r.Kind != msg.KindPong {
		t.Fatalf("cancel answered %v", r.Kind)
	}
	// Retired before the acknowledgement.
	if n := jm.ActiveJobs(); n != 0 {
		t.Errorf("ActiveJobs = %d after the cancel was acknowledged", n)
	}
	if p, ok := jm.JobProgress(cancelled); !ok || p.Cancelled != 1 {
		t.Errorf("cancelled job's census = %+v, %v", p, ok)
	}

	abandoned := create("life.Noop") // never started
	deadline := time.Now().Add(5 * time.Second)
	for jm.ActiveJobs() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := jm.ActiveJobs(); n != 0 {
		t.Fatalf("abandoned job still live: ActiveJobs = %d", n)
	}
	if free := srv.TaskManager().FreeMemoryMB(); free <= 0 {
		t.Errorf("free memory %d MB", free)
	}
	for _, id := range []string{failed, cancelled, abandoned} {
		for time.Now().Before(deadline) {
			if _, ok := jm.JobProgress(id); !ok {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if _, ok := jm.JobProgress(id); ok {
			t.Errorf("tombstone of %s never expired", id)
		}
	}
	if live, retired := jm.TableSizes(); live != 0 || retired != 0 {
		t.Errorf("tables hold %d live, %d retired after expiry", live, retired)
	}
}

// TestNoObituaryForAJobNobodyKnew: a job that finishes before a checkpoint
// round ever snapshot it sends its peers nothing; a job they hold an image
// of sends exactly one terminal record, at retirement, and they drop it.
func TestNoObituaryForAJobNobodyKnew(t *testing.T) {
	c, err := cluster.Start(cluster.Config{
		Nodes:           4,
		MemoryMB:        64000,
		MaxJobs:         64,
		Registry:        lifecycleRegistry(),
		CheckpointEvery: time.Hour, // rounds happen when this test says so
		TraceSample:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	round := func() {
		for _, node := range c.Nodes() {
			c.Server(node).JobManager().CheckpointNow()
		}
	}

	// A member of the JobManager group that only listens.
	var mu sync.Mutex
	var heard []protocol.JMCheckpoint
	spy, err := c.Network().Attach("spy", func(m *msg.Message) {
		if m.Kind != msg.KindJMCheckpoint {
			return
		}
		var ck protocol.JMCheckpoint
		if err := protocol.Decode(m, &ck); err != nil {
			t.Errorf("decode checkpoint: %v", err)
			return
		}
		ck.Data = nil
		mu.Lock()
		heard = append(heard, ck)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer spy.Close()
	if err := spy.Join(protocol.GroupJobManagers); err != nil {
		t.Fatal(err)
	}

	cl := connect(t, c.Network())
	for i := 0; i < 200; i++ {
		j, err := cl.CreateJobOn(c.Nodes()[i%4], "quick", protocol.JobRequirements{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.CreateTasks([]*task.Spec{spec("t", "life.Noop")}, nil); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := j.Run(ctx)
		cancel()
		if err != nil || res.Failed {
			t.Fatalf("job %s: %v %+v", j.ID, err, res)
		}
		j.Release()
	}
	round() // 200 finished jobs, none live: nothing to say

	j, err := cl.CreateJobOn("node1", "replicated", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Release()
	if _, err := j.CreateTasks([]*task.Spec{spec("t", "life.Gate")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	round()
	peers := []string{"node2", "node3", "node4"}
	held := func(want int) bool {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			ok := true
			for _, node := range peers {
				if c.Server(node).JobManager().PeerCheckpoints() != want {
					ok = false
				}
			}
			if ok {
				return true
			}
			time.Sleep(2 * time.Millisecond)
		}
		return false
	}
	if !held(1) {
		t.Fatal("peers never stored the live job's image")
	}
	if err := j.Space().Out(tuplespace.Tuple{"go"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if res, err := j.Wait(ctx); err != nil || res.Failed {
		t.Fatalf("replicated job: %v %+v", err, res)
	}
	if !held(0) {
		t.Error("a peer still holds the finished job's image")
	}
	round() // and a later round has nothing to add

	// Each sender's frames reach the spy in order, so anything the 200
	// quick jobs had multicast would precede these two.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(heard)
		mu.Unlock()
		if n >= 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []protocol.JMCheckpoint{
		{Origin: "node1", JobID: j.ID, Seq: 1},
		{Origin: "node1", JobID: j.ID, Seq: 2, Done: true},
	}
	if !reflect.DeepEqual(heard, want) {
		t.Errorf("the JobManager group heard %+v, want %+v", heard, want)
	}
	if n := c.WireStats().ByKind["JM_CHECKPOINT"]; n != 2*5 {
		t.Errorf("%d JM_CHECKPOINT frames on the fabric, want 2 multicasts to 5 members", n)
	}
}
