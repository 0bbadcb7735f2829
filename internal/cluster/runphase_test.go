package cluster_test

// The run phase end to end: what a job's start, its tasks' lifecycle events
// and its end cost on the fabric, and what the client has seen of them by
// the time it hears the job is over.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/api"
	"cn/internal/cluster"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/tuplespace"
)

// fabrics are the three links every run-phase contract is checked on.
func fabrics() map[string]cluster.Config {
	return map[string]cluster.Config{
		"mem":         {},
		"mem-latency": {Latency: 200 * time.Microsecond, Jitter: 400 * time.Microsecond, Seed: 3},
		"tcp":         {Transport: cluster.TransportTCP},
	}
}

// A run.Chatty task sends its client chattyMessages messages of
// chattyBytes: enough that its node's link still holds some of them when
// the task ends.
const chattyMessages, chattyBytes = 32, 16 << 10

// A run.Flood task sends its client floodMessages messages, each its number,
// and returns: more than any reader keeps up with while the job runs.
const floodMessages = 2000

// A run.Pour task sends the task "late" pourMessages messages, each its
// number; a run.LateReader, as "late", reads them only after lateDelay, so
// they queue at its TaskManager meanwhile. pourGoroutines is
// runtime.NumGoroutine before the first send, lateGoroutines the most seen
// during the delay.
const pourMessages, lateDelay = 4000, 300 * time.Millisecond

var pourGoroutines, lateGoroutines atomic.Int64

func noopRegistry() *task.Registry {
	r := task.NewRegistry()
	r.MustRegister("run.Noop", func() task.Task {
		return task.Func(func(task.Context) error { return nil })
	})
	// run.Chatty sends its client chattyMessages numbered messages and
	// returns the moment the last one is sent.
	r.MustRegister("run.Chatty", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			for i := 0; i < chattyMessages; i++ {
				data := make([]byte, chattyBytes)
				copy(data, fmt.Sprintf("%s %d;", ctx.TaskName(), i))
				if err := ctx.SendClient(data); err != nil {
					return err
				}
			}
			return nil
		})
	})
	r.MustRegister("run.Flood", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			for i := 0; i < floodMessages; i++ {
				if err := ctx.SendClient([]byte(strconv.Itoa(i))); err != nil {
					return err
				}
			}
			return nil
		})
	})
	r.MustRegister("run.Pour", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			pourGoroutines.Store(int64(runtime.NumGoroutine()))
			for i := 0; i < pourMessages; i++ {
				if err := ctx.Send("late", []byte(strconv.Itoa(i))); err != nil {
					return err
				}
			}
			return nil
		})
	})
	r.MustRegister("run.LateReader", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			var peak int
			for end := time.Now().Add(lateDelay); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
				peak = max(peak, runtime.NumGoroutine())
			}
			lateGoroutines.Store(int64(peak))
			for i := 0; i < pourMessages; i++ {
				from, data, err := ctx.Recv()
				if err != nil {
					return fmt.Errorf("message %d: %w", i, err)
				}
				if from != "pour" || string(data) != strconv.Itoa(i) {
					return fmt.Errorf("message %d: read %q from %q", i, data, from)
				}
			}
			return nil
		})
	})
	return r
}

func noops(n, memMB int) []*task.Spec {
	specs := make([]*task.Spec, n)
	for i := range specs {
		specs[i] = &task.Spec{Name: fmt.Sprintf("t%03d", i), Class: "run.Noop",
			Req: task.Requirements{MemoryMB: memMB, RunModel: task.RunAsThreadInTM}}
	}
	return specs
}

// startQuiet boots a cluster that sends nothing on a timer — no heartbeats,
// no checkpoints — so every frame counted belongs to the job under test,
// and attaches a client.
func startQuiet(t *testing.T, cfg cluster.Config, nodes, memMB int) (*cluster.Cluster, *api.Client) {
	t.Helper()
	cfg.Nodes, cfg.MemoryMB, cfg.Registry = nodes, memMB, noopRegistry()
	cfg.HeartbeatInterval, cfg.TraceSample = -1, -1
	c, err := cluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return c, cl
}

// drainEvents reads lifecycle events off the handle — n of them, or with
// n < 0 until ctx ends — and fails the test if a task's terminal event
// comes before its TASK_STARTED. It returns the events read per label.
func drainEvents(t *testing.T, ctx context.Context, j *api.Job, n int) map[msg.Kind]int {
	t.Helper()
	seen := make(map[msg.Kind]int)
	started := make(map[string]bool)
	for i := 0; i != n; i++ {
		ev, err := j.GetEvent(ctx)
		if err != nil {
			if n >= 0 {
				t.Errorf("event %d of %d: %v", i+1, n, err)
			}
			break
		}
		seen[ev.Kind]++
		switch ev.Kind {
		case msg.KindTaskStarted:
			started[ev.Task] = true
		case msg.KindTaskCompleted, msg.KindTaskFailed:
			if !started[ev.Task] {
				t.Errorf("%s of %s (on %s) before its TASK_STARTED", ev.Kind, ev.Task, ev.Node)
			}
		}
		if ev.Node == "" {
			t.Errorf("%s of %s names no node", ev.Kind, ev.Task)
		}
	}
	return seen
}

// TestFanoutRunPhaseCostsAFramePerNode: 32 no-op tasks on four nodes. The
// start sends exactly one EXEC_TASK per hosting node; no TASK_STARTED,
// TASK_COMPLETED, TASK_FAILED, TASK_RETRIED or JOB_COMPLETED ever travels
// as a frame; the client has counted all 32 + 32 events when Wait returns
// and reads them in order, each task's STARTED before its COMPLETED; and
// the whole job — create, place, assign, start, events, end — fits 70
// frames, where a frame per task and event took over 180.
func TestFanoutRunPhaseCostsAFramePerNode(t *testing.T) {
	const tasks, nodes = 32, 4
	for name, cfg := range fabrics() {
		t.Run(name, func(t *testing.T) {
			c, cl := startQuiet(t, cfg, nodes, 8000) // eight 1000 MB tasks fill a node
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			before := c.WireStats().Sent
			j, err := cl.CreateJobOn("node1", "fanout", protocol.JobRequirements{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Release()
			placed, err := j.CreateTasks(noops(tasks, 1000), nil)
			if err != nil {
				t.Fatal(err)
			}
			if hosts := len(nodeSet(placed)); hosts != nodes {
				t.Fatalf("tasks placed on %d nodes, want %d", hosts, nodes)
			}
			if res, err := j.Run(ctx); err != nil || res.Failed {
				t.Fatalf("run: %v %+v", err, res)
			}
			if p := j.Progress(); p.Started != tasks || p.Completed != tasks || p.Failed != 0 {
				t.Errorf("client census %+v the moment Wait returned, want %d started and completed", p, tasks)
			}
			if seen := drainEvents(t, ctx, j, 2*tasks); seen[msg.KindTaskStarted] != tasks || seen[msg.KindTaskCompleted] != tasks {
				t.Errorf("events read: %v, want %d started and %d completed", seen, tasks, tasks)
			}
			// A TCP writer counts a frame just after writing it, which may
			// trail the frame's effect: wait for the least that must show.
			counted := func() bool {
				kinds := c.WireStats().ByKind
				return kinds[msg.KindExecTask.String()] >= nodes && kinds[msg.KindTaskEvents.String()] >= 2*nodes
			}
			for deadline := time.Now().Add(5 * time.Second); !counted() && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			wire := c.WireStats()
			if n := wire.ByKind[msg.KindExecTask.String()]; n != nodes {
				t.Errorf("%d EXEC_TASK frames, want one per hosting node (%d)", n, nodes)
			}
			for _, label := range []msg.Kind{msg.KindTaskStarted, msg.KindTaskCompleted, msg.KindTaskFailed,
				msg.KindTaskRetried, msg.KindJobCompleted} {
				if n := wire.ByKind[label.String()]; n != 0 {
					t.Errorf("%d bare %s frames", n, label)
				}
			}
			if n := wire.ByKind[msg.KindTaskEvents.String()]; n < 2*nodes {
				t.Errorf("%d TASK_EVENTS frames, want at least one per node and hop (%d)", n, 2*nodes)
			}
			if n := wire.Sent - before; n > 70 {
				t.Errorf("the job took %d frames, want <= 70: %v", n, wire.ByKind)
			}
		})
	}
}

// TestTCPNodeNeverDialsItself: on TCP, the frames between a node's own
// JobManager and TaskManager — assignment, exec list, lifecycle events of
// the tasks it hosts — are handed over in-process. A job with tasks on its
// manager's node completes and WireStats counts Local frames. (That no
// connection to self is ever opened is pinned inside the transport package,
// TestTCPSelfNeverDials.)
func TestTCPNodeNeverDialsItself(t *testing.T) {
	const tasks, nodes = 16, 2
	c, cl := startQuiet(t, cluster.Config{Transport: cluster.TransportTCP}, nodes, 8000)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := cl.CreateJobOn("node1", "local", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Release()
	placed, err := j.CreateTasks(noops(tasks, 1000), nil) // eight to a node
	if err != nil {
		t.Fatal(err)
	}
	local := 0
	for _, node := range placed {
		if node == "node1" {
			local++
		}
	}
	if local == 0 {
		t.Fatalf("no task placed on the JobManager's node: %v", placed)
	}
	if res, err := j.Run(ctx); err != nil || res.Failed {
		t.Fatalf("run: %v %+v", err, res)
	}
	if w := c.WireStats(); w.Local == 0 || w.Local >= w.Sent {
		t.Errorf("%d of %d frames handed over in-process, want some and not all", w.Local, w.Sent)
	}
}

// TestTCPSelfFramesShareNoTaskBytes: a self frame hands the receiver the
// sender's message, yet no task's bytes are shared through it (task.Context
// copies at the boundary). On a one-node TCP cluster — every task beside
// its JobManager — a task scribbles over each buffer the moment Send,
// Broadcast, Out and Put return, and its siblings still read what was sent;
// a sibling's writes to what Recv or Rd handed it reach neither the other
// sibling nor the space.
func TestTCPSelfFramesShareNoTaskBytes(t *testing.T) {
	original := []byte("the bytes as they were sent")
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xDB
		}
	}
	check := func(what string, got []byte) error {
		if !bytes.Equal(got, original) {
			return fmt.Errorf("%s reads %q, want %q", what, got, original)
		}
		return nil
	}
	reg := task.NewRegistry()
	reg.MustRegister("own.Src", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			for _, op := range []func([]byte) error{
				func(b []byte) error { return ctx.Send("sib1", b) },
				ctx.Broadcast,
				func(b []byte) error { return ctx.Out(tuplespace.Tuple{"own", b}) },
				func(b []byte) error { return ctx.Put("own", b) },
			} {
				b := bytes.Clone(original)
				if err := op(b); err != nil {
					return err
				}
				scribble(b)
			}
			return nil
		})
	})
	// sib1 hears the message and the broadcast, scribbles over both and says
	// so in the space; sib2 holds on to its broadcast until it has.
	reg.MustRegister("own.Sib1", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			for i := 0; i < 2; i++ {
				from, b, err := ctx.Recv()
				if err != nil {
					return err
				}
				if err := check("a message from "+from, b); err != nil {
					return err
				}
				scribble(b)
			}
			return ctx.Out(tuplespace.Tuple{"scribbled"})
		})
	})
	reg.MustRegister("own.Sib2", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			_, b, err := ctx.Recv()
			if err != nil {
				return err
			}
			if _, err := ctx.Rd(tuplespace.Template{"scribbled"}); err != nil {
				return err
			}
			if err := check("the broadcast, after the sibling's copy was scribbled over,", b); err != nil {
				return err
			}
			for i := 1; i <= 2; i++ {
				tu, err := ctx.Rd(tuplespace.Template{"own", tuplespace.Wildcard})
				if err != nil {
					return err
				}
				got, _ := tu[1].([]byte)
				if err := check(fmt.Sprintf("Rd %d of the stored tuple", i), got); err != nil {
					return err
				}
				scribble(got)
			}
			got, err := ctx.Get(context.Background(), "own")
			if err != nil {
				return err
			}
			return check("the Put payload", got)
		})
	})
	c, err := cluster.Start(cluster.Config{Nodes: 1, Transport: cluster.TransportTCP, MemoryMB: 8000,
		Registry: reg, HeartbeatInterval: -1, TraceSample: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	j, err := cl.CreateJobOn("node1", "own-bytes", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Release()
	var specs []*task.Spec
	for name, class := range map[string]string{"src": "own.Src", "sib1": "own.Sib1", "sib2": "own.Sib2"} {
		specs = append(specs, &task.Spec{Name: name, Class: class,
			Req: task.Requirements{MemoryMB: 100, RunModel: task.RunAsThreadInTM}})
	}
	if _, err := j.CreateTasks(specs, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if res, err := j.Run(ctx); err != nil || res.Failed {
		t.Fatalf("run: %v %+v", err, res)
	}
	if c.WireStats().Local == 0 {
		t.Error("no frame handed over in-process on a one-node cluster")
	}
}

// TestProgressIsCompleteWhenWaitReturns: every event the JobManager relays
// is on the client's connection before JOB_COMPLETED, and the client
// applies a batch on the goroutine that delivers it — so over 200 jobs in a
// row the census is whole the moment Wait returns, with nothing to wait for.
func TestProgressIsCompleteWhenWaitReturns(t *testing.T) {
	const jobs, tasks = 200, 6
	for name, cfg := range fabrics() {
		t.Run(name, func(t *testing.T) {
			_, cl := startQuiet(t, cfg, 3, 64000)
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			for i := 0; i < jobs; i++ {
				j, err := cl.CreateJobOn("node1", "seq", protocol.JobRequirements{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := j.CreateTasks(noops(tasks, 20000), nil); err != nil { // three to a node
					t.Fatal(err)
				}
				res, err := j.Run(ctx)
				p := j.Progress()
				j.Release()
				if err != nil || res.Failed {
					t.Fatalf("job %d: %v %+v", i, err, res)
				}
				if p.Completed != tasks || p.Started != tasks {
					t.Fatalf("job %d: census %+v the moment Wait returned, want %d started and completed", i, p, tasks)
				}
			}
		})
	}
}

// TestJobStreamEndsAfterEveryMessage: "Get Messages from Tasks" loses
// nothing at the job's end. Eight tasks on four nodes each send the client
// chattyMessages messages and return. A task's messages and the batch that
// reports its end ride one lane from its node, and the JobManager relays
// both, and then the job's end, to the client in that order — so the moment
// Done closes, every message is queued: the client reads all of them, in
// each task's order, without blocking, and then ErrJobFinished.
func TestJobStreamEndsAfterEveryMessage(t *testing.T) {
	const jobs, tasks, nodes = 10, 8, 4
	for name, cfg := range fabrics() {
		t.Run(name, func(t *testing.T) {
			_, cl := startQuiet(t, cfg, nodes, 4000)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for i := 0; i < jobs; i++ {
				j, err := cl.CreateJobOn("node1", "chatty", protocol.JobRequirements{})
				if err != nil {
					t.Fatal(err)
				}
				specs := noops(tasks, 2000) // two to a node
				for _, sp := range specs {
					sp.Class = "run.Chatty"
				}
				placed, err := j.CreateTasks(specs, nil)
				if err != nil {
					t.Fatal(err)
				}
				if hosts := len(nodeSet(placed)); hosts != nodes {
					t.Fatalf("tasks placed on %d nodes, want %d", hosts, nodes)
				}
				if res, err := j.Run(ctx); err != nil || res.Failed {
					t.Fatalf("job %d: %v %+v", i, err, res)
				}
				next := make(map[string]int)
				for {
					from, data, ok, err := j.TryGetMessage()
					if err != nil {
						if !errors.Is(err, api.ErrJobFinished) {
							t.Errorf("job %d: TryGetMessage: %v, want ErrJobFinished", i, err)
						}
						break
					}
					if !ok {
						t.Errorf("job %d: inbox empty but open after Done", i)
						break
					}
					if want := fmt.Sprintf("%s %d;", from, next[from]); len(data) != chattyBytes || !bytes.HasPrefix(data, []byte(want)) {
						t.Errorf("job %d: read %d bytes %.12q, want %d bytes %q…", i, len(data), data, chattyBytes, want)
					}
					next[from]++
				}
				for _, sp := range specs {
					if n := next[sp.Name]; n != chattyMessages {
						t.Errorf("job %d: %d messages from %s (on %s) by Done, want %d", i, n, sp.Name, placed[sp.Name], chattyMessages)
					}
				}
				j.Release()
			}
		})
	}
}

// TestClientReadsEveryMessageAfterRun: "Get Messages from Tasks" drops
// nothing however far the client falls behind. A task sends floodMessages
// messages to a client that reads none until Run returns; then it reads all
// of them, in the order they were sent, and then ErrJobFinished.
func TestClientReadsEveryMessageAfterRun(t *testing.T) {
	for name, cfg := range fabrics() {
		t.Run(name, func(t *testing.T) {
			_, cl := startQuiet(t, cfg, 2, 4000)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			j, err := cl.CreateJobOn("node1", "flood", protocol.JobRequirements{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Release()
			specs := noops(1, 1)
			specs[0].Class = "run.Flood"
			if _, err := j.CreateTasks(specs, nil); err != nil {
				t.Fatal(err)
			}
			if res, err := j.Run(ctx); err != nil || res.Failed {
				t.Fatalf("run: %v %+v", err, res)
			}
			for i := 0; ; i++ {
				from, data, ok, err := j.TryGetMessage()
				if err != nil {
					if !errors.Is(err, api.ErrJobFinished) || i != floodMessages {
						t.Errorf("after %d messages: %v, want ErrJobFinished after %d", i, err, floodMessages)
					}
					break
				}
				if !ok {
					t.Fatalf("inbox empty but open after Done, %d messages read", i)
				}
				if from != specs[0].Name || string(data) != strconv.Itoa(i) {
					t.Fatalf("message %d: read %q from %q", i, data, from)
				}
			}
		})
	}
}

// TestSiblingReadsEveryMessageInOrder: "Send Messages" between tasks drops
// and reorders nothing, and a backlog costs no goroutines. A task sends
// pourMessages messages to a sibling on another node that starts reading
// lateDelay later; the sibling reads all of them in the order they were
// sent, and while they wait for it the process runs about as many
// goroutines as before the first send.
func TestSiblingReadsEveryMessageInOrder(t *testing.T) {
	const slack = 16 // tasks starting and ending, links dialled on first use
	for name, cfg := range fabrics() {
		t.Run(name, func(t *testing.T) {
			_, cl := startQuiet(t, cfg, 2, 4000)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			j, err := cl.CreateJobOn("node1", "pour", protocol.JobRequirements{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Release()
			specs := noops(2, 3000) // one to a node
			specs[0].Name, specs[0].Class = "pour", "run.Pour"
			specs[1].Name, specs[1].Class = "late", "run.LateReader"
			placed, err := j.CreateTasks(specs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if placed["pour"] == placed["late"] {
				t.Fatalf("both tasks on %s, want one to a node", placed["pour"])
			}
			res, err := j.Run(ctx)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if before, during := pourGoroutines.Load(), lateGoroutines.Load(); during > before+slack {
				t.Errorf("%d goroutines while %d messages waited for their reader, %d before the first send; want at most %d more",
					during, pourMessages, before, slack)
			}
			if res.Failed {
				t.Errorf("job failed: %+v", res)
			}
		})
	}
}

// nodeSet returns the nodes a placement uses.
func nodeSet(placed map[string]string) map[string]bool {
	set := make(map[string]bool)
	for _, node := range placed {
		set[node] = true
	}
	return set
}

// TestManyEventsOfOneNodeArriveCutAndInOrder: 600 no-op tasks on a single
// node end within moments of each other. Their 1200 events reach the
// manager, and the client, as TASK_EVENTS frames of at most
// protocol.TaskEventsMax — at least three a hop — in order, and all of them
// are counted when Wait returns.
func TestManyEventsOfOneNodeArriveCutAndInOrder(t *testing.T) {
	const tasks = 600
	c, cl := startQuiet(t, cluster.Config{}, 1, 64000)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	j, err := cl.CreateJobOn("node1", "many", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Release()
	if _, err := j.CreateTasks(noops(tasks, 1), nil); err != nil {
		t.Fatal(err)
	}
	// The handle queues every event: a reader beside the job sees all of
	// them, every task's start before its end, and the census counts them
	// all too.
	rctx, stop := context.WithCancel(ctx)
	defer stop()
	read := make(chan map[msg.Kind]int, 1)
	go func() { read <- drainEvents(t, rctx, j, -1) }()
	if res, err := j.Run(ctx); err != nil || res.Failed {
		t.Fatalf("run: %v %+v", err, res)
	}
	if p := j.Progress(); p.Started != tasks || p.Completed != tasks {
		t.Errorf("client census %+v the moment Wait returned, want %d started and completed", p, tasks)
	}
	stop() // every event was queued before Wait returned
	seen := <-read
	if n := seen[msg.KindTaskStarted] + seen[msg.KindTaskCompleted]; n != 2*tasks ||
		seen[msg.KindTaskStarted] < seen[msg.KindTaskCompleted] {
		t.Errorf("events read: %v, want %d, no more completed than started", seen, 2*tasks)
	}
	wire := c.WireStats()
	if n := wire.ByKind[msg.KindTaskEvents.String()]; n < 2*3 {
		t.Errorf("%d TASK_EVENTS frames for %d events over two hops, want at least 6", n, 2*tasks)
	}
	if n := wire.ByKind[msg.KindExecTask.String()]; n != 1 {
		t.Errorf("%d EXEC_TASK frames, want 1", n)
	}
}

// TestDeadNodeExecFrameGoesThroughRecovery: a node dies between placement
// and start, and the start comes before any lease could lapse. The
// EXEC_TASK frame for the dead node cannot be sent, and every task it
// listed — not just the first — is re-placed: the client counts one retry
// per task the dead node held, and the job completes.
func TestDeadNodeExecFrameGoesThroughRecovery(t *testing.T) {
	cfg := cluster.Config{Nodes: 4, MemoryMB: 8000, Registry: noopRegistry(), MaxTaskRetries: 3,
		HeartbeatInterval: time.Hour, TraceSample: -1} // failure detection never fires in this test
	c, err := cluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	j, err := cl.CreateJobOn("node1", "prestart", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Release()
	placed, err := j.CreateTasks(noops(16, 1000), nil) // four to a node
	if err != nil {
		t.Fatal(err)
	}
	const victim = "node3"
	lost := 0
	for _, node := range placed {
		if node == victim {
			lost++
		}
	}
	if lost < 2 {
		t.Fatalf("%d tasks on %s, want a frame of several: %v", lost, victim, placed)
	}
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := j.Run(ctx)
	if err != nil || res.Failed {
		t.Fatalf("run: %v %+v", err, res)
	}
	if p := j.Progress(); p.Retried != lost || p.Completed != 16 {
		t.Errorf("client census %+v, want %d retried (every task of the dead node's frame) and 16 completed", p, lost)
	}
	if p, ok := c.JobProgress("node1", j.ID); !ok || p.Retried != lost || p.Done != 16 {
		t.Errorf("manager census %+v (known %v), want %d retried and 16 done", p, ok, lost)
	}
}
