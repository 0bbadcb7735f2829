package cluster_test

// Admission end to end: a job is named by its client, created, given its
// tasks and started by one CREATE_TASKS frame, on the JobManager the client
// kept from its last job — and what is refused leaves nothing behind.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cn/internal/api"
	"cn/internal/cluster"
	"cn/internal/discovery"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/transport"
)

// twoFabrics are the links admission is checked on.
func twoFabrics() map[string]cluster.Config {
	return map[string]cluster.Config{"mem": {}, "tcp": {Transport: cluster.TransportTCP}}
}

// submit creates a job with CreateJob, submits specs and waits for its end.
func submit(t *testing.T, cl *api.Client, specs []*task.Spec) *api.Job {
	t.Helper()
	j, err := cl.CreateJob("admit", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(j.Release)
	if _, err := j.Submit(specs, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if res, err := j.Wait(ctx); err != nil || res.Failed {
		t.Fatalf("job %s: %v %+v", j.ID, err, res)
	}
	return j
}

// kindDelta is how many frames of each kind the fabric carried since before.
func kindDelta(c *cluster.Cluster, before map[string]int64) map[string]int64 {
	d := make(map[string]int64)
	for k, n := range c.WireStats().ByKind {
		if n != before[k] {
			d[k] = n - before[k]
		}
	}
	return d
}

// TestSubmitIsOneClientFrame: a client's second and later jobs go to the
// manager its first one landed on, with no discovery round, and each is
// admitted by one CREATE_TASKS answered by one TASKS_ACCEPTED; the ready
// tasks ride their assignments, so no EXEC_TASK travels, and a job takes at
// most 26 frames on average, where a create, a start and a solicitation
// round per job took 37. (How many TASK_EVENTS batches a node's flusher cuts
// depends on scheduling, so one job may take a few more.)
func TestSubmitIsOneClientFrame(t *testing.T) {
	for name, cfg := range twoFabrics() {
		t.Run(name, func(t *testing.T) {
			c, cl := startQuiet(t, cfg, 4, 8000)
			specs := noops(32, 100)
			first := submit(t, cl, specs)
			// A TCP writer counts a frame just after writing it, which may
			// trail the frame's effect: a job's frames are counted once its
			// one CREATE_TASKS and TASKS_ACCEPTED and an answer to each
			// assignment show.
			settled := func(jobs int64) {
				waitFor(t, "the frames counted", func() bool {
					k := c.WireStats().ByKind
					return k[msg.KindCreateTasks.String()] == jobs && k[msg.KindTasksAccepted.String()] == jobs &&
						k[msg.KindTasksAssigned.String()] == k[msg.KindAssignTasks.String()]
				}, func() string { return fmt.Sprint(c.WireStats().ByKind) })
			}
			settled(1)
			const jobs = 5
			total := int64(0)
			for i := int64(2); i <= jobs+1; i++ {
				before := c.WireStats().ByKind
				j := submit(t, cl, specs)
				if j.Manager() != first.Manager() {
					t.Errorf("job %d went to %s, not the kept manager %s", i, j.Manager(), first.Manager())
				}
				settled(i)
				d := kindDelta(c, before)
				for kind, want := range map[msg.Kind]int64{
					msg.KindJobManagerSolicit: 0, msg.KindJobManagerOffer: 0, msg.KindCreateTasks: 1,
					msg.KindTasksAccepted: 1, msg.KindExecTask: 0,
				} {
					if d[kind.String()] != want {
						t.Errorf("job %d: %d %s frames, want %d: %v", i, d[kind.String()], kind, want, d)
					}
				}
				for _, n := range d {
					total += n
				}
			}
			t.Logf("%.1f frames a job", float64(total)/jobs)
			if total > 26*jobs {
				t.Errorf("%d jobs took %d frames, want <= 26 a job", jobs, total)
			}
		})
	}
}

// TestKeptManagerKilledResolicitsOnce: when the node of the manager a client
// kept dies between two jobs, the next CreateJob sees it gone from the
// JobManager group, runs one discovery round, and its Submit runs on a
// survivor.
func TestKeptManagerKilledResolicitsOnce(t *testing.T) {
	for name, cfg := range twoFabrics() {
		t.Run(name, func(t *testing.T) {
			c, cl := startQuiet(t, cfg, 3, 8000)
			j, err := cl.CreateJobOn("node1", "kept", protocol.JobRequirements{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Submit(noops(4, 100), nil); err != nil {
				t.Fatal(err)
			}
			if _, err := j.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			j.Release()
			if err := c.KillNode("node1"); err != nil {
				t.Fatal(err)
			}
			before := c.WireStats().ByKind
			next := submit(t, cl, noops(4, 100))
			if m := next.Manager(); m == "node1" {
				t.Errorf("the job after the kill ran on the dead manager %s", m)
			}
			// One round: one JM_SOLICIT to each of the two survivors.
			if n := kindDelta(c, before)[msg.KindJobManagerSolicit.String()]; n != 2 {
				t.Errorf("%d JM_SOLICIT frames after the kill, want one round of 2", n)
			}
		})
	}
}

// rawCreate sends a raw first frame naming id from node "raw" and returns
// the answer.
func rawCreate(t *testing.T, caller *transport.Caller, id string, specs []*task.Spec) *msg.Message {
	t.Helper()
	req := protocol.CreateTasksReq{JobID: id, ClientNode: "raw", Name: "held"}
	for _, sp := range specs {
		req.Tasks = append(req.Tasks, protocol.TaskCreate{Spec: sp})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reply, err := caller.Call(ctx, "node1", protocol.Body(msg.KindCreateTasks,
		msg.Address{Node: "raw", Task: protocol.ClientTaskName}, msg.Address{Node: "node1", Job: id}, req))
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestCreateOfAHeldIDRefused: a first frame naming an ID its manager holds
// — a live job, or a retired one's tombstone — is refused, and the refusal
// leaves the held job as it was.
func TestCreateOfAHeldIDRefused(t *testing.T) {
	for name, cfg := range twoFabrics() {
		t.Run(name, func(t *testing.T) {
			c, _ := startQuiet(t, cfg, 2, 8000)
			var caller *transport.Caller
			ep, err := c.Network().Attach("raw", func(m *msg.Message) { caller.Handle(m) })
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ep.Close() })
			caller = transport.NewCaller(ep)
			jm := c.Server("node1").JobManager()

			if r := rawCreate(t, caller, "raw.1", noops(1, 100)); r.Kind != msg.KindTasksAccepted {
				t.Fatalf("first create answered %v", r.Kind)
			}
			refused := func(when string) {
				t.Helper()
				r := rawCreate(t, caller, "raw.1", nil)
				var ev protocol.JobEvent
				if r.Kind != msg.KindJobFailed || protocol.Decode(r, &ev) != nil || !strings.Contains(ev.Err, "already held") {
					t.Errorf("a create of the %s ID answered %v %+v, want it refused as held", when, r.Kind, ev)
				}
			}
			refused("live")
			if p, ok := jm.JobProgress("raw.1"); !ok || p.Total != 1 || jm.ActiveJobs() != 1 {
				t.Errorf("after the refusal the job reads %+v, %v with %d live jobs; want its one task, one job", p, ok, jm.ActiveJobs())
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			start := protocol.Body(msg.KindCreateTasks, msg.Address{Node: "raw", Task: protocol.ClientTaskName},
				msg.Address{Node: "node1", Job: "raw.1"}, protocol.CreateTasksReq{JobID: "raw.1", Start: true})
			if r, err := caller.Call(ctx, "node1", start); err != nil || r.Kind != msg.KindTasksAccepted {
				t.Fatalf("start answered %v, %v", r, err)
			}
			waitFor(t, "the job's end", func() bool { return jm.ActiveJobs() == 0 })
			refused("retired")
			if n := jm.ActiveJobs(); n != 0 {
				t.Errorf("%d live jobs after refusing a retired ID", n)
			}
		})
	}
}

// TestRefusedSubmitLeavesNothing: a Submit its managers refuse — every
// manager at MaxJobs, or a task no node can hold — leaves no job slot and no
// reservation behind on any node.
func TestRefusedSubmitLeavesNothing(t *testing.T) {
	for name, cfg := range twoFabrics() {
		t.Run(name, func(t *testing.T) {
			cfg.MaxJobs = 1
			c, cl := startQuiet(t, cfg, 2, 1000)
			leftover := func(when string, jobs int, reserved int) {
				t.Helper()
				live, free := 0, 0
				for _, node := range c.Nodes() {
					live += c.Server(node).JobManager().ActiveJobs()
					free += c.Server(node).TaskManager().FreeMemoryMB()
				}
				if live != jobs || free != 2000-reserved {
					t.Errorf("%s: %d live jobs and %d MB free, want %d and %d", when, live, free, jobs, 2000-reserved)
				}
			}

			// A task no node can hold: placement fails on the kept manager
			// and, after one more discovery round, on the other.
			j, err := cl.CreateJob("huge", protocol.JobRequirements{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Submit(noops(1, 5000), nil); err == nil {
				t.Fatal("a task bigger than any node was placed")
			}
			leftover("after an unplaceable Submit", 0, 0)

			// Both managers at their one job: the Submit is refused, and so
			// is the round it runs for another manager.
			for _, node := range c.Nodes() {
				fill, err := cl.CreateJobOn(node, "fill", protocol.JobRequirements{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fill.CreateTasks(noops(1, 100), nil); err != nil {
					t.Fatal(err)
				}
				defer fill.Cancel("done")
			}
			j, err = cl.CreateJob("full", protocol.JobRequirements{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Submit(noops(1, 100), nil); !errors.Is(err, discovery.ErrRefused) {
				t.Errorf("Submit with every manager full = %v, want it refused", err)
			}
			leftover("after a Submit at MaxJobs", 2, 200)
		})
	}
}

// TestRefusedFrameKeepsEarlierTasks: a job's second CREATE_TASKS that cannot
// be placed is refused alone. The first frame's tasks stay the job's, the
// refused frame's reservations are released, and the job starts and
// completes with the first frame's tasks.
func TestRefusedFrameKeepsEarlierTasks(t *testing.T) {
	for name, cfg := range twoFabrics() {
		t.Run(name, func(t *testing.T) {
			c, cl := startQuiet(t, cfg, 2, 1000)
			j, err := cl.CreateJob("refused-frame", protocol.JobRequirements{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Release()
			if _, err := j.CreateTasks(noops(3, 100), nil); err != nil {
				t.Fatal(err)
			}
			late := noops(2, 100)
			late[0].Name, late[1].Name = "late", "huge"
			late[1].Req.MemoryMB = 5000
			if _, err := j.CreateTasks(late, nil); err == nil {
				t.Fatal("a frame with a task bigger than any node was placed")
			}
			// The refused frame's placed task is released by a one-way
			// cancel: its memory comes back shortly after the refusal.
			free := func() int {
				mb := 0
				for _, node := range c.Nodes() {
					mb += c.Server(node).TaskManager().FreeMemoryMB()
				}
				return mb
			}
			for deadline := time.Now().Add(5 * time.Second); free() != 2000-300 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if mb := free(); mb != 2000-300 {
				t.Errorf("%d MB free after the refused frame, want %d: the first frame's 300 reserved", mb, 2000-300)
			}
			if err := j.Start(); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if res, err := j.Wait(ctx); err != nil || res.Failed {
				t.Fatalf("job %s: %v %+v", j.ID, err, res)
			}
			if p, ok := c.JobProgress(j.Manager(), j.ID); !ok || p.Total != 3 || p.Done != 3 {
				t.Errorf("manager census %+v (known %v), want the first frame's 3 tasks done", p, ok)
			}
		})
	}
}
