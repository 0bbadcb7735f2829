package jobmgr_test

// The run phase as the JobManager drives it: an EXEC_TASK frame per hosting
// node for whatever the schedule released together, a batch of lifecycle
// events applied in order, and what the batch owes paid once.

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"cn/internal/config"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
)

// TestDiamondMiddleTasksShareOneExecFrame: a -> (b, c) -> d on one node. The
// completion of a releases b and c together, so they start from one
// EXEC_TASK frame: three for the job, not four — and no lifecycle label
// travels as a frame of its own.
func TestDiamondMiddleTasksShareOneExecFrame(t *testing.T) {
	srv, net := startNode(t, config.Config{TraceSample: -1, HeartbeatInterval: -1})
	cl := connect(t, net)
	j, err := cl.CreateJobOn("n1", "diamond", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Release()
	dep := func(name string, on ...string) *task.Spec {
		sp := spec(name, "life.Noop")
		sp.DependsOn = on
		return sp
	}
	specs := []*task.Spec{dep("a"), dep("b", "a"), dep("c", "a"), dep("d", "b", "c")}
	if _, err := j.CreateTasks(specs, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if res, err := j.Run(ctx); err != nil || res.Failed {
		t.Fatalf("run: %v %+v", err, res)
	}
	if p := j.Progress(); p.Started != 4 || p.Completed != 4 {
		t.Errorf("client census %+v when Wait returned, want 4 started and 4 completed", p)
	}
	if p, ok := srv.JobManager().JobProgress(j.ID); !ok || p.Done != 4 {
		t.Errorf("manager census %+v (known %v), want 4 done", p, ok)
	}
	// The in-memory fabric counts a frame when it is submitted, and every
	// frame of the job was submitted before its JOB_COMPLETED.
	kinds := net.Stats().KindCounts()
	if n := kinds[msg.KindExecTask.String()]; n != 3 {
		t.Errorf("%d EXEC_TASK frames for a diamond on one node, want 3 (a; b and c together; d)", n)
	}
	for _, label := range []msg.Kind{msg.KindTaskStarted, msg.KindTaskCompleted, msg.KindTaskFailed} {
		if n := kinds[label.String()]; n != 0 {
			t.Errorf("%d bare %s frames", n, label)
		}
	}
	if n := kinds[msg.KindTaskEvents.String()]; n < 2 || n > 16 {
		t.Errorf("%d TASK_EVENTS frames, want 2 to 16 (at most one per event and hop)", n)
	}
}

// TestExecListFailureIsAloneAndCredited: eight tasks fill a node; the node
// loses one assignment before the start. The EXEC_TASK frame lists all
// eight: the lost one fails alone — it is the job's only task error — and
// the node's reports bring the placement directory's figure back to a free
// node, so the next job of eight places from the cached offer without a
// solicitation round or an invalidation.
func TestExecListFailureIsAloneAndCredited(t *testing.T) {
	srv, net := startNode(t, config.Config{TraceSample: -1, HeartbeatInterval: -1, MemoryMB: 8000, PlacementTTL: time.Hour})
	jm := srv.JobManager()
	cl := connect(t, net)
	names := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	eight := func() []*task.Spec {
		specs := make([]*task.Spec, len(names))
		for i, n := range names {
			specs[i] = spec(n, "life.Noop")
			specs[i].Req.MemoryMB = 1000
		}
		return specs
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	j, err := cl.CreateJobOn("n1", "lossy", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Release()
	if _, err := j.CreateTasks(eight(), nil); err != nil {
		t.Fatal(err)
	}
	if !srv.TaskManager().ReleaseIfUnstarted(j.ID, "t3") {
		t.Fatal("t3 was not held unstarted")
	}
	res, err := j.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || len(res.TaskErrs) != 1 || !strings.Contains(res.TaskErrs["t3"], "not assigned") {
		t.Fatalf("result %+v, want a failed job whose only task error is t3's", res)
	}
	if n := net.Stats().KindCounts()[msg.KindExecTask.String()]; n != 1 {
		t.Errorf("%d EXEC_TASK frames, want 1", n)
	}
	// The seven others were started by the same frame and run to their end
	// (a no-op cannot be cancelled mid-run); nothing tells this test when
	// the last one has, so it looks until the directory holds the node's
	// report of being empty again — carried by an event batch of a job that
	// has already failed.
	for deadline := time.Now().Add(5 * time.Second); jm.CachedFreeMB("n1") != 8000; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("directory holds %d MB free on n1, want 8000 (the node holds %d)", jm.CachedFreeMB("n1"), srv.TaskManager().FreeMemoryMB())
		}
	}

	before := jm.PlacementStats()
	j2, err := cl.CreateJobOn("n1", "next", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Release()
	if _, err := j2.CreateTasks(eight(), nil); err != nil {
		t.Fatalf("the next eight tasks did not fit the credited node: %v", err)
	}
	after := jm.PlacementStats()
	if after.SolicitRounds != before.SolicitRounds || after.Invalidations != before.Invalidations {
		t.Errorf("placing the next job took %d solicit rounds and %d invalidations; the cached offer was short of a credit",
			after.SolicitRounds-before.SolicitRounds, after.Invalidations-before.Invalidations)
	}
	if res, err := j2.Run(ctx); err != nil || res.Failed {
		t.Fatalf("next job: %v %+v", err, res)
	}
}
