package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/api"
	"cn/internal/cluster"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/tuplespace"
)

// chaosRegistry deploys the failure-injection workloads.
func chaosRegistry() *task.Registry {
	r := task.NewRegistry()
	// chaos.Work simulates a short compute burst, then reports its own
	// name to the client. Re-running it is idempotent from the test's
	// point of view (the client dedupes by task name).
	r.MustRegister("chaos.Work", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			deadline := time.Now().Add(40 * time.Millisecond)
			for time.Now().Before(deadline) {
				if ctx.Done() {
					return task.ErrStopped
				}
				time.Sleep(2 * time.Millisecond)
			}
			return ctx.SendClient([]byte(ctx.TaskName()))
		})
	})
	// chaos.Hang blocks until its mailbox closes (cancellation or node
	// death) — the workload that can only finish by being killed.
	r.MustRegister("chaos.Hang", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			_, _, err := ctx.Recv()
			return err
		})
	})
	return r
}

func chaosSpec(name, class string, memMB int) *task.Spec {
	return &task.Spec{
		Name:  name,
		Class: class,
		Req:   task.Requirements{MemoryMB: memMB, RunModel: task.RunAsThreadInTM},
	}
}

// fastHealth is the chaos suite's aggressive failure-detection tuning.
func fastHealth(cfg cluster.Config) cluster.Config {
	cfg.HeartbeatInterval = 10 * time.Millisecond
	cfg.SuspectAfter = 50 * time.Millisecond
	cfg.DeadAfter = 100 * time.Millisecond
	return cfg
}

// TestChaosKillNodeMidJobRecovers is the subsystem's acceptance test: a
// 32-task job survives a worker being power-cut mid-flight. The dead
// node's tasks are detected via lease expiry, re-placed on survivors
// (archive blobs re-fetch by digest), and the job completes with every
// task's result delivered and a non-zero retry count reported.
func TestChaosKillNodeMidJobRecovers(t *testing.T) {
	c, err := cluster.Start(fastHealth(cluster.Config{
		Nodes:          5,
		MemoryMB:       64000,
		Registry:       chaosRegistry(),
		MaxTaskRetries: 3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Host the job on node1 so the killed worker is never the JobManager
	// (JobManager failover is a separate concern; this subsystem recovers
	// TaskManager deaths).
	j, err := cl.CreateJobOn("node1", "chaos", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 32
	specs := make([]*task.Spec, tasks)
	for i := range specs {
		specs[i] = chaosSpec(fmt.Sprintf("w%02d", i), "chaos.Work", 100)
	}
	placements, err := j.CreateTasks(specs, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Pick a victim that hosts tasks and is not the JobManager's node.
	victim := ""
	victimTasks := 0
	byNode := make(map[string]int)
	for _, node := range placements {
		byNode[node]++
	}
	for node, n := range byNode {
		if node != "node1" && n > victimTasks {
			victim, victimTasks = node, n
		}
	}
	if victim == "" {
		t.Fatalf("no non-JM node hosts tasks: %v", byNode)
	}

	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	// Power-cut the victim while its tasks are mid-execution.
	time.Sleep(15 * time.Millisecond)
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job did not finish after node kill: %v", err)
	}
	if res.Failed {
		t.Fatalf("job failed instead of recovering: %+v", res)
	}

	// Every task's result must have arrived (re-runs may duplicate; the
	// terminal event ordering guarantees at least one copy is queued).
	seen := make(map[string]bool)
	for {
		from, _, ok, err := j.TryGetMessage()
		if errors.Is(err, api.ErrJobFinished) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seen[from] = true
	}
	for i := 0; i < tasks; i++ {
		name := fmt.Sprintf("w%02d", i)
		if !seen[name] {
			t.Errorf("no result from task %s", name)
		}
	}

	if got := j.Progress().Retried; got == 0 {
		t.Error("client observed no TASK_RETRIED events after a node kill")
	}
	if prog, ok := c.Server("node1").JobManager().JobProgress(j.ID); !ok || prog.Retried == 0 {
		t.Errorf("JobManager reports no retries: %+v ok=%v", prog, ok)
	}
	t.Logf("killed %s (%d tasks); client retries=%d", victim, victimTasks, j.Progress().Retried)
}

// TestChaosRetryBudgetExhaustionFailsJob kills workers until the retry
// budget runs out: the job must fail with a budget-exhaustion error
// instead of hanging on unrecoverable tasks.
func TestChaosRetryBudgetExhaustionFailsJob(t *testing.T) {
	c, err := cluster.Start(fastHealth(cluster.Config{
		Nodes:          3,
		MemoryMB:       4000,
		Registry:       chaosRegistry(),
		MaxTaskRetries: 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	j, err := cl.CreateJobOn("node1", "budget", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	// Oversized tasks: the whole set fits only when every node
	// participates, so after two kills the survivors cannot absorb the
	// orphans even once, let alone within a budget of 1.
	const tasks = 6
	specs := make([]*task.Spec, tasks)
	for i := range specs {
		specs[i] = chaosSpec(fmt.Sprintf("h%d", i), "chaos.Hang", 1500)
	}
	if _, err := j.CreateTasks(specs, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}

	if err := c.KillNode("node2"); err != nil {
		t.Fatal(err)
	}
	// Give the first recovery wave time to land on node3, then cut it too.
	time.Sleep(300 * time.Millisecond)
	if err := c.KillNode("node3"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job hung instead of failing: %v", err)
	}
	if !res.Failed {
		t.Fatalf("job should have failed after retry budget exhaustion: %+v", res)
	}
	found := false
	for _, errText := range res.TaskErrs {
		if strings.Contains(errText, "retry budget") || strings.Contains(errText, "re-placement failed") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no recovery error recorded: %v", res.TaskErrs)
	}
}

// TestChaosUnstartedAssignmentsRecover kills a node between task creation
// and job start: the orphaned (never-executed) assignments must be
// re-placed so the job still runs to completion.
func TestChaosUnstartedAssignmentsRecover(t *testing.T) {
	c, err := cluster.Start(fastHealth(cluster.Config{
		Nodes:          4,
		MemoryMB:       64000,
		Registry:       chaosRegistry(),
		MaxTaskRetries: 3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	j, err := cl.CreateJobOn("node1", "prestart", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]*task.Spec, 8)
	for i := range specs {
		specs[i] = chaosSpec(fmt.Sprintf("p%d", i), "chaos.Work", 100)
	}
	placements, err := j.CreateTasks(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, node := range placements {
		if node != "node1" {
			victim = node
			break
		}
	}
	if victim == "" {
		t.Skip("all tasks landed on the JobManager's node")
	}
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	// Wait for the lease to lapse and recovery to re-place before starting.
	time.Sleep(250 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := j.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("job failed: %+v", res)
	}
}

// TestChaosSpeculativeRetryBeatsStraggler enables the speculation knob: a
// task whose progress sync stalls gets a twin on another node; the twin's
// result wins and the job completes even though the original never does.
func TestChaosSpeculativeRetryBeatsStraggler(t *testing.T) {
	var instances atomic.Int64
	reg := task.NewRegistry()
	// The first instance stalls forever (a wedged straggler); any later
	// instance — the speculative twin — completes immediately.
	reg.MustRegister("chaos.StallOnce", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			if instances.Add(1) == 1 {
				for !ctx.Done() {
					time.Sleep(2 * time.Millisecond)
				}
				return task.ErrStopped
			}
			return ctx.SendClient([]byte("done by " + ctx.NodeName()))
		})
	})

	cfg := fastHealth(cluster.Config{
		Nodes:          3,
		MemoryMB:       64000,
		Registry:       reg,
		MaxTaskRetries: 2,
	})
	cfg.StragglerAfter = 80 * time.Millisecond
	c, err := cluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	j, err := cl.CreateJobOn("node1", "straggler", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.CreateTasks([]*task.Spec{chaosSpec("slow", "chaos.StallOnce", 100)}, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := j.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("job failed: %+v", res)
	}
	if got := j.Progress().Retried; got == 0 {
		t.Error("no TASK_RETRIED event observed for the straggler")
	}
	// The winning copy's output must have been delivered.
	from, data, ok, err := j.TryGetMessage()
	if err != nil || !ok {
		t.Fatalf("no result message (ok=%v err=%v)", ok, err)
	}
	if from != "slow" || !strings.HasPrefix(string(data), "done by ") {
		t.Errorf("unexpected result %q from %q", data, from)
	}
}

// TestPlacementDirectoryEvictsDepartedNodes verifies the discovery-departure
// satellite: cached offers from a node that cleanly left the fabric are
// evicted from the placement directory instead of being served until the
// TTL lapses.
func TestPlacementDirectoryEvictsDepartedNodes(t *testing.T) {
	c, err := cluster.Start(fastHealth(cluster.Config{
		Nodes:        3,
		MemoryMB:     64000,
		Registry:     chaosRegistry(),
		PlacementTTL: time.Hour, // the TTL alone would serve stale offers forever
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Warm node1's directory with all three nodes.
	j, err := cl.CreateJobOn("node1", "warm", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.CreateTasks([]*task.Spec{chaosSpec("warm", "chaos.Work", 10)}, nil); err != nil {
		t.Fatal(err)
	}

	if err := c.KillNode("node3"); err != nil {
		t.Fatal(err)
	}

	// A post-departure placement must not choose node3 even though its
	// offer is still fresh under the 1h TTL.
	j2, err := cl.CreateJobOn("node1", "after", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]*task.Spec, 6)
	for i := range specs {
		specs[i] = chaosSpec(fmt.Sprintf("a%d", i), "chaos.Work", 10)
	}
	placements, err := j2.CreateTasks(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for taskName, node := range placements {
		if node == "node3" {
			t.Errorf("task %s placed on departed node3", taskName)
		}
	}
	if ev := c.PlacementStats().Evictions; ev == 0 {
		t.Error("placement directory recorded no evictions after a departure")
	}
}

// TestHeartbeatAckReleasesUnknownJobAssignments: when a JobManager no
// longer tracks a job (evicted), its ack tells the TaskManager to release
// the job's leftover assignments.
func TestHeartbeatAckReleasesUnknownJobAssignments(t *testing.T) {
	c, err := cluster.Start(fastHealth(cluster.Config{
		Nodes:        2,
		MemoryMB:     4000,
		Registry:     chaosRegistry(),
		TombstoneTTL: 40 * time.Millisecond, // abandon fast
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	j, err := cl.CreateJobOn("node1", "abandoned", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.CreateTasks([]*task.Spec{chaosSpec("t1", "chaos.Hang", 1000)}, nil); err != nil {
		t.Fatal(err)
	}
	// Never start the job: the JobManager's janitor treats it as
	// abandoned and evicts it; the next heartbeat round's ack flags the
	// job as unknown and the TaskManagers release the reservation.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		full := true
		for _, node := range c.Nodes() {
			if c.Server(node).TaskManager().FreeMemoryMB() != 4000 {
				full = false
			}
		}
		if full {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("abandoned job's reservation never released")
}

// TestChaosWorkerKilledMidInDrainsSpace extends the suite to the
// coordination layer: replicated workers steal work items from the job's
// tuple space with blocking In; a worker node is power-cut while its
// workers are parked mid-In. The orphaned worker tasks are re-placed on
// survivors, the fresh instances transparently reconnect to the same
// space (same JobManager, fresh wire calls), tuples taken by stale
// waiters whose reply could not be delivered are put back, and the client
// re-seeds any item lost in a worker's In→Out window — so the bag drains
// completely and the job still finishes.
func TestChaosWorkerKilledMidInDrainsSpace(t *testing.T) {
	reg := task.NewRegistry()
	reg.MustRegister("chaos.TSWorker", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			for {
				tu, err := ctx.In(tuplespace.Template{"work", tuplespace.TypeOf(0)})
				if err != nil {
					return nil // space closed or node dying
				}
				v := tu[1].(int)
				if v < 0 {
					return nil // poison pill
				}
				// A short compute burst widens the In→Out window the kill
				// can land in.
				time.Sleep(2 * time.Millisecond)
				if err := ctx.Out(tuplespace.Tuple{"done", v}); err != nil {
					return err
				}
			}
		})
	})

	c, err := cluster.Start(fastHealth(cluster.Config{
		Nodes:          4,
		MemoryMB:       64000,
		Registry:       reg,
		MaxTaskRetries: 3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	j, err := cl.CreateJobOn("node1", "ts-chaos", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, items = 3, 40
	specs := make([]*task.Spec, workers)
	for i := range specs {
		specs[i] = chaosSpec(fmt.Sprintf("w%d", i), "chaos.TSWorker", 100)
	}
	placements, err := j.CreateTasks(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, node := range placements {
		if node != "node1" {
			victim = node
			break
		}
	}
	if victim == "" {
		t.Fatalf("no non-JM node hosts workers: %v", placements)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}

	space := j.Space()
	pending := make(map[int]bool, items)
	for i := 0; i < items; i++ {
		pending[i] = true
		if err := space.Out(tuplespace.Tuple{"work", i}); err != nil {
			t.Fatal(err)
		}
	}
	// Cut the victim while its workers are mid-steal (parked in In or
	// inside the In→Out compute window).
	time.Sleep(10 * time.Millisecond)
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}

	// Drain; items lost in a dead worker's In→Out window are re-seeded
	// after a quiet period (duplicate answers are skipped).
	deadline := time.Now().Add(30 * time.Second)
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("bag never drained; %d items outstanding", len(pending))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		tu, err := space.In(ctx, tuplespace.Template{"done", tuplespace.TypeOf(0)})
		cancel()
		if err != nil {
			for v := range pending {
				if err := space.Out(tuplespace.Tuple{"work", v}); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		delete(pending, tu[1].(int))
	}

	for i := 0; i < workers; i++ {
		if err := space.Out(tuplespace.Tuple{"work", -1}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job did not finish after mid-In kill: %v", err)
	}
	if res.Failed {
		t.Fatalf("job failed instead of recovering: %+v", res)
	}
	if got := j.Progress().Retried; got == 0 {
		t.Error("no TASK_RETRIED events after killing a worker node")
	}
}
