package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cn/internal/api"
	"cn/internal/cluster"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/tuplespace"
)

// failoverConfig layers the checkpoint knob onto the chaos tuning: peer
// JobManagers replicate job state every 20ms, and an origin whose node
// lease lapses past the chaos DeadAfter (100ms) is adopted from, so
// failover lands well inside test deadlines.
func failoverConfig(nodes int, reg *task.Registry) cluster.Config {
	cfg := fastHealth(cluster.Config{
		Nodes:          nodes,
		MemoryMB:       64000,
		Registry:       reg,
		MaxTaskRetries: 3,
	})
	cfg.CheckpointEvery = 20 * time.Millisecond
	return cfg
}

// failoverRegistry's workload runs long enough that the JobManager kill
// always lands mid-job, and reports its own name so the test can verify
// every task's result survived the failover (re-runs may duplicate).
func failoverRegistry() *task.Registry {
	r := task.NewRegistry()
	r.MustRegister("failover.Work", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			deadline := time.Now().Add(150 * time.Millisecond)
			for time.Now().Before(deadline) {
				if ctx.Done() {
					return task.ErrStopped
				}
				time.Sleep(2 * time.Millisecond)
			}
			return ctx.SendClient([]byte(ctx.TaskName()))
		})
	})
	return r
}

// TestFailoverJMKilledMidJobAdoptedBySurvivor is the failover subsystem's
// acceptance test: the node hosting a job's JobManager is power-cut while
// the job's tasks are mid-execution. Surviving JobManagers hold the job's
// replicated checkpoints, detect the death by node-lease expiry,
// elect the smallest survivor as adopter, re-point the live assignments,
// re-place the orphans (including everything that ran on the dead node
// itself), and drive the job to completion — with the client's handle
// transparently following the move.
func TestFailoverJMKilledMidJobAdoptedBySurvivor(t *testing.T) {
	c, err := cluster.Start(failoverConfig(4, failoverRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	j, err := cl.CreateJobOn("node1", "failover", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 16
	specs := make([]*task.Spec, tasks)
	for i := range specs {
		specs[i] = chaosSpec(fmt.Sprintf("w%02d", i), "failover.Work", 100)
	}
	if _, err := j.CreateTasks(specs, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}

	// Let at least two checkpoint ticks replicate the started schedule,
	// then power-cut the manager mid-job (tasks run ~150ms).
	time.Sleep(50 * time.Millisecond)
	if err := c.KillNode("node1"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job did not finish after its JobManager died: %v", err)
	}
	if res.Failed {
		t.Fatalf("job failed instead of being adopted: %+v", res)
	}

	// The handle followed the adoption to the elected survivor (the
	// lexicographically smallest surviving JobManager).
	if got := j.Manager(); got != "node2" {
		t.Errorf("job manager after failover = %s, want node2", got)
	}

	// Every task's result arrived despite the mid-flight manager death
	// (at-least-once execution: duplicates are fine, absences are not).
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
			t.Errorf("no result from task %s after failover", name)
		}
	}
	t.Logf("job adopted by %s; %d/%d results, %d retries", j.Manager(), len(seen), tasks, j.Progress().Retried)
}

// TestFailoverParkedInWaitersFollowAdoption kills the JobManager while
// worker tasks are parked in blocking In against the job's tuple space.
// The parked calls fail when the manager dies; the workers retry, the
// adopter restores the space from the last checkpoint and re-points the
// assignments, and the retried In operations land on the survivor. The
// client re-seeds any item lost in the failover window, so the bag drains
// and the job completes.
func TestFailoverParkedInWaitersFollowAdoption(t *testing.T) {
	reg := task.NewRegistry()
	reg.MustRegister("failover.TSWorker", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			for {
				tu, err := ctx.In(tuplespace.Template{"work", tuplespace.TypeOf(0)})
				if err != nil {
					if ctx.Done() {
						return task.ErrStopped
					}
					// The owning JobManager may have just died; once the
					// adopter re-points this assignment the retry reaches
					// the survivor's copy of the space.
					time.Sleep(5 * time.Millisecond)
					continue
				}
				v := tu[1].(int)
				if v < 0 {
					return nil // poison pill
				}
				time.Sleep(2 * time.Millisecond)
				for {
					if err := ctx.Out(tuplespace.Tuple{"done", v}); err == nil {
						break
					}
					if ctx.Done() {
						return task.ErrStopped
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		})
	})

	c, err := cluster.Start(failoverConfig(4, reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	j, err := cl.CreateJobOn("node1", "ts-failover", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, items = 3, 20
	specs := make([]*task.Spec, workers)
	for i := range specs {
		specs[i] = chaosSpec(fmt.Sprintf("w%d", i), "failover.TSWorker", 100)
	}
	if _, err := j.CreateTasks(specs, nil); err != nil {
		t.Fatal(err)
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
	// Give the checkpointer a tick to replicate the seeded space with the
	// workers parked mid-In, then cut the manager.
	time.Sleep(50 * time.Millisecond)
	if err := c.KillNode("node1"); err != nil {
		t.Fatal(err)
	}

	// Drain the bag through the failover. Operations against the dead
	// manager fail until the adoption lands; on any error the client
	// re-seeds the outstanding items (the space reverts to the last
	// checkpoint, so items taken-but-unanswered in the kill window need
	// re-seeding; duplicates produce duplicate answers, which dedupe).
	deadline := time.Now().Add(30 * time.Second)
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("bag never drained after failover; %d items outstanding", len(pending))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		tu, err := space.In(ctx, tuplespace.Template{"done", tuplespace.TypeOf(0)})
		cancel()
		if err != nil {
			for v := range pending {
				if err := space.Out(tuplespace.Tuple{"work", v}); err != nil {
					break // manager still moving; retry next round
				}
			}
			continue
		}
		delete(pending, tu[1].(int))
	}

	for i := 0; i < workers; i++ {
		for {
			if err := space.Out(tuplespace.Tuple{"work", -1}); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job did not finish after mid-In manager death: %v", err)
	}
	if res.Failed {
		t.Fatalf("job failed instead of being adopted: %+v", res)
	}
	if got := j.Manager(); got != "node2" {
		t.Errorf("job manager after failover = %s, want node2", got)
	}
}

// TestFailoverUnacknowledgedOutsAreTheLossWindow kills the JobManager while
// every emitter has one-way Outs it was never acknowledged for. The Outs
// returned nil and may be lost — up to protocol.TSOutWindow-1 per requester,
// the stated loss window — but the loss is not silent for long: the
// emitter's next acknowledged op, a Flush, fails inside the dead-manager
// deadline. The emitter re-sends and flushes again until the adopter
// answers, the client finds every tuple in the survivor's space, and the job
// completes there.
func TestFailoverUnacknowledgedOutsAreTheLossWindow(t *testing.T) {
	const emitters, each = 3, 40 // each < TSOutWindow: none of them acknowledged
	emitted := make(chan string, 4*emitters)
	killed := make(chan struct{})
	firstFlush := make(chan time.Duration, 4*emitters)
	reg := task.NewRegistry()
	reg.MustRegister("failover.Emitter", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			emit := func() error {
				for i := 0; i < each; i++ {
					if err := ctx.Out(tuplespace.Tuple{"e", ctx.TaskName(), i}); err != nil {
						return err
					}
				}
				return nil
			}
			_ = emit() // a copy re-placed after the kill may meet a manager still moving
			emitted <- ctx.TaskName()
			for waiting := true; waiting; {
				select {
				case <-killed:
					waiting = false
				case <-time.After(time.Millisecond):
					if ctx.Done() {
						return task.ErrStopped // this copy ran on the node that was killed
					}
				}
			}
			for first := true; ; first = false {
				start := time.Now()
				err := ctx.Flush()
				if first {
					firstFlush <- time.Since(start)
				}
				if err == nil {
					break
				}
				if ctx.Done() {
					return task.ErrStopped
				}
				time.Sleep(5 * time.Millisecond)
				_ = emit() // what the dead manager held is gone: send it again
			}
			_, err := ctx.Rd(tuplespace.Template{"stop"})
			return err
		})
	})

	c, err := cluster.Start(failoverConfig(4, reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	j, err := cl.CreateJobOn("node1", "loss-window", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]*task.Spec, emitters)
	for i := range specs {
		specs[i] = chaosSpec(fmt.Sprintf("e%d", i), "failover.Emitter", 100)
	}
	if _, err := j.CreateTasks(specs, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < emitters; i++ {
		select {
		case <-emitted:
		case <-time.After(10 * time.Second):
			t.Fatal("emitters never finished their Outs")
		}
	}
	// A checkpoint tick or two, so the adopter knows the started schedule.
	time.Sleep(50 * time.Millisecond)
	if err := c.KillNode("node1"); err != nil {
		t.Fatal(err)
	}
	close(killed)

	// Every tuple of every emitter turns up in the adopter's space (more
	// than once where a checkpointed copy met a re-sent one).
	space := j.Space()
	missing := make(map[string]bool, emitters*each)
	for e := 0; e < emitters; e++ {
		for i := 0; i < each; i++ {
			missing[fmt.Sprintf("e%d/%d", e, i)] = true
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(missing) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d tuples never reached the adopter's space", len(missing))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		tu, err := space.In(ctx, tuplespace.Template{"e", tuplespace.TypeOf(""), tuplespace.TypeOf(0)})
		cancel()
		if err != nil {
			continue // the manager is still moving
		}
		delete(missing, fmt.Sprintf("%s/%d", tu[1], tu[2]))
	}
	for {
		if err := space.Out(tuplespace.Tuple{"stop"}); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job did not finish after its JobManager died: %v", err)
	}
	if res.Failed {
		t.Fatalf("job failed instead of being adopted: %+v", res)
	}
	if got := j.Manager(); got != "node2" {
		t.Errorf("job manager after failover = %s, want node2", got)
	}
	close(firstFlush)
	for d := range firstFlush {
		if d > protocol.CallTimeout+time.Second {
			t.Errorf("an emitter's first acknowledged op after the kill took %v; the dead-manager deadline is %v", d, protocol.CallTimeout)
		}
	}
}

// TestTaskSendToDeadManagerWaitsForAdopter: a task whose manager died
// before it sent keeps its message until a survivor adopts the job, and
// then sends it there; the task neither fails nor runs again. The tasks
// block on a gate until the manager's node is power-cut, so every send on
// the surviving nodes meets a dead manager (the order a send-fails-the-task
// bug needs, forced rather than hoped for). Each task's one message
// reaches the client, and each task that started on a survivor ran once.
func TestTaskSendToDeadManagerWaitsForAdopter(t *testing.T) {
	for name, transport := range map[string]cluster.Transport{"mem": cluster.TransportMem, "tcp": cluster.TransportTCP} {
		t.Run(name, func(t *testing.T) {
			gate := make(chan struct{})
			var mu sync.Mutex
			ran := make(map[string][]string) // task -> the nodes it ran on, in order
			reg := task.NewRegistry()
			reg.MustRegister("failover.GatedSend", func() task.Task {
				return task.Func(func(ctx task.Context) error {
					mu.Lock()
					ran[ctx.TaskName()] = append(ran[ctx.TaskName()], ctx.NodeName())
					mu.Unlock()
					for {
						select {
						case <-gate:
							return ctx.SendClient([]byte(ctx.TaskName()))
						case <-time.After(time.Millisecond):
							if ctx.Done() {
								return task.ErrStopped
							}
						}
					}
				})
			})
			cfg := failoverConfig(4, reg)
			cfg.Transport = transport
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

			j, err := cl.CreateJobOn("node1", "held-send", protocol.JobRequirements{})
			if err != nil {
				t.Fatal(err)
			}
			const tasks = 12
			specs := make([]*task.Spec, tasks)
			for i := range specs {
				specs[i] = chaosSpec(fmt.Sprintf("s%02d", i), "failover.GatedSend", 100)
			}
			if _, err := j.CreateTasks(specs, nil); err != nil {
				t.Fatal(err)
			}
			if err := j.Start(); err != nil {
				t.Fatal(err)
			}
			// Every task is running, behind the gate; then two checkpoint
			// rounds replicate the running schedule to the peers.
			waitFor(t, "every task started", func() bool { return j.Progress().Started == tasks })
			ckpts := func() int64 { return c.WireStats().ByKind[msg.KindJMCheckpoint.String()] }
			base := ckpts()
			waitFor(t, "two checkpoint rounds", func() bool { return ckpts() >= base+2*3 })
			if err := c.KillNode("node1"); err != nil {
				t.Fatal(err)
			}
			close(gate)

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			res, err := j.Wait(ctx)
			if err != nil {
				t.Fatalf("job did not finish after its JobManager died: %v", err)
			}
			if res.Failed {
				t.Fatalf("job failed instead of being adopted: %+v", res)
			}
			if got := j.Manager(); got != "node2" {
				t.Errorf("job manager after failover = %s, want node2", got)
			}
			seen := make(map[string]int)
			for {
				from, _, ok, err := j.TryGetMessage()
				if errors.Is(err, api.ErrJobFinished) || !ok {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				seen[from]++
			}
			mu.Lock()
			defer mu.Unlock()
			for _, sp := range specs {
				nodes := ran[sp.Name]
				if seen[sp.Name] == 0 {
					t.Errorf("no message from %s (ran on %v)", sp.Name, nodes)
				}
				if len(nodes) > 0 && nodes[0] != "node1" && len(nodes) != 1 {
					t.Errorf("%s started on %s and ran on %v: its send to the dead manager cost it a run", sp.Name, nodes[0], nodes)
				}
			}
		})
	}
}

// waitFor polls cond until it holds, failing the test after 10 s with
// what, and what each state says of itself.
func waitFor(t *testing.T, what string, cond func() bool, state ...func() string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			for _, s := range state {
				what += "; " + s()
			}
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
