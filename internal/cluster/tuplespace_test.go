package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cn/internal/api"
	"cn/internal/cluster"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/tuplespace"
)

// tsRegistry deploys the tuple-space workloads.
func tsRegistry() *task.Registry {
	r := task.NewRegistry()
	// ts.Worker is a replicated bag-of-tasks worker: steal ("work", v),
	// answer ("done", v); negative v is the poison pill.
	r.MustRegister("ts.Worker", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			for {
				t, err := ctx.In(tuplespace.Template{"work", tuplespace.TypeOf(0)})
				if errors.Is(err, tuplespace.ErrClosed) {
					return nil
				}
				if err != nil {
					return err
				}
				v := t[1].(int)
				if v < 0 {
					return nil
				}
				if err := ctx.Out(tuplespace.Tuple{"done", v}); err != nil {
					return err
				}
			}
		})
	})
	return r
}

// waitParked waits until the park table of the JobManager on node holds
// want records.
func waitParked(t *testing.T, c *cluster.Cluster, node string, want int) {
	t.Helper()
	jm := c.Server(node).JobManager()
	for deadline := time.Now().Add(10 * time.Second); jm.Parked() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests parked at %s, want %d", jm.Parked(), node, want)
		}
	}
}

func tsSpec(name string) *task.Spec {
	return &task.Spec{
		Name: name, Class: "ts.Worker",
		Req: task.Requirements{MemoryMB: 100, RunModel: task.RunAsThreadInTM},
	}
}

// TestTuplespaceBagOfTasksEndToEnd runs a multi-node replicated-worker job
// that coordinates solely via tuple-space operations over the wire: the
// client seeds the bag and drains results through Job.Space, workers steal
// with blocking In, the JobManager's ts_ops census counts the traffic, and
// the space closes with the job.
func TestTuplespaceBagOfTasksEndToEnd(t *testing.T) {
	c, err := cluster.Start(cluster.Config{Nodes: 4, MemoryMB: 64000, Registry: tsRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	j, err := cl.CreateJobOn("node1", "bag", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, items = 3, 24
	specs := make([]*task.Spec, workers)
	for i := range specs {
		specs[i] = tsSpec(fmt.Sprintf("w%d", i))
	}
	placements, err := j.CreateTasks(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nodes := len(map[string]bool{placements["w0"]: true, placements["w1"]: true, placements["w2"]: true}); nodes < 2 {
		t.Fatalf("workers all on one node (%v); want a multi-node spread", placements)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}

	space := j.Space()
	for i := 0; i < items; i++ {
		if err := space.Out(tuplespace.Tuple{"work", i}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	seen := make(map[int]bool)
	for i := 0; i < items; i++ {
		tu, err := space.In(ctx, tuplespace.Template{"done", tuplespace.TypeOf(0)})
		if err != nil {
			t.Fatalf("drained %d of %d: %v", len(seen), items, err)
		}
		v := tu[1].(int)
		if seen[v] {
			t.Fatalf("result %d delivered twice", v)
		}
		seen[v] = true
	}

	// The non-blocking probes see an empty (but open) bag.
	if _, err := space.InP(tuplespace.Template{"done", tuplespace.Wildcard}); !errors.Is(err, tuplespace.ErrNoMatch) {
		t.Errorf("probe on drained bag: %v, want ErrNoMatch", err)
	}

	for i := 0; i < workers; i++ {
		if err := space.Out(tuplespace.Tuple{"work", -1}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("job failed: %+v", res)
	}

	// Census: every op above crossed the wire and was counted.
	prog, ok := c.JobProgress("node1", j.ID)
	if !ok {
		t.Fatal("no job census")
	}
	// items Out + items In (client) + items In + items Out (workers) +
	// poison Outs/Ins + the failed probe (NoMatch counts: it completed).
	if want := 4*items + 2*workers; prog.TSOps < want {
		t.Errorf("ts_ops = %d, want >= %d", prog.TSOps, want)
	}

	// Terminal job: the space is closed, operations fail with ErrClosed.
	if err := space.Out(tuplespace.Tuple{"late"}); !errors.Is(err, tuplespace.ErrClosed) {
		t.Errorf("out after job end: %v, want ErrClosed", err)
	}
	if _, err := space.In(ctx, tuplespace.Template{"done", tuplespace.Wildcard}); !errors.Is(err, tuplespace.ErrClosed) {
		t.Errorf("in after job end: %v, want ErrClosed", err)
	}
}

// TestTuplespaceBlockedRdWokenByOut: Rd parks server-side and a single Out
// wakes every matching reader without consuming the tuple.
func TestTuplespaceBlockedRdWokenByOut(t *testing.T) {
	reg := task.NewRegistry()
	reg.MustRegister("ts.Reader", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			// Park first; the signal is Out'd only after all readers run.
			t, err := ctx.Rd(tuplespace.Template{"signal", tuplespace.TypeOf(0)})
			if err != nil {
				return err
			}
			if err := ctx.Out(tuplespace.Tuple{"saw", ctx.TaskName(), t[1].(int)}); err != nil {
				return err
			}
			// Hold the job — and with it the space — open until the client
			// drained every answer.
			_, err = ctx.Rd(tuplespace.Template{"ack"})
			return err
		})
	})
	c, err := cluster.Start(cluster.Config{Nodes: 3, MemoryMB: 64000, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	j, err := cl.CreateJobOn("node1", "readers", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	const readers = 3
	specs := make([]*task.Spec, readers)
	for i := range specs {
		specs[i] = &task.Spec{Name: fmt.Sprintf("r%d", i), Class: "ts.Reader",
			Req: task.Requirements{MemoryMB: 100, RunModel: task.RunAsThreadInTM}}
	}
	if _, err := j.CreateTasks(specs, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	// Once every reader is parked, fire one signal.
	waitParked(t, c, "node1", readers)
	space := j.Space()
	if err := space.Out(tuplespace.Tuple{"signal", 42}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	woken := make(map[string]bool)
	for i := 0; i < readers; i++ {
		tu, err := space.In(ctx, tuplespace.Template{"saw", tuplespace.TypeOf(""), 42})
		if err != nil {
			t.Fatalf("woke %d of %d readers: %v", len(woken), readers, err)
		}
		woken[tu[1].(string)] = true
	}
	if len(woken) != readers {
		t.Errorf("woken readers = %v, want all %d", woken, readers)
	}
	if err := space.Out(tuplespace.Tuple{"ack"}); err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(ctx)
	if err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

// TestTuplespaceCancelledInDoesNotEatTuples: a client In abandoned by
// context cancellation sends TS_CANCEL, so its server-side park is
// unparked and a tuple Out'd afterwards stays in the space for live
// consumers instead of being destructively taken for a correlation
// nobody holds.
func TestTuplespaceCancelledInDoesNotEatTuples(t *testing.T) {
	c, err := cluster.Start(cluster.Config{Nodes: 2, MemoryMB: 64000, Registry: tsRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	j, err := cl.CreateJobOn("node1", "cancelled-in", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.CreateTasks([]*task.Spec{tsSpec("w0")}, nil); err != nil {
		t.Fatal(err)
	}
	space := j.Space()

	// Park an In for a tuple shape the worker never touches, then give up.
	// The worker starts afterwards, so the client's In is the only park.
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan error, 1)
	go func() {
		_, err := space.In(ctx, tuplespace.Template{"private", tuplespace.TypeOf(0)})
		in <- err
	}()
	waitParked(t, c, "node1", 1)
	cancel()
	if err := <-in; err == nil {
		t.Fatal("cancelled In returned a tuple")
	}
	// The TS_CANCEL has landed and the park unwound before publishing.
	waitParked(t, c, "node1", 0)
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}

	if err := space.Out(tuplespace.Tuple{"private", 7}); err != nil {
		t.Fatal(err)
	}
	tu, err := space.InP(tuplespace.Template{"private", 7})
	if err != nil {
		t.Fatalf("tuple eaten by the abandoned park: %v", err)
	}
	if tu[1].(int) != 7 {
		t.Fatalf("got %v", tu)
	}

	if err := space.Out(tuplespace.Tuple{"work", -1}); err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if res, err := j.Wait(wctx); err != nil || res.Failed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

// TestTuplespaceResultsPrecedeTheTerminalEvent: a task Outs its results
// one-way and returns at once, with no barrier. The Outs travel ahead of
// its TASK_COMPLETED on the same link and are applied as they arrive, so
// every client In parked before the job started is answered with a tuple —
// none with the ErrClosed of the job ending.
func TestTuplespaceResultsPrecedeTheTerminalEvent(t *testing.T) {
	const results = 100
	reg := task.NewRegistry()
	reg.MustRegister("ts.Burst", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			for i := 0; i < results; i++ {
				if err := ctx.Out(tuplespace.Tuple{"res", i}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	for name, cfg := range map[string]cluster.Config{
		"mem":         {},
		"mem-latency": {Latency: 200 * time.Microsecond, Jitter: 400 * time.Microsecond, Seed: 3},
		"tcp":         {Transport: cluster.TransportTCP},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.Nodes, cfg.MemoryMB, cfg.Registry = 2, 64000, reg
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
			j, err := cl.CreateJobOn("node1", "burst", protocol.JobRequirements{})
			if err != nil {
				t.Fatal(err)
			}
			sp := &task.Spec{Name: "burst", Class: "ts.Burst",
				Req: task.Requirements{MemoryMB: 100, RunModel: task.RunAsThreadInTM}}
			if _, err := j.CreateTasks([]*task.Spec{sp}, nil); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			got := make(chan error, results)
			for i := 0; i < results; i++ {
				go func() {
					_, err := j.Space().In(ctx, tuplespace.Template{"res", tuplespace.TypeOf(0)})
					got <- err
				}()
			}
			// Once every In has reached the manager and parked, start the job.
			waitParked(t, c, "node1", results)
			if err := j.Start(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < results; i++ {
				if err := <-got; err != nil {
					t.Fatalf("parked In %d of %d: %v", i+1, results, err)
				}
			}
			if res, err := j.Wait(ctx); err != nil || res.Failed {
				t.Fatalf("res=%+v err=%v", res, err)
			}
		})
	}
}

// TestTuplespaceOpAllocs guards what one tuple-space op allocates end to
// end on the in-memory fabric — requester, fabric and JobManager together,
// since every goroutine's allocations count: a one-way Out (1 in 64 of them
// acknowledged) and an In that finds its tuple, from a task and from the
// client. An Out allocates 7 objects and a satisfied In 20 (budgets 8 and
// 24): the tuple in hand and its decoded copy, a request box, a payload and
// an envelope per frame, and the call's reply channel and decoded answer.
// Before tuples went straight to the wire and the Caller kept call
// deadlines, they allocated 13 and 38; before Out was one-way, 33 and 44
// from a task, 37 and 41 from the client.
func TestTuplespaceOpAllocs(t *testing.T) {
	const maxOut, maxIn = 8, 24
	for who, r := range opAllocs(t, cluster.TransportMem, true) {
		if r.out > maxOut || r.in > maxIn {
			t.Errorf("%s: an Out allocates %.0f objects and a satisfied In %.0f, want at most %d and %d",
				who, r.out, r.in, maxOut, maxIn)
		}
	}
}

// TestTuplespaceOpAllocsTCP is TestTuplespaceOpAllocs with every frame
// crossing a loopback socket: the client is an endpoint of its own, so its
// ops are encoded, written, read and decoded both ways. On top of the
// in-memory figures a frame costs its read buffer; the envelope's addresses
// cost nothing once the connection has seen them. An Out allocates 9
// objects and a satisfied In 24, now and then two more (budgets 12 and 29);
// with an address string per frame they would be 14 and 34.
func TestTuplespaceOpAllocsTCP(t *testing.T) {
	const maxOut, maxIn = 12, 29
	r := opAllocs(t, cluster.TransportTCP, false)["client"]
	if r.out > maxOut || r.in > maxIn {
		t.Errorf("an Out over TCP allocates %.0f objects and a satisfied In %.0f, want at most %d and %d",
			r.out, r.in, maxOut, maxIn)
	}
}

type opCost struct{ out, in float64 }

// opAllocs measures an Out and a satisfied In from the client of a
// one-node cluster on the given fabric and, with fromTask, from a task on
// the node.
func opAllocs(t *testing.T, fabric cluster.Transport, fromTask bool) map[string]opCost {
	const runs = 256
	measure := func(out func(i int) error, in func() error) (r opCost, err error) {
		i := 0
		r.out = testing.AllocsPerRun(runs, func() {
			i++
			if e := out(i); e != nil {
				err = e
			}
		})
		// Every Out above is in the space before the first In is timed.
		r.in = testing.AllocsPerRun(runs, func() {
			if e := in(); e != nil {
				err = e
			}
		})
		return r, err
	}
	taskCost := make(chan opCost, 1)
	reg := task.NewRegistry()
	reg.MustRegister("ts.Alloc", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			r, err := measure(
				func(i int) error { return ctx.Out(tuplespace.Tuple{"task", i}) },
				func() error { _, err := ctx.In(tuplespace.Template{"task", tuplespace.TypeOf(0)}); return err })
			taskCost <- r
			return err
		})
	})
	// One node, no periodic traffic: nothing else allocates while counting.
	c, err := cluster.Start(cluster.Config{Nodes: 1, MemoryMB: 64000, Registry: reg, Transport: fabric,
		HeartbeatInterval: -1, CheckpointEvery: -1, TraceSample: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	j, err := cl.CreateJobOn("node1", "allocs", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	space := j.Space()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// A first op on each side opens the connections before anything is counted.
	if err := space.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	client, err := measure(
		func(i int) error { return space.Out(tuplespace.Tuple{"client", i}) },
		func() error { _, err := space.In(ctx, tuplespace.Template{"client", tuplespace.TypeOf(0)}); return err })
	if err != nil {
		t.Fatal(err)
	}
	costs := map[string]opCost{"client": client}
	if fromTask {
		sp := &task.Spec{Name: "a", Class: "ts.Alloc", Req: task.Requirements{MemoryMB: 100, RunModel: task.RunAsThreadInTM}}
		if _, err := j.CreateTasks([]*task.Spec{sp}, nil); err != nil {
			t.Fatal(err)
		}
		if res, err := j.Run(ctx); err != nil || res.Failed {
			t.Fatalf("res=%+v err=%v", res, err)
		}
		costs["task"] = <-taskCost
	}
	for who, r := range costs {
		t.Logf("%s: an Out allocates %.0f objects, a satisfied In %.0f", who, r.out, r.in)
	}
	return costs
}
