package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cn/internal/api"
	"cn/internal/cluster"
	"cn/internal/protocol"
	"cn/internal/task"
)

// dpSize is well above protocol.DataInlineMax, so every shuffle payload
// takes the TM→TM chunk-fetch path and dies with its producing node.
const dpSize = 64 << 10

// dpPayload derives a producer's output deterministically from its task
// name, so a recovered producer re-publishes byte-identical content.
func dpPayload(name string, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = name[i%len(name)] ^ byte(i)
	}
	return b
}

// dataplaneRegistry deploys the shuffle workloads.
func dataplaneRegistry() *task.Registry {
	r := task.NewRegistry()
	// dp.Produce publishes one dpSize output under data/<own name>.
	r.MustRegister("dp.Produce", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			return ctx.Put("data/"+ctx.TaskName(), dpPayload(ctx.TaskName(), dpSize))
		})
	})
	// dp.Consume waits for the client's go signal, then pulls and verifies
	// every producer's output. Params: [0] producer count.
	r.MustRegister("dp.Consume", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			producers, err := task.IntParam(ctx.Params(), 0)
			if err != nil {
				return err
			}
			if _, _, err := ctx.Recv(); err != nil {
				return err
			}
			for i := 1; i <= producers; i++ {
				name := fmt.Sprintf("p%d", i)
				data, err := ctx.Get(context.Background(), "data/"+name)
				if err != nil {
					return fmt.Errorf("get %s: %w", name, err)
				}
				if !bytes.Equal(data, dpPayload(name, dpSize)) {
					return fmt.Errorf("payload mismatch for %s", name)
				}
			}
			return ctx.SendClient([]byte("ok"))
		})
	})
	// dp.Shuffle is the all-to-all stage: publish one output, then pull and
	// verify every peer's. Params: [0] peer count, [1] own index, [2]
	// payload size.
	r.MustRegister("dp.Shuffle", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			peers, err := task.IntParam(ctx.Params(), 0)
			if err != nil {
				return err
			}
			size, err := task.IntParam(ctx.Params(), 2)
			if err != nil {
				return err
			}
			if err := ctx.Put("shuffle/"+ctx.TaskName(), dpPayload(ctx.TaskName(), size)); err != nil {
				return err
			}
			for i := 1; i <= peers; i++ {
				name := fmt.Sprintf("s%d", i)
				data, err := ctx.Get(context.Background(), "shuffle/"+name)
				if err != nil {
					return fmt.Errorf("get %s: %w", name, err)
				}
				if !bytes.Equal(data, dpPayload(name, size)) {
					return fmt.Errorf("payload mismatch for %s", name)
				}
			}
			return ctx.SendClient([]byte(ctx.TaskName()))
		})
	})
	return r
}

func dpSpec(name, class string, params ...task.Param) *task.Spec {
	return &task.Spec{
		Name:   name,
		Class:  class,
		Params: params,
		Req:    task.Requirements{MemoryMB: 100, RunModel: task.RunAsThreadInTM},
	}
}

func intP(v int) task.Param {
	return task.Param{Type: task.TypeInteger, Value: fmt.Sprintf("%d", v)}
}

// TestDataplaneShuffleStorm is the data plane's concurrency storm: an
// all-to-all shuffle where every task publishes one output and pulls every
// peer's, all resolves racing the adverts, each Get compared byte for byte
// with what the producer Put. Under -race this is the data plane's
// data-race check end to end (broker park/wake, chunk fetch, shared cache).
// It runs with 64 KiB payloads (one chunk) and with 3 MiB ones (four
// chunks, the last one short), the large ones on both fabrics: on TCP the
// chunks land in the consumer's destination by posted receive, on the
// in-memory fabric they are copied out of the producer's cache. It also
// asserts the data plane's byte economics: payload bytes move TM→TM, none
// relay through a JobManager advert.
func TestDataplaneShuffleStorm(t *testing.T) {
	for _, tc := range []struct {
		name      string
		transport cluster.Transport
		peers     int
		size      int
	}{
		{"mem/64KiB", cluster.TransportMem, 8, dpSize},
		{"mem/3MiB", cluster.TransportMem, 4, 3 << 20},
		{"tcp/3MiB", cluster.TransportTCP, 4, 3 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) { shuffleStorm(t, tc.transport, tc.peers, tc.size) })
	}
}

func shuffleStorm(t *testing.T, transport cluster.Transport, peers, size int) {
	c, err := cluster.Start(cluster.Config{
		Nodes:     4,
		Transport: transport,
		MemoryMB:  64000,
		Registry:  dataplaneRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	j, err := cl.CreateJobOn("node1", "shuffle-storm", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]*task.Spec, peers)
	for i := range specs {
		specs[i] = dpSpec(fmt.Sprintf("s%d", i+1), "dp.Shuffle", intP(peers), intP(i+1), intP(size))
	}
	if _, err := j.CreateTasks(specs, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := j.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("shuffle job failed: %+v", res)
	}

	dp := c.DataplaneStats()
	if dp.Puts != int64(peers) {
		t.Errorf("broker puts = %d, want %d", dp.Puts, peers)
	}
	// peers^2 gets total; same-node gets are cache hits, cross-node gets
	// resolve — either way no payload relays through the JobManager.
	if dp.InlineBytes != 0 {
		t.Errorf("JobManager served %d inline bytes for %d-byte payloads", dp.InlineBytes, size)
	}
	served, fetched := c.DataplaneBytes()
	if fetched == 0 || served == 0 {
		t.Errorf("no TM→TM transfer despite cross-node shuffle (served=%d fetched=%d)", served, fetched)
	}
	if fetched%int64(size) != 0 || served != fetched {
		t.Errorf("served %d and fetched %d bytes, want equal multiples of the %d-byte payload", served, fetched, size)
	}
	if ws := c.WireStats(); ws.FrameErrors != 0 || ws.BulkDrops != 0 {
		t.Errorf("%d frame errors, %d bulk drops", ws.FrameErrors, ws.BulkDrops)
	}
	hits, misses := c.CacheStats()
	t.Logf("storm: %d puts, %d resolves (%d parked); %d bytes TM→TM; cache %d hits / %d misses",
		dp.Puts, dp.Resolves, dp.Parks, fetched, hits, misses)
}

// TestDataplaneChaosProducerNodeKilledBeforeGet power-cuts the node holding
// three published 64KiB outputs before the consumer pulls them — before the
// node's lease even lapses. The consumer's first fetch fails, its stale
// hint makes the JobManager drop the dead advert and re-run the completed
// producers, the fresh adverts wake the parked resolves, and the consumer
// completes with byte-identical payloads.
func TestDataplaneChaosProducerNodeKilledBeforeGet(t *testing.T) {
	const producers = 3
	c, err := cluster.Start(fastHealth(cluster.Config{
		Nodes:          5,
		MemoryMB:       64000,
		Registry:       dataplaneRegistry(),
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

	j, err := cl.CreateJobOn("node1", "dp-chaos", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]*task.Spec, 0, producers+1)
	for i := 1; i <= producers; i++ {
		specs = append(specs, dpSpec(fmt.Sprintf("p%d", i), "dp.Produce"))
	}
	cons := dpSpec("cons", "dp.Consume", intP(producers))
	for i := 1; i <= producers; i++ {
		cons.DependsOn = append(cons.DependsOn, fmt.Sprintf("p%d", i))
	}
	specs = append(specs, cons)
	placements, err := j.CreateTasks(specs, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The victim must host at least one producer and neither the
	// JobManager (failover is the next test's concern) nor the consumer.
	victim := ""
	for i := 1; i <= producers; i++ {
		node := placements[fmt.Sprintf("p%d", i)]
		if node != "node1" && node != placements["cons"] {
			victim = node
			break
		}
	}
	if victim == "" {
		t.Fatalf("no killable producer node: %v", placements)
	}

	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for every producer to complete (their adverts are published);
	// the consumer is parked in Recv waiting for the go signal.
	deadline := time.Now().Add(20 * time.Second)
	for j.Progress().Completed < producers {
		if time.Now().After(deadline) {
			t.Fatalf("producers never completed: %+v", j.Progress())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	// Release the consumer immediately — its fetches race well ahead of
	// the dead node's lease expiry, so the stale-hint path must carry the
	// recovery, not the heartbeat monitor.
	if err := j.SendMessage("cons", []byte("go")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job did not finish after producer node kill: %v", err)
	}
	if res.Failed {
		t.Fatalf("job failed instead of recovering: %+v", res)
	}
	ok := false
	for {
		from, data, more, err := j.TryGetMessage()
		if errors.Is(err, api.ErrJobFinished) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		if from == "cons" && string(data) == "ok" {
			ok = true
		}
	}
	if !ok {
		t.Error("consumer never verified the recovered payloads")
	}
	if got := j.Progress().Retried; got == 0 {
		t.Error("no TASK_RETRIED events: lost producers were not re-run")
	}
	t.Logf("killed %s; retries=%d", victim, j.Progress().Retried)
}

// TestDataplaneFailoverResolveAfterAdoption kills the JobManager after the
// producers published and before the consumer resolves. The adopter must
// answer the consumer's resolves from the checkpointed location table — and
// re-run producers whose outputs died with the origin node (the origin's
// TaskManager was serving them).
func TestDataplaneFailoverResolveAfterAdoption(t *testing.T) {
	const producers = 3
	c, err := cluster.Start(failoverConfig(4, dataplaneRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	j, err := cl.CreateJobOn("node1", "dp-failover", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]*task.Spec, 0, producers+1)
	for i := 1; i <= producers; i++ {
		specs = append(specs, dpSpec(fmt.Sprintf("p%d", i), "dp.Produce"))
	}
	cons := dpSpec("cons", "dp.Consume", intP(producers))
	for i := 1; i <= producers; i++ {
		cons.DependsOn = append(cons.DependsOn, fmt.Sprintf("p%d", i))
	}
	specs = append(specs, cons)
	if _, err := j.CreateTasks(specs, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(20 * time.Second)
	for j.Progress().Completed < producers {
		if time.Now().After(deadline) {
			t.Fatalf("producers never completed: %+v", j.Progress())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Let a checkpoint tick replicate the location table, then cut the
	// manager while the consumer is parked in Recv.
	time.Sleep(100 * time.Millisecond)
	if err := c.KillNode("node1"); err != nil {
		t.Fatal(err)
	}
	// Wait for a survivor to adopt the job, then release the consumer; its
	// resolves land at the adopter.
	adopted := false
	for time.Now().Before(deadline) {
		if _, ok := c.Server("node2").JobManager().JobProgress(j.ID); ok {
			adopted = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !adopted {
		t.Fatal("no survivor adopted the job")
	}
	for time.Now().Before(deadline) {
		if err := j.SendMessage("cons", []byte("go")); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job did not finish after JobManager death: %v", err)
	}
	if res.Failed {
		t.Fatalf("job failed instead of being adopted: %+v", res)
	}
	ok := false
	for {
		from, data, more, err := j.TryGetMessage()
		if errors.Is(err, api.ErrJobFinished) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		if from == "cons" && string(data) == "ok" {
			ok = true
		}
	}
	if !ok {
		t.Error("consumer never verified the payloads after adoption")
	}
	// Adopted, then completed: the adopter read whom to release from the
	// broker table in the checkpoint (and from the re-run producers' fresh
	// adverts), and no survivor keeps an entry of the job.
	caches := ltCaches(c)
	ltReleased(t, caches, j.ID)
	t.Logf("adopted by %s; retries=%d", j.Manager(), j.Progress().Retried)
	c.Stop()
	ltNoLiveBlobs(t, caches)
}
