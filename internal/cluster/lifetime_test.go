package cluster_test

// The lifetime of a shuffled byte, end to end: docs/DATAPLANE.md. Under the
// race detector every node cache poisons a buffer the moment it is freed, so
// a reducer's check of what Get returned also says the buffer was not
// let go, or handed to the next job, under it.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cn/internal/api"
	"cn/internal/archive"
	"cn/internal/cluster"
	"cn/internal/protocol"
	"cn/internal/task"
)

// ltSize is a full chunk and a short one: above the free list's floor, a
// class of its own (896 KiB = 1.75 × 512 KiB).
const ltSize = 896 << 10

// ltFill writes the payload of (job, mapper, reducer) into p: a 64-byte
// block derived from all three, repeated, so one job's bytes never pass for
// another's. Written by doubling copies and checked with bytes.Equal: under
// the race detector a loop over a megabyte costs tens of milliseconds, a
// copy of it almost nothing.
func ltFill(p []byte, job, m, r int) {
	x := uint64(job*7919 + m*131 + r*17 + 1)
	for i := 0; i < 64; i += 8 {
		x = x*6364136223846793005 + 1442695040888963407
		binary.LittleEndian.PutUint64(p[i:], x)
	}
	for n := 64; n < len(p); n *= 2 {
		copy(p[n:], p[:n])
	}
}

// lifetimeRegistry deploys a shuffle whose every Get is checked, word for word.
// Params of both classes: job number, own index, peer count, payload size.
func lifetimeRegistry() *task.Registry {
	params := func(ctx task.Context) (job, self, peers, size int, err error) {
		for i, dst := range []*int{&job, &self, &peers, &size} {
			if *dst, err = task.IntParam(ctx.Params(), i); err != nil {
				return
			}
		}
		return
	}
	r := task.NewRegistry()
	r.MustRegister("lt.Map", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			job, m, reducers, size, err := params(ctx)
			if err != nil {
				return err
			}
			// One buffer for every Put: the cache keeps a copy of its own.
			p := make([]byte, size)
			for red := 0; red < reducers; red++ {
				ltFill(p, job, m, red)
				if err := ctx.Put(fmt.Sprintf("m%d.r%d", m, red), p); err != nil {
					return err
				}
			}
			return nil
		})
	})
	reduce := func(ctx task.Context) error {
		job, red, mappers, size, err := params(ctx)
		if err != nil {
			return err
		}
		var held [][]byte
		want := make([]byte, size)
		for m := 0; m < mappers; m++ {
			data, err := ctx.Get(context.Background(), fmt.Sprintf("m%d.r%d", m, red))
			if err != nil {
				return err
			}
			held = append(held, data)
		}
		// Checked after the last Get: every blob stays the task's until it
		// returns, not just until its next call.
		for m, data := range held {
			if ltFill(want, job, m, red); !bytes.Equal(data, want) {
				return fmt.Errorf("wrong bytes from m%d for r%d of job %d", m, red, job)
			}
		}
		return nil
	}
	r.MustRegister("lt.Reduce", func() task.Task { return task.Func(reduce) })
	// lt.ReduceFail reads and checks like lt.Reduce, then fails its job.
	r.MustRegister("lt.ReduceFail", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			if err := reduce(ctx); err != nil {
				return err
			}
			return errors.New("boom")
		})
	})
	// lt.ReduceWait reads and checks, tells the client, and holds what it
	// read until its job is cancelled.
	r.MustRegister("lt.ReduceWait", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			if err := reduce(ctx); err != nil {
				return err
			}
			if err := ctx.SendClient([]byte("holding")); err != nil {
				return err
			}
			_, _, err := ctx.Recv()
			return err
		})
	})
	r.MustRegister("lt.Noop", func() task.Task {
		return task.Func(func(task.Context) error { return nil })
	})
	return r
}

// ltSpecs is one shuffle job: mappers × reducers blobs of size bytes, the
// reducers of the given class.
func ltSpecs(job, mappers, reducers, size int, reduceClass string) []*task.Spec {
	var specs []*task.Spec
	for m := 0; m < mappers; m++ {
		specs = append(specs, dpSpec(fmt.Sprintf("map%d", m), "lt.Map", intP(job), intP(m), intP(reducers), intP(size)))
	}
	for r := 0; r < reducers; r++ {
		specs = append(specs, dpSpec(fmt.Sprintf("red%d", r), reduceClass, intP(job), intP(r), intP(mappers), intP(size)))
	}
	return specs
}

// ltCaches captures every node's blob cache: Stop forgets the servers.
func ltCaches(c *cluster.Cluster) map[string]*archive.Cache {
	out := make(map[string]*archive.Cache)
	for _, node := range c.Nodes() {
		out[node] = c.Server(node).TaskManager().BlobCache()
	}
	return out
}

// ltReleased waits until no node's cache holds an entry of the job. The
// release is a one-way frame sent before the client's terminal event, so it
// is close behind that event but not ordered with it.
func ltReleased(t *testing.T, caches map[string]*archive.Cache, jobID string) {
	t.Helper()
	for node, cache := range caches {
		ltEventually(t, fmt.Sprintf("%s to drop its entries of %s", node, jobID),
			func() bool { return cache.OwnedBy(jobID) == 0 })
	}
}

// ltEventually yields until cond holds.
func ltEventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// ltNoLiveBlobs is the census after Stop: no task, no reply frame and no
// entry is left to hold a counted buffer. A connection's writer lets go of
// a frame's tail after the write returns, and Stop does not wait for
// writers, so the last reply's hold may trail Stop by a scheduling quantum.
func ltNoLiveBlobs(t *testing.T, caches map[string]*archive.Cache) {
	t.Helper()
	for node, cache := range caches {
		ltEventually(t, fmt.Sprintf("%s to hold no counted blob after Stop (%d entries)", node, cache.Len()),
			func() bool { return cache.LiveBlobs() == 0 })
	}
}

func eachFabric(t *testing.T, f func(t *testing.T, tr cluster.Transport)) {
	t.Run("mem", func(t *testing.T) { f(t, cluster.TransportMem) })
	t.Run("tcp", func(t *testing.T) { f(t, cluster.TransportTCP) })
}

// TestShuffleBackToBackReusesBuffersKeepsBytes: 200 shuffle jobs in a row on
// one cluster, each with payloads of its own, every reducer holding all it
// read until it has checked all of it. From the second job on the buffers
// are the previous jobs': if one were reused — or poisoned — while a task, a
// reply frame or an entry still held it, a check would fail. At the end
// the caches are empty, the free lists are not, and far fewer buffers were
// allocated than blobs moved.
func TestShuffleBackToBackReusesBuffersKeepsBytes(t *testing.T) {
	const jobs, mappers, reducers = 200, 2, 2
	eachFabric(t, func(t *testing.T, tr cluster.Transport) {
		c, err := cluster.Start(cluster.Config{Nodes: 3, Transport: tr, MemoryMB: 64000,
			Registry: lifetimeRegistry(), HeartbeatInterval: -1, CheckpointEvery: -1, TraceSample: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		caches := ltCaches(c)
		cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		var last string
		for n := 0; n < jobs; n++ {
			j, err := cl.CreateJobOn("node1", fmt.Sprintf("shuffle%d", n), protocol.JobRequirements{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.CreateTasks(ltSpecs(n, mappers, reducers, ltSize, "lt.Reduce"), nil); err != nil {
				t.Fatal(err)
			}
			res, err := j.Run(ctx)
			if err != nil || res.Failed {
				t.Fatalf("job %d: %v, %+v", n, err, res)
			}
			last = j.ID
			j.Release()
		}
		ltReleased(t, caches, last)
		var free, transfers int64
		for node, cache := range caches {
			if cache.Len() != 0 {
				t.Errorf("%s: %d entries left after %d released jobs", node, cache.Len(), jobs)
			}
			free += cache.FreeBytes()
			transfers += cache.Transfers()
		}
		if free == 0 {
			t.Error("no node kept a buffer for reuse")
		}
		if transfers < jobs*mappers*reducers {
			t.Errorf("%d blobs entered the caches, want at least %d", transfers, jobs*mappers*reducers)
		}
		c.Stop()
		ltNoLiveBlobs(t, caches)
	})
}

// TestEveryOutcomeReleasesTheJobsBlobs: however a job ends — completed,
// failed, cancelled while a task holds what it read, abandoned before it
// started — no node's cache keeps an entry of it, and after Stop nothing
// holds a counted buffer. A completed job that used the data plane costs
// one CANCEL_JOB per node it touched; one that did not costs none.
func TestEveryOutcomeReleasesTheJobsBlobs(t *testing.T) {
	const mappers, reducers = 2, 2
	eachFabric(t, func(t *testing.T, tr cluster.Transport) {
		// The TTL is what abandons the unstarted job below: short, but long
		// enough to compose a job in under the race detector.
		c, err := cluster.Start(cluster.Config{Nodes: 3, Transport: tr, MemoryMB: 64000,
			Registry: lifetimeRegistry(), TombstoneTTL: 250 * time.Millisecond, CheckpointEvery: -1, TraceSample: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		caches := ltCaches(c)
		cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		create := func(name string, specs []*task.Spec) (*api.Job, map[string]bool) {
			t.Helper()
			j, err := cl.CreateJobOn("node1", name, protocol.JobRequirements{})
			if err != nil {
				t.Fatal(err)
			}
			placed, err := j.CreateTasks(specs, nil)
			if err != nil {
				t.Fatal(err)
			}
			nodes := make(map[string]bool)
			for _, node := range placed {
				nodes[node] = true
			}
			return j, nodes
		}
		cancels := func() int64 { return c.WireStats().ByKind["CANCEL_JOB"] }
		// Counters of sent frames trail the send; wait for the count the
		// release is known to reach, then see that it stays there.
		wantCancels := func(what string, want int64) {
			t.Helper()
			ltEventually(t, what+": its CANCEL_JOB frames", func() bool { return cancels() >= want })
			if got := cancels(); got != want {
				t.Errorf("%s: %d CANCEL_JOB frames so far, want %d", what, got, want)
			}
		}

		// No data plane, completed: nothing new on the wire.
		j, _ := create("plain", []*task.Spec{dpSpec("a", "lt.Noop"), dpSpec("b", "lt.Noop")})
		if res, err := j.Run(ctx); err != nil || res.Failed {
			t.Fatalf("plain: %v, %+v", err, res)
		}
		wantCancels("a completed job that never Put", 0)

		// Completed.
		j, nodes := create("completed", ltSpecs(1, mappers, reducers, ltSize, "lt.Reduce"))
		if res, err := j.Run(ctx); err != nil || res.Failed {
			t.Fatalf("completed: %v, %+v", err, res)
		}
		ltReleased(t, caches, j.ID)
		sent := int64(len(nodes))
		wantCancels("a completed job that Put", sent)

		// Failed: a reducer fails after reading.
		j, nodes = create("failed", ltSpecs(2, mappers, reducers, ltSize, "lt.ReduceFail"))
		if res, err := j.Run(ctx); err != nil || !res.Failed {
			t.Fatalf("failed: %v, %+v", err, res)
		}
		ltReleased(t, caches, j.ID)
		sent += int64(len(nodes))
		wantCancels("a failed job", sent)

		// Cancelled while both reducers hold what they read.
		j, _ = create("cancelled", ltSpecs(3, mappers, reducers, ltSize, "lt.ReduceWait"))
		if err := j.Start(); err != nil {
			t.Fatal(err)
		}
		for holding := 0; holding < reducers; {
			_, data, err := j.GetMessage(ctx)
			if err != nil {
				t.Fatalf("cancelled: waiting for the reducers: %v", err)
			}
			if string(data) == "holding" {
				holding++
			}
		}
		if err := j.Cancel("test"); err != nil {
			t.Fatal(err)
		}
		ltReleased(t, caches, j.ID)

		// Abandoned: composed, never started; it has put nothing, and its end
		// must not disturb what is there.
		j, _ = create("abandoned", ltSpecs(4, mappers, reducers, ltSize, "lt.Reduce"))
		ltEventually(t, "the unstarted job to be abandoned",
			func() bool { return c.Server("node1").JobManager().ActiveJobs() == 0 })
		ltReleased(t, caches, j.ID)

		for node, cache := range caches {
			if cache.Len() != 0 {
				t.Errorf("%s: %d entries left after every job ended", node, cache.Len())
			}
		}
		c.Stop()
		ltNoLiveBlobs(t, caches)
	})
}
