package taskmgr_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/api"
	"cn/internal/cluster"
	"cn/internal/protocol"
	"cn/internal/task"
)

// BenchmarkShufflePutGet: a 3 MiB Put on one node and the Get of it on
// another, over loopback TCP — four blobs per job, a job per iteration, each
// node with room for one of the two tasks so the pull is always remote. B/op
// is the whole process: both TaskManagers, the JobManager and the client.
//
//	go test ./internal/taskmgr -run '^$' -bench ShufflePutGet -benchmem
func BenchmarkShufflePutGet(b *testing.B) {
	const blobs, size = 4, 3 << 20
	var round atomic.Uint64
	p := make([]byte, size) // the one producer's buffer: jobs run one at a time
	reg := task.NewRegistry()
	reg.MustRegister("bench.Put", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			for i := 0; i < blobs; i++ {
				// A digest of its own per blob and job: nothing is a cache hit.
				binary.LittleEndian.PutUint64(p, round.Load()<<8|uint64(i))
				if err := ctx.Put(fmt.Sprintf("k%d", i), p); err != nil {
					return err
				}
			}
			return nil
		})
	})
	reg.MustRegister("bench.Get", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			for i := 0; i < blobs; i++ {
				data, err := ctx.Get(context.Background(), fmt.Sprintf("k%d", i))
				if err != nil {
					return err
				}
				if len(data) != size || binary.LittleEndian.Uint64(data) != round.Load()<<8|uint64(i) {
					return fmt.Errorf("blob %d: wrong bytes", i)
				}
			}
			return nil
		})
	})
	c, err := cluster.Start(cluster.Config{Nodes: 2, Transport: cluster.TransportTCP, MemoryMB: 100,
		Registry: reg, HeartbeatInterval: -1, CheckpointEvery: -1, TraceSample: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	cl, err := api.Initialize(c.Network(), api.Options{DiscoveryWindow: 20 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	spec := func(name, class string) *task.Spec {
		return &task.Spec{Name: name, Class: class, Req: task.Requirements{MemoryMB: 60, RunModel: task.RunAsThreadInTM}}
	}
	job := func() {
		round.Add(1)
		j, err := cl.CreateJob("shuffle", protocol.JobRequirements{})
		if err != nil {
			b.Fatal(err)
		}
		defer j.Release()
		placed, err := j.CreateTasks([]*task.Spec{spec("put", "bench.Put"), spec("get", "bench.Get")}, nil)
		if err != nil || placed["put"] == placed["get"] {
			b.Fatalf("placement %v, %v; want the two tasks on two nodes", placed, err)
		}
		if res, err := j.Run(context.Background()); err != nil || res.Failed {
			b.Fatalf("job: %v, %+v", err, res)
		}
	}
	job() // connections dialed, free lists warm
	b.SetBytes(blobs * size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job()
	}
}
