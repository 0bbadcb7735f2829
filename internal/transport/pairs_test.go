package transport_test

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
	"cn/internal/transport"
	"cn/internal/tuplespace"
)

// TestTCPClusterKeepsOneConnectionPerPair boots a TCP cluster, runs a
// tuple-space job across its nodes from a client, and counts the sockets
// each pair of nodes that talked holds. With no periodic traffic every frame
// a node sends answers or follows one it received, so no two nodes can dial
// each other at once: every pair holds one socket. With heartbeats and
// checkpoints every node sends unprompted, both ends of a pair may dial at
// the same moment, and such a pair keeps the two sockets, one dialed by
// each end; two sockets dialed the same way are never kept.
func TestTCPClusterKeepsOneConnectionPerPair(t *testing.T) {
	t.Run("quiet", func(t *testing.T) {
		pairs, raced := clusterPairs(t, cluster.Config{HeartbeatInterval: -1, CheckpointEvery: -1}, 0)
		if raced != 0 {
			t.Errorf("%d of %d pairs hold two sockets, want one socket each", raced, pairs)
		}
	})
	t.Run("beating", func(t *testing.T) {
		pairs, raced := clusterPairs(t, cluster.Config{HeartbeatInterval: 5 * time.Millisecond}, 100*time.Millisecond)
		t.Logf("%d pairs; %d dialed from both ends at once", pairs, raced)
	})
}

// clusterPairs runs a job on a three-node TCP cluster booted with cfg,
// lets the cluster run on for linger, and returns how many node pairs hold
// a socket and how many of them hold two, one dialed by each end. It fails
// the test on a pair that holds anything else.
func clusterPairs(t *testing.T, cfg cluster.Config, linger time.Duration) (pairs, raced int) {
	reg := task.NewRegistry()
	reg.MustRegister("pairs.Worker", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			for {
				tu, err := ctx.In(tuplespace.Template{"work", tuplespace.TypeOf(0)})
				if errors.Is(err, tuplespace.ErrClosed) {
					return nil
				}
				if err != nil {
					return err
				}
				if v := tu[1].(int); v < 0 {
					return nil
				} else if err := ctx.Out(tuplespace.Tuple{"done", v}); err != nil {
					return err
				}
			}
		})
	})
	cfg.Nodes, cfg.MemoryMB, cfg.Registry, cfg.Transport = 3, 64000, reg, cluster.TransportTCP
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
	j, err := cl.CreateJobOn("node1", "pairs", protocol.JobRequirements{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, items = 3, 32
	specs := make([]*task.Spec, workers)
	for i := range specs {
		specs[i] = &task.Spec{Name: fmt.Sprintf("w%d", i), Class: "pairs.Worker",
			Req: task.Requirements{MemoryMB: 100, RunModel: task.RunAsThreadInTM}}
	}
	if _, err := j.CreateTasks(specs, nil); err != nil {
		t.Fatal(err)
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
	for i := 0; i < items; i++ {
		if _, err := space.In(ctx, tuplespace.Template{"done", tuplespace.TypeOf(0)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < workers; i++ {
		if err := space.Out(tuplespace.Tuple{"work", -1}); err != nil {
			t.Fatal(err)
		}
	}
	if res, err := j.Wait(ctx); err != nil || res.Failed {
		t.Fatalf("job: %+v, %v", res, err)
	}
	time.Sleep(linger)

	dials := transport.Dials(c.Network().(*transport.TCPNetwork))
	for p, n := range dials {
		back := dials[[2]string{p[1], p[0]}]
		if n > 1 {
			t.Errorf("%s dialed %s %d times; a pair keeps one socket per end that dialed", p[0], p[1], n)
		}
		if back == 0 || p[0] < p[1] {
			pairs++
		}
		if back > 0 && p[0] < p[1] {
			raced++
		}
	}
	// The client talks to node1, and node1 to the nodes running its workers.
	if pairs < 3 {
		t.Errorf("%d pairs hold a socket (%v), want the client's and its JobManager's", pairs, dials)
	}
	return pairs, raced
}
