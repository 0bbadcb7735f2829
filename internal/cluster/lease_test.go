package cluster_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cn/internal/api"
	"cn/internal/cluster"
	"cn/internal/protocol"
)

// TestShortJobsKeepNodeLeases: a node's lease is renewed by its own beat,
// not by the work it hosts, so back-to-back short jobs — each over before
// its nodes' next beat — never let a healthy node lapse. A closed loop of
// 8-task no-op jobs runs for 20 × DeadAfter: no job fails and no resource
// directory evicts a node.
func TestShortJobsKeepNodeLeases(t *testing.T) {
	for name, fabric := range map[string]cluster.Transport{"mem": cluster.TransportMem, "tcp": cluster.TransportTCP} {
		t.Run(name, func(t *testing.T) {
			cfg := fastHealth(cluster.Config{Nodes: 4, Transport: fabric, MemoryMB: 64000,
				Registry: noopRegistry(), TraceSample: -1})
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

			var jobs, failed int
			var first error
			for end := time.Now().Add(20 * cfg.DeadAfter); time.Now().Before(end); jobs++ {
				if err := shortJob(cl); err != nil {
					failed++
					if first == nil {
						first = err
					}
				}
			}
			if failed > 0 {
				t.Errorf("%d of %d jobs failed; the first: %v", failed, jobs, first)
			}
			if n := c.PlacementStats().Evictions; n != 0 {
				t.Errorf("the directories evicted %d healthy nodes in %d jobs", n, jobs)
			}
			t.Logf("%d jobs", jobs)
		})
	}
}

// shortJob runs one 8-task no-op job. A job whose placement fails is
// cancelled, so its manager's slot is free for the next one.
func shortJob(cl *api.Client) error {
	j, err := cl.CreateJob("short", protocol.JobRequirements{})
	if err != nil {
		return err
	}
	defer j.Release()
	if _, err := j.CreateTasks(noops(8, 1), nil); err != nil {
		_ = j.Cancel("placement failed")
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := j.Run(ctx)
	if err != nil {
		return err
	}
	if res.Failed {
		return fmt.Errorf("job %s failed: %s %v", res.JobID, res.Err, res.TaskErrs)
	}
	return nil
}
