package cluster_test

// The placement directory between solicitation rounds: what a JobManager
// knows of a node's capacity is what the node last reported on its
// assignment replies and event batches, and a rollback reaches the node
// before the retry that needs what it frees.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cn/internal/protocol"
	"cn/internal/task"
)

// sized is n no-op specs of memMB each, named prefix0, prefix1, ...
func sized(prefix string, n, memMB int) []*task.Spec {
	specs := noops(n, memMB)
	for i, sp := range specs {
		sp.Name = fmt.Sprintf("%s%d", prefix, i)
	}
	return specs
}

// TestClosedLoopPlacesOnNodeReports: a closed loop of jobs that each fill
// both nodes — eight 1000 MB tasks per 8000 MB node — with offers cached
// for an hour. Only the first job solicits: every later one is placed from
// the cache, with no round and no invalidation, because the event batches
// that ended the job before it reported its nodes empty again.
func TestClosedLoopPlacesOnNodeReports(t *testing.T) {
	const nodes, jobs = 2, 6
	for name, cfg := range twoFabrics() {
		t.Run(name, func(t *testing.T) {
			cfg.PlacementTTL = time.Hour
			c, cl := startQuiet(t, cfg, nodes, 8000)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := 0; i < jobs; i++ {
				before := c.PlacementStats()
				j, err := cl.CreateJobOn("node1", fmt.Sprintf("fill%d", i), protocol.JobRequirements{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := j.CreateTasks(noops(8*nodes, 1000), nil); err != nil {
					t.Fatalf("job %d: %v", i, err)
				}
				after := c.PlacementStats()
				if rounds, inv := after.SolicitRounds-before.SolicitRounds, after.Invalidations-before.Invalidations; i > 0 && (rounds != 0 || inv != 0) {
					t.Errorf("job %d took %d solicitation rounds and %d invalidations, want none", i, rounds, inv)
				}
				if res, err := j.Run(ctx); err != nil || res.Failed {
					t.Fatalf("job %d: %v %+v", i, err, res)
				}
				j.Release()
			}
		})
	}
}

// TestRefusedFrameRollbackPrecedesRetry: a job's second frame places two of
// its tasks and is refused for a third that fits nowhere, so its JobManager
// rolls the two back. The client retries the two at once, and they fit only
// on the memory the rollback frees: the node applies the rollback before it
// answers the retry's solicitation, so the retry is placed by its first
// round, with no invalidation.
func TestRefusedFrameRollbackPrecedesRetry(t *testing.T) {
	for name, cfg := range twoFabrics() {
		t.Run(name, func(t *testing.T) {
			c, cl := startQuiet(t, cfg, 2, 1000)
			j, err := cl.CreateJobOn("node1", "rollback", protocol.JobRequirements{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Release()
			// One 400 MB task on each node leaves 600 MB free on both.
			if _, err := j.CreateTasks(sized("a", 2, 400), nil); err != nil {
				t.Fatal(err)
			}
			// b0 and b1 take 400 MB more on each node; c, at 700 MB, fits
			// nowhere, so the frame is refused and b0, b1 rolled back.
			second := append(sized("b", 2, 400), sized("c", 1, 700)...)
			if _, err := j.CreateTasks(second, nil); err == nil {
				t.Fatal("a frame with a task that fits nowhere was accepted")
			}
			before := c.PlacementStats()
			placed, err := j.CreateTasks(sized("b", 2, 400), nil)
			if err != nil {
				t.Fatalf("the retry did not fit on the rolled-back memory: %v", err)
			}
			after := c.PlacementStats()
			if placed["b0"] == placed["b1"] {
				t.Errorf("retry placed %v, want one task on each node", placed)
			}
			if rounds, inv := after.SolicitRounds-before.SolicitRounds, after.Invalidations-before.Invalidations; rounds != 1 || inv != 0 {
				t.Errorf("the retry took %d solicitation rounds and %d invalidations, want 1 and 0", rounds, inv)
			}
		})
	}
}
