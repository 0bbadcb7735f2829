package api_test

// The client's half of the one-way Out contract (docs/API.md, tuple-space
// coordination), on every fabric.

import (
	"context"
	"errors"
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

// eachFabric runs f against a two-node cluster on the in-memory fabric, the
// in-memory fabric with delay and jitter, and loopback TCP.
func eachFabric(t *testing.T, f func(t *testing.T, c *cluster.Cluster, cl *api.Client)) {
	for name, cfg := range map[string]cluster.Config{
		"mem":         {},
		"mem-latency": {Latency: 200 * time.Microsecond, Jitter: 400 * time.Microsecond, Seed: 5},
		"tcp":         {Transport: cluster.TransportTCP},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.Nodes, cfg.Registry = 2, testRegistry
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
			f(t, c, cl)
		})
	}
}

// tsFrames reads how many TS_OUT and TS_REPLY frames the fabric has sent.
func tsFrames(c *cluster.Cluster) (outs, replies int64) {
	by := c.WireStats().ByKind
	return by[msg.KindTSOut.String()], by[msg.KindTSReply.String()]
}

// wantTSFrames waits for the counters to reach the expected values — a
// frame is counted by its writer just after the write, which can trail the
// reply that proves it was sent — and fails if they settle anywhere else.
func wantTSFrames(t *testing.T, c *cluster.Cluster, outs, replies int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		o, r := tsFrames(c)
		if o == outs && r == replies {
			return
		}
		if o > outs || r > replies || time.Now().After(deadline) {
			t.Fatalf("fabric sent %d TS_OUT and %d TS_REPLY, want %d and %d", o, r, outs, replies)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSpaceOutIsOneWay(t *testing.T) {
	eachFabric(t, func(t *testing.T, c *cluster.Cluster, cl *api.Client) {
		j, err := cl.CreateJobOn("node1", "oneway", protocol.JobRequirements{})
		if err != nil {
			t.Fatal(err)
		}
		space := j.Space()
		const outs = 200
		for i := 0; i < outs; i++ {
			if err := space.Out(tuplespace.Tuple{"seed", i}); err != nil {
				t.Fatalf("out %d: %v", i, err)
			}
		}
		if err := space.Flush(ctxT(t)); err != nil {
			t.Fatalf("flush on a live job: %v", err)
		}
		// 200 tuples and the barrier; one reply per full window and the
		// barrier's.
		wantTSFrames(t, c, outs+1, outs/protocol.TSOutWindow+1)
		if p, ok := c.JobProgress("node1", j.ID); !ok || p.TSOps != outs {
			t.Errorf("ts_ops = %d (known %v), want %d: a flush is not an op", p.TSOps, ok, outs)
		}

		// A requester's own later op always finds its Out applied.
		for i := 0; i < outs; i++ {
			if err := space.Out(tuplespace.Tuple{"mine", i}); err != nil {
				t.Fatalf("out %d: %v", i, err)
			}
			if _, err := space.InP(tuplespace.Template{"mine", i}); err != nil {
				t.Fatalf("InP right after Out(%d): %v", i, err)
			}
		}
	})
}

// TestSpaceHandleSharesOneWindow: goroutines using one job handle, through
// Space values of their own, share its Out count — 1 in 64 of all their
// Outs is acknowledged — and every tuple arrives exactly once.
func TestSpaceHandleSharesOneWindow(t *testing.T) {
	eachFabric(t, func(t *testing.T, c *cluster.Cluster, cl *api.Client) {
		j, err := cl.CreateJobOn("node1", "shared", protocol.JobRequirements{})
		if err != nil {
			t.Fatal(err)
		}
		const callers, each = 16, 64
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				space := j.Space()
				for i := 0; i < each; i++ {
					if err := space.Out(tuplespace.Tuple{"t", g*each + i}); err != nil {
						t.Errorf("caller %d out %d: %v", g, i, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		space := j.Space()
		if err := space.Flush(ctxT(t)); err != nil {
			t.Fatal(err)
		}
		wantTSFrames(t, c, callers*each+1, callers*each/protocol.TSOutWindow+1)
		seen := make(map[int]bool, callers*each)
		for i := 0; i < callers*each; i++ {
			tu, err := space.InP(tuplespace.Template{"t", tuplespace.TypeOf(0)})
			if err != nil {
				t.Fatalf("tuple %d of %d: %v", i+1, callers*each, err)
			}
			if n := tu[1].(int); seen[n] {
				t.Fatalf("tuple %d stored twice", n)
			} else {
				seen[n] = true
			}
		}
		if _, err := space.InP(tuplespace.Template{"t", tuplespace.TypeOf(0)}); !errors.Is(err, tuplespace.ErrNoMatch) {
			t.Fatalf("after draining every tuple sent: %v, want ErrNoMatch", err)
		}
	})
}

// TestSpaceRefusalsAndTerminalStates: what is refused locally sends no
// frame; what only the JobManager knows surfaces at the next acknowledged
// op.
func TestSpaceRefusalsAndTerminalStates(t *testing.T) {
	eachFabric(t, func(t *testing.T, c *cluster.Cluster, cl *api.Client) {
		j, err := cl.CreateJobOn("node1", "refusals", protocol.JobRequirements{})
		if err != nil {
			t.Fatal(err)
		}
		// The job exists on its manager from its first frame on.
		if _, err := j.CreateTasks([]*task.Spec{spec("idle", "test.Noop", nil)}, nil); err != nil {
			t.Fatal(err)
		}
		space := j.Space()

		// Shape is checked here, not at the manager.
		if err := space.Out(tuplespace.Tuple{}); err == nil {
			t.Error("empty tuple accepted")
		}
		if err := space.Out(tuplespace.Tuple{"k", struct{ X int }{1}}); err == nil {
			t.Error("non-scalar field accepted")
		}
		wantTSFrames(t, c, 0, 0)

		// The job is cancelled underneath the handle, which is not told:
		// the manager drops the one-way Outs without a word, and the
		// window's acknowledged Out brings the refusal back.
		from := msg.Address{Node: cl.Node(), Job: j.ID, Task: protocol.ClientTaskName}
		c.Server("node1").JobManager().HandleCancel(protocol.Body(msg.KindCancelJob, from,
			msg.Address{Node: "node1", Job: j.ID}, protocol.CancelJobReq{JobID: j.ID, Reason: "underneath"}))
		for i := 1; i < protocol.TSOutWindow; i++ {
			if err := space.Out(tuplespace.Tuple{"late", i}); err != nil {
				t.Fatalf("one-way out %d to a closed space: %v, want nil", i, err)
			}
		}
		if err := space.Out(tuplespace.Tuple{"late", protocol.TSOutWindow}); !errors.Is(err, tuplespace.ErrClosed) {
			t.Errorf("out %d to a closed space: %v, want ErrClosed", protocol.TSOutWindow, err)
		}
		if err := space.Flush(ctxT(t)); !errors.Is(err, tuplespace.ErrClosed) {
			t.Errorf("flush on a closed space: %v, want ErrClosed", err)
		}
		wantTSFrames(t, c, protocol.TSOutWindow+1, 2)

		// Once the handle knows the job is over, nothing is sent at all.
		if err := j.Cancel("done"); err != nil {
			t.Fatal(err)
		}
		if err := space.Out(tuplespace.Tuple{"late"}); !errors.Is(err, tuplespace.ErrClosed) {
			t.Errorf("out on a finished handle: %v, want ErrClosed", err)
		}
		if err := space.Flush(context.Background()); !errors.Is(err, tuplespace.ErrClosed) {
			t.Errorf("flush on a finished handle: %v, want ErrClosed", err)
		}
		if _, err := space.In(context.Background(), tuplespace.Template{"late"}); !errors.Is(err, tuplespace.ErrClosed) {
			t.Errorf("in on a finished handle: %v, want ErrClosed", err)
		}

		released, err := cl.CreateJobOn("node1", "released", protocol.JobRequirements{})
		if err != nil {
			t.Fatal(err)
		}
		released.Release()
		if err := released.Space().Out(tuplespace.Tuple{"late"}); !errors.Is(err, tuplespace.ErrClosed) {
			t.Errorf("out on a released handle: %v, want ErrClosed", err)
		}
		time.Sleep(20 * time.Millisecond) // anything wrongly sent has been counted by now
		wantTSFrames(t, c, protocol.TSOutWindow+1, 2)
	})
}
