package server_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"cn/internal/api"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/server"
	"cn/internal/task"
	"cn/internal/transport"
	"cn/internal/tuplespace"
)

// tapNetwork shows every delivered frame to tap before its handler.
type tapNetwork struct {
	transport.Network
	tap func(*msg.Message)
}

func (n tapNetwork) Attach(node string, h transport.Handler) (transport.Endpoint, error) {
	return n.Network.Attach(node, func(m *msg.Message) {
		n.tap(m)
		h(m)
	})
}

// TestRuntimeSendsNoGob runs one job of each benchmark shape — a fan-out,
// a dependency chain, a shuffle over the data plane, a tuple-space bag that
// lives through checkpoint rounds — on a three-node in-memory cluster and
// fails on any gob-encoded body the runtime itself produced. Only an
// application's own struct inside a USER or BROADCAST may use the fallback.
func TestRuntimeSendsNoGob(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[msg.Kind]int)
	var gob []string
	mem := transport.NewIdealNetwork()
	defer mem.Close()
	net := tapNetwork{Network: mem, tap: func(m *msg.Message) {
		mu.Lock()
		defer mu.Unlock()
		seen[m.Kind]++
		if len(m.Payload) > 0 && m.Payload[0] == msg.TagGob && m.Kind != msg.KindUser && m.Kind != msg.KindBroadcast {
			gob = append(gob, m.Kind.String())
		}
	}}

	reg := testRegistry()
	big := bytes.Repeat([]byte{7}, 1<<20) // past the inline limit: pulled TM to TM
	reg.MustRegister("shape.Map", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			if err := ctx.Put(ctx.TaskName()+"/small", []byte("inline")); err != nil {
				return err
			}
			return ctx.Put(ctx.TaskName()+"/big", big)
		})
	})
	reg.MustRegister("shape.Reduce", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			for _, m := range []string{"m1", "m2"} {
				for _, part := range []string{"/small", "/big"} {
					if _, err := ctx.Get(context.Background(), m+part); err != nil {
						return err
					}
				}
			}
			return ctx.SendClient([]byte("reduced"))
		})
	})
	reg.MustRegister("shape.Worker", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			for {
				tu, err := ctx.In(tuplespace.Template{"work", tuplespace.TypeOf(0)})
				if err != nil {
					return err
				}
				if tu[1].(int) < 0 {
					return nil
				}
				if err := ctx.Out(tuplespace.Tuple{"done", tu[1].(int)}); err != nil {
					return err
				}
			}
		})
	})
	for i := 1; i <= 3; i++ {
		srv, err := server.Start(net, server.Config{
			Node: fmt.Sprintf("n%d", i), Registry: reg, MemoryMB: 64000,
			HeartbeatInterval: 10 * time.Millisecond, SuspectAfter: time.Hour, DeadAfter: 2 * time.Hour,
			CheckpointEvery: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
	}
	cl, err := api.Initialize(net, api.Options{DiscoveryWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	mk := func(name, class string, deps ...string) *task.Spec {
		return &task.Spec{Name: name, Class: class, DependsOn: deps,
			Req: task.Requirements{MemoryMB: 1, RunModel: task.RunAsThreadInTM}}
	}
	run := func(name string, specs []*task.Spec, body func(j *api.Job)) {
		t.Helper()
		j, err := cl.CreateJob(name, protocol.JobRequirements{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer j.Release()
		if _, err := j.CreateTasks(specs, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := j.Start(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if body != nil {
			body(j)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if res, err := j.Wait(ctx); err != nil || res.Failed {
			t.Fatalf("%s: %v %+v", name, err, res)
		}
	}

	var fan []*task.Spec
	for i := 0; i < 32; i++ {
		fan = append(fan, mk(fmt.Sprintf("t%d", i), "srv.Noop"))
	}
	run("fanout", fan, nil)
	run("chain", []*task.Spec{mk("a", "srv.Noop"), mk("b", "srv.Noop", "a"), mk("c", "srv.Noop", "b")}, nil)
	run("shuffle", []*task.Spec{mk("m1", "shape.Map"), mk("m2", "shape.Map"), mk("r", "shape.Reduce")}, nil)
	run("bag", []*task.Spec{mk("w1", "shape.Worker"), mk("w2", "shape.Worker")}, func(j *api.Job) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for i := 0; i < 16; i++ {
			if err := j.Space().Out(tuplespace.Tuple{"work", i}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ {
			if _, err := j.Space().In(ctx, tuplespace.Template{"done", tuplespace.TypeOf(0)}); err != nil {
				t.Fatal(err)
			}
		}
		// Hold the job open until a checkpoint round has replicated it.
		for mem.Stats().KindCounts()["JM_CHECKPOINT"] == 0 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < 2; i++ {
			if err := j.Space().Out(tuplespace.Tuple{"work", -1}); err != nil {
				t.Fatal(err)
			}
		}
	})

	mu.Lock()
	defer mu.Unlock()
	for _, k := range gob {
		t.Errorf("a %s frame carried a gob body", k)
	}
	for _, k := range []msg.Kind{msg.KindAssignTasks, msg.KindExecTask, msg.KindTaskEvents, msg.KindJMCheckpoint, msg.KindDataPut, msg.KindTSIn, msg.KindUser} {
		if seen[k] == 0 {
			t.Errorf("the jobs produced no %s frame; the check would miss it", k)
		}
	}
	for _, k := range []msg.Kind{msg.KindTaskStarted, msg.KindTaskCompleted, msg.KindTaskFailed} {
		if seen[k] != 0 {
			t.Errorf("%d frames of kind %s: the three are labels inside TASK_EVENTS, not frames", seen[k], k)
		}
	}
}
