package server

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/api"
	"cn/internal/config"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/transport"
	"cn/internal/tuplespace"
)

// BenchmarkInboundTSOut measures the inbound path of the smallest request
// the runtime serves: one op is a TS_OUT frame and the TS_INP that takes the
// tuple back out, each pushed through Server.handle as the in-memory fabric
// would deliver it (decode, space op, TS_REPLY encoded and queued to the
// requester). The acknowledged row answers both; the one-way row is the
// TS_OUT 63 Outs in 64 are — no TS_REPLY encoded or enqueued for it. Run
// with -benchmem: allocs/op is the per-message budget.
func BenchmarkInboundTSOut(b *testing.B) {
	for _, row := range []struct {
		name    string
		noReply bool
	}{{"acknowledged", false}, {"one-way", true}} {
		b.Run(row.name, func(b *testing.B) { benchInboundTSOut(b, row.noReply) })
	}
}

func benchInboundTSOut(b *testing.B, noReply bool) {
	net := transport.NewIdealNetwork()
	defer net.Close()
	srv, err := Start(net, "n1", config.Config{HeartbeatInterval: -1, CheckpointEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	var replies atomic.Int64
	created := make(chan *msg.Message, 1)
	if _, err := net.Attach("x", func(m *msg.Message) {
		if m.Kind == msg.KindTSReply {
			replies.Add(1)
			return
		}
		created <- m
	}); err != nil {
		b.Fatal(err)
	}
	from, to := msg.Address{Node: "x", Task: protocol.ClientTaskName}, msg.Address{Node: "n1", Job: "x.bench"}
	srv.handle(protocol.Body(msg.KindCreateTasks, from, to, protocol.CreateTasksReq{JobID: to.Job, ClientNode: "x", Name: "bench"}))
	if m := <-created; m.Kind != msg.KindTasksAccepted {
		b.Fatalf("create job answered %v", m.Kind)
	}
	out := protocol.Body(msg.KindTSOut, from, to, &protocol.TSOpReq{Tuple: tuplespace.Tuple{"res", 7, 49}, NoReply: noReply}).Payload
	inp := protocol.Body(msg.KindTSInP, from, to, &protocol.TSOpReq{Tuple: tuplespace.Tuple{"res", tuplespace.TypeOf(0), tuplespace.TypeOf(0)}}).Payload
	perOp := int64(2)
	if noReply {
		perOp = 1
	}

	// The reply lane sheds past its cap instead of blocking; pause at each
	// window until the requester has drained what was sent.
	const window = 1024
	drain := func(want int64) {
		for replies.Load() < want {
			time.Sleep(50 * time.Microsecond)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.handle(msg.New(msg.KindTSOut, from, to, out))
		srv.handle(msg.New(msg.KindTSInP, from, to, inp))
		if i%window == window-1 {
			drain(perOp * int64(i+1))
		}
	}
	drain(perOp * int64(b.N))
	b.StopTimer()
	if got := replies.Load(); got != perOp*int64(b.N) {
		b.Fatalf("%d replies for %d ops, want %d", got, b.N, perOp*int64(b.N))
	}
}

// BenchmarkFanoutRunPhase measures the run phase of a fan-out: a 32-task
// job of no-ops already placed on four nodes of an in-memory fabric, timed
// from the start frame to JOB_COMPLETED. frames/op counts every frame the fabric
// carried in that window — the exec dispatches, the lifecycle events up to
// the manager and on to the client, the start call and the terminal event —
// and must stay a cost per node, not per task: 40 is twice what the batched
// path sends (16-24: 3 + one EXEC_TASK and about two TASK_EVENTS hops per
// node) and a quarter of what a frame per task and event did (163).
func BenchmarkFanoutRunPhase(b *testing.B) {
	const tasks, nodes = 32, 4
	net := transport.NewIdealNetwork()
	defer net.Close()
	reg := task.NewRegistry()
	reg.MustRegister("bench.Noop", func() task.Task {
		return task.Func(func(task.Context) error { return nil })
	})
	for i := 1; i <= nodes; i++ {
		srv, err := Start(net, fmt.Sprintf("node%d", i), config.Config{Registry: reg,
			HeartbeatInterval: -1, CheckpointEvery: -1, TraceSample: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
	}
	cl, err := api.Initialize(net, api.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	specs := make([]*task.Spec, tasks)
	for i := range specs {
		specs[i] = &task.Spec{Name: fmt.Sprintf("t%02d", i), Class: "bench.Noop",
			Req: task.Requirements{MemoryMB: 1000, RunModel: task.RunAsThreadInTM}}
	}
	var frames int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		j, err := cl.CreateJobOn("node1", "fanout", protocol.JobRequirements{})
		if err != nil {
			b.Fatal(err)
		}
		placed, err := j.CreateTasks(specs, nil)
		if err != nil {
			b.Fatal(err)
		}
		hosts := make(map[string]bool)
		for _, node := range placed {
			hosts[node] = true
		}
		if len(hosts) != nodes {
			b.Fatalf("tasks placed on %d nodes, want %d", len(hosts), nodes)
		}
		before := net.Stats().Sent.Load()
		b.StartTimer()
		res, err := j.Run(context.Background())
		b.StopTimer()
		if err != nil || res.Failed {
			b.Fatalf("run: %v %+v", err, res)
		}
		if p := j.Progress(); p.Completed != tasks {
			b.Fatalf("%d of %d tasks completed when Wait returned", p.Completed, tasks)
		}
		frames += net.Stats().Sent.Load() - before
		j.Release()
		b.StartTimer()
	}
	b.StopTimer()
	perOp := float64(frames) / float64(b.N)
	b.ReportMetric(perOp, "frames/op")
	if perOp > 40 {
		b.Errorf("%.1f frames per run phase, want <= 40", perOp)
	}
}

// withHistory boots a server whose JobManager has already retired n jobs
// and keeps their tombstones.
func withHistory(tb testing.TB, n int) *Server {
	tb.Helper()
	net := transport.NewIdealNetwork()
	tb.Cleanup(func() { net.Close() })
	srv, err := Start(net, "n1", config.Config{HeartbeatInterval: -1, CheckpointEvery: -1, TombstoneTTL: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	from, to := msg.Address{Node: "x", Task: protocol.ClientTaskName}, msg.Address{Node: "n1"}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("x.old.%d", i)
		r := srv.jm.HandleCreateTasks(protocol.Body(msg.KindCreateTasks, from, to, protocol.CreateTasksReq{JobID: id, ClientNode: "x", Name: "old"}))
		if r.Kind != msg.KindTasksAccepted {
			tb.Fatalf("create job answered %v", r.Kind)
		}
		srv.jm.HandleCancel(protocol.Body(msg.KindCancelJob, from, to, protocol.CancelJobReq{JobID: id, Reason: "history"}))
	}
	if n := srv.jm.ActiveJobs(); n != 0 {
		tb.Fatalf("%d jobs still live", n)
	}
	return srv
}

func solicit() *msg.Message {
	return protocol.Body(msg.KindJobManagerSolicit,
		msg.Address{Node: "x", Task: protocol.ClientTaskName}, msg.Address{}, protocol.JobRequirements{})
}

var offerSink *msg.Message

// BenchmarkSolicitWithHistory is the micro row for what a finished job
// costs a manager afterwards: answering a JOB_SOLICIT with no history and
// with 10 000 retired jobs should read the same ns/op and allocs/op.
func BenchmarkSolicitWithHistory(b *testing.B) {
	for _, retired := range []int{0, 10000} {
		b.Run(fmt.Sprintf("retired=%d", retired), func(b *testing.B) {
			srv, sm := withHistory(b, retired), solicit()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				offerSink = srv.jm.HandleSolicit(sm)
			}
		})
	}
}

// TestSolicitCostIgnoresHistory guards the same property in the test run:
// no extra allocation, and nothing like a walk over the retired jobs (which
// would cost hundreds of times the empty manager's answer, not twice).
func TestSolicitCostIgnoresHistory(t *testing.T) {
	fresh, aged, sm := withHistory(t, 0), withHistory(t, 10000), solicit()
	cost := func(srv *Server) (allocs float64, best time.Duration) {
		allocs = testing.AllocsPerRun(200, func() { offerSink = srv.jm.HandleSolicit(sm) })
		for round := 0; round < 5; round++ {
			start := time.Now()
			for i := 0; i < 2000; i++ {
				offerSink = srv.jm.HandleSolicit(sm)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return allocs, best
	}
	a0, t0 := cost(fresh)
	a1, t1 := cost(aged)
	if a1 != a0 {
		t.Errorf("a solicit allocates %v times with 10000 retired jobs, %v with none", a1, a0)
	}
	if t1 > 3*t0 {
		t.Errorf("2000 solicits take %v with 10000 retired jobs, %v with none", t1, t0)
	}
}
