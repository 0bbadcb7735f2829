package api_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/api"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/trace"
	"cn/internal/transport"
)

// TestStartCarriesClientSpans: a traced client keeps a job's job.submit and
// each job.create_tasks with the job, two of them created at once, and the
// Submit frame — the job's tasks and its start in one CREATE_TASKS — ships
// them to the JobManager. A stand-in manager "jm" accepts every frame,
// counts those carrying the job's header (exactly one may) and hands over
// the one with the Start flag.
func TestStartCarriesClientSpans(t *testing.T) {
	for name, mk := range map[string]func() transport.Network{
		"mem": func() transport.Network { return transport.NewIdealNetwork() },
		"tcp": func() transport.Network { return transport.NewTCPNetwork() },
	} {
		t.Run(name, func(t *testing.T) {
			net := mk()
			t.Cleanup(func() { net.Close() })
			starts := make(chan protocol.CreateTasksReq, 1)
			var headers atomic.Int32
			var ep transport.Endpoint
			ep, err := net.Attach("jm", func(m *msg.Message) {
				if m.Kind != msg.KindCreateTasks {
					return
				}
				var req protocol.CreateTasksReq
				if err := protocol.Decode(m, &req); err != nil {
					t.Errorf("create-tasks request: %v", err)
				}
				if req.ClientNode != "" {
					headers.Add(1)
				}
				if req.Start {
					starts <- req
				}
				if err := ep.Send(m.From.Node, protocol.Reply(m, msg.KindTasksAccepted, protocol.CreateTasksResp{})); err != nil {
					t.Errorf("reply: %v", err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			cl, err := api.Initialize(net, api.Options{Tracer: trace.New(trace.Config{Node: "client", Sample: 1})})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })

			j, err := cl.CreateJobOn("jm", "traced", protocol.JobRequirements{})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, name := range []string{"a", "b"} {
				wg.Add(1)
				go func(name string) {
					defer wg.Done()
					if _, err := j.CreateTasks([]*task.Spec{spec(name, "test.Noop", nil)}, nil); err != nil {
						t.Error(err)
					}
				}(name)
			}
			wg.Wait()
			if _, err := j.Submit([]*task.Spec{spec("c", "test.Noop", nil)}, nil); err != nil {
				t.Fatal(err)
			}
			var req protocol.CreateTasksReq
			select {
			case req = <-starts:
			case <-time.After(5 * time.Second):
				t.Fatal("no Submit frame reached the manager")
			}
			if n := headers.Load(); n != 1 {
				t.Errorf("%d frames carried the job's header, want the first one only", n)
			}
			if len(req.Tasks) != 1 || req.Tasks[0].Spec.Name != "c" || req.ClientNode != "" {
				t.Errorf("Submit frame carries %d tasks (header %q), want task c and no header", len(req.Tasks), req.ClientNode)
			}
			want := []string{"job.submit", "job.create_tasks", "job.create_tasks"}
			if len(req.Spans) != len(want) {
				t.Fatalf("Submit carried %d spans %+v, want %q", len(req.Spans), req.Spans, want)
			}
			submit := req.Spans[0]
			for i, sp := range req.Spans {
				if sp.Name != want[i] || sp.Job != j.ID || sp.Trace != submit.Trace {
					t.Errorf("span %d is %s of job %q in trace %d; want %s of %s in trace %d",
						i, sp.Name, sp.Job, sp.Trace, want[i], j.ID, submit.Trace)
				}
				if i > 0 && sp.Parent != submit.ID {
					t.Errorf("%s hangs off span %d, want the submit span %d", sp.Name, sp.Parent, submit.ID)
				}
			}
		})
	}
}
