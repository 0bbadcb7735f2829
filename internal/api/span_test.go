package api_test

import (
	"sync"
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
// each job.create_tasks with the job, two of them created at once, and
// Start ships them to the JobManager. A stand-in manager "jm" accepts
// everything and hands over each START_TASK body it hears.
func TestStartCarriesClientSpans(t *testing.T) {
	net := transport.NewIdealNetwork()
	t.Cleanup(func() { net.Close() })
	starts := make(chan protocol.StartJobReq, 1)
	var ep transport.Endpoint
	ep, err := net.Attach("jm", func(m *msg.Message) {
		var r *msg.Message
		switch m.Kind {
		case msg.KindCreateJob:
			r = protocol.Reply(m, msg.KindJobCreated, protocol.CreateJobResp{JobID: "jm-job1"})
		case msg.KindCreateTasks:
			r = protocol.Reply(m, msg.KindTasksAccepted, protocol.CreateTasksResp{})
		case msg.KindStartTask:
			var req protocol.StartJobReq
			if err := protocol.Decode(m, &req); err != nil {
				t.Errorf("start request: %v", err)
			}
			starts <- req
			r = m.Reply(msg.KindPong, nil)
		default:
			return
		}
		if err := ep.Send(m.From.Node, r); err != nil {
			t.Errorf("reply %s: %v", r.Kind, err)
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
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	var req protocol.StartJobReq
	select {
	case req = <-starts:
	case <-time.After(5 * time.Second):
		t.Fatal("no START_TASK reached the manager")
	}
	want := []string{"job.submit", "job.create_tasks", "job.create_tasks"}
	if len(req.Spans) != len(want) {
		t.Fatalf("Start carried %d spans %+v, want %q", len(req.Spans), req.Spans, want)
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
}
