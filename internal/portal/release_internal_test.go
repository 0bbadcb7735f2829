package portal

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cn/internal/cluster"
	"cn/internal/jobstore"
	"cn/internal/task"
)

const twoTaskCNX = `<cn2><client class="Release"><job name="j">
  <task name="a" class="rel.Noop"><task-req><memory>100</memory></task-req></task>
  <task name="b" class="rel.Noop" depends="a"><task-req><memory>100</memory></task-req></task>
</job></client></cn2>`

const hangCNX = `<cn2><client class="Release"><job name="h">
  <task name="a" class="rel.Hang"><task-req><memory>100</memory></task-req></task>
</job></client></cn2>`

// TestPortalReleasesJobHandles: the portal's one long-lived client holds a
// handle only while a submission runs — after 500 finished submissions and
// an aborted one it holds none — and a finished submission's record still
// reports its task counts, from the reading frozen when it finished.
func TestPortalReleasesJobHandles(t *testing.T) {
	reg := task.NewRegistry()
	reg.MustRegister("rel.Noop", func() task.Task {
		return task.Func(func(task.Context) error { return nil })
	})
	reg.MustRegister("rel.Hang", func() task.Task {
		return task.Func(func(tc task.Context) error {
			for !tc.Done() {
				time.Sleep(5 * time.Millisecond)
			}
			return nil
		})
	})
	c, err := cluster.Start(cluster.Config{Nodes: 3, Registry: reg, MemoryMB: 64000, MaxJobs: 64, TraceSample: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	p, err := New(Config{Cluster: c, Workers: 4, QueueDepth: 64, TraceSample: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const submissions = 500
	ids := make([]string, 0, submissions)
	for len(ids) < submissions {
		rec, err := p.store.Submit(jobstore.Submission{Format: jobstore.FormatCNX, Body: []byte(twoTaskCNX)})
		if errors.Is(err, jobstore.ErrQueueFull) {
			// Backpressure: let the oldest outstanding submission finish.
			if _, err := p.store.Wait(ctx, ids[len(ids)-64]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	for _, id := range ids {
		rec, err := p.store.Wait(ctx, id)
		if err != nil || rec.State != jobstore.StateDone {
			t.Fatalf("submission %s: %+v, %v", id, rec, err)
		}
	}

	hung, err := p.store.Submit(jobstore.Submission{Format: jobstore.FormatCNX, Body: []byte(hangCNX)})
	if err != nil {
		t.Fatal(err)
	}
	for p.client.OpenJobs() == 0 && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	if _, err := p.store.Delete(hung.ID); err != nil {
		t.Fatal(err)
	}
	if rec, err := p.store.Wait(ctx, hung.ID); err != nil || rec.State != jobstore.StateAborted {
		t.Fatalf("aborted submission: %+v, %v", rec, err)
	}

	if n := p.client.OpenJobs(); n != 0 {
		t.Errorf("the portal's client still holds %d job handles", n)
	}
	for _, id := range []string{ids[0], ids[submissions-1]} {
		resp, err := http.Get(srv.URL + "/api/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var rec jobstore.Record
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Progress == nil || rec.Progress.TasksDone != 2 || rec.Progress.JobsDone != 1 {
			t.Errorf("GET /api/jobs/%s: progress %+v, want 2 tasks done", id, rec.Progress)
		}
	}
}

const hugeCNX = `<cn2><client class="Release"><job name="huge">
  <task name="a" class="rel.Noop"><task-req><memory>1000000</memory></task-req></task>
</job></client></cn2>`

// TestPortalUnplaceableJobIsNotLeaked: a submission whose task fits no node
// fails at CreateTasks. The portal cancels the CN job, so once it has
// answered no JobManager counts an active job and its client holds no
// handle — ten such submissions do not wedge two managers of two slots
// each, and a submission that fits still runs.
func TestPortalUnplaceableJobIsNotLeaked(t *testing.T) {
	reg := task.NewRegistry()
	reg.MustRegister("rel.Noop", func() task.Task {
		return task.Func(func(task.Context) error { return nil })
	})
	c, err := cluster.Start(cluster.Config{Nodes: 2, Registry: reg, MemoryMB: 1000, MaxJobs: 2, TraceSample: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	p, err := New(Config{Cluster: c, Workers: 1, QueueDepth: 16, TraceSample: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// A record is failed exactly when its result reports a failed CN job,
	// and keeps that result either way.
	run := func(body string, want jobstore.State) RunResponse {
		t.Helper()
		sub, err := p.store.Submit(jobstore.Submission{Format: jobstore.FormatCNX, Body: []byte(body)})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := p.store.Wait(ctx, sub.ID)
		if err != nil || rec.State != want {
			t.Fatalf("submission %s: %+v, %v; want state %s", sub.ID, rec, err, want)
		}
		res, _, _ := p.store.Result(sub.ID)
		resp, ok := res.(*RunResponse)
		if !ok {
			t.Fatalf("submission %s: result %#v", sub.ID, res)
		}
		return *resp
	}
	for i := 0; i < 10; i++ {
		if jr := run(hugeCNX, jobstore.StateFailed).Jobs["huge"]; !jr.Failed || !strings.Contains(jr.Err, "placement") {
			t.Fatalf("submission %d: %+v, want the placement failure", i, jr)
		}
		for _, node := range c.Nodes() {
			if n := c.Server(node).JobManager().ActiveJobs(); n != 0 {
				t.Fatalf("submission %d: %s counts %d active jobs after the portal answered", i, node, n)
			}
		}
		if n := p.client.OpenJobs(); n != 0 {
			t.Fatalf("submission %d: the portal's client holds %d job handles", i, n)
		}
	}
	if jr := run(twoTaskCNX, jobstore.StateDone).Jobs["j"]; jr.Failed {
		t.Errorf("a submission that fits: %+v", jr)
	}
}
