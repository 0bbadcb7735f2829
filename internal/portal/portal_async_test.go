package portal_test

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cn/internal/cluster"
	"cn/internal/jobstore"
	"cn/internal/portal"
	"cn/internal/task"
)

// asyncRegistry adds a slow, abortable class to the shared test registry.
var asyncRegistry = func() *task.Registry {
	r := task.NewRegistry()
	r.MustRegister("test.PortalNoop", func() task.Task {
		return task.Func(func(task.Context) error { return nil })
	})
	r.MustRegister("test.PortalSleep", func() task.Task {
		return task.Func(func(tc task.Context) error {
			// Runs ~30s unless the job is cancelled.
			for i := 0; i < 3000; i++ {
				if tc.Done() {
					return nil
				}
				time.Sleep(10 * time.Millisecond)
			}
			return nil
		})
	})
	r.MustRegister("test.PortalFail", func() task.Task {
		return task.Func(func(task.Context) error { return errors.New("boom") })
	})
	return r
}()

// startAsyncPortal boots a cluster plus a portal with a small worker pool
// and tight queue so the tests can exercise saturation deterministically.
func startAsyncPortal(t *testing.T, workers, queueDepth int) *httptest.Server {
	t.Helper()
	c, err := cluster.Start(cluster.Config{Nodes: 3, Registry: asyncRegistry, MemoryMB: 64000, MaxJobs: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	p, err := portal.New(portal.Config{
		Cluster:    c,
		RunTimeout: 60 * time.Second,
		Workers:    workers,
		QueueDepth: queueDepth,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestMetricsEndpointWithEmptyHistogram: a histogram registered but not yet
// sampled does not cost /api/metrics its body — the snapshot decodes as
// JSON and reports the histogram with zero quantiles.
func TestMetricsEndpointWithEmptyHistogram(t *testing.T) {
	c, err := cluster.Start(cluster.Config{Nodes: 1, Registry: asyncRegistry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	c.Metrics().Histogram("test.empty_ms")
	p, err := portal.New(portal.Config{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var m portal.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics body does not decode: %v", err)
	}
	if h, ok := m.Metrics.Histograms["test.empty_ms"]; !ok || h.Count != 0 || h.P50 != 0 || h.P99 != 0 {
		t.Errorf("empty histogram reported as %+v (present %v)", h, ok)
	}
}

const noopCNX = `<cn2><client class="Async"><job name="j">
  <task name="a" class="test.PortalNoop"><task-req><memory>100</memory></task-req></task>
  <task name="b" class="test.PortalNoop" depends="a"><task-req><memory>100</memory></task-req></task>
</job></client></cn2>`

const sleepCNX = `<cn2><client class="AsyncSleep"><job name="s">
  <task name="a" class="test.PortalSleep"><task-req><memory>100</memory></task-req></task>
</job></client></cn2>`

// submitCNX posts a CNX body to /api/jobs and decodes the record.
func submitCNX(t *testing.T, srv *httptest.Server, body string) *jobstore.Record {
	t.Helper()
	resp, err := http.Post(srv.URL+"/api/jobs?format=cnx", "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var rec jobstore.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID == "" || rec.State != jobstore.StateQueued {
		t.Fatalf("record = %+v", rec)
	}
	return &rec
}

// getJob fetches /api/jobs/{id}.
func getJob(t *testing.T, srv *httptest.Server, id string) *jobstore.Record {
	t.Helper()
	resp, err := http.Get(srv.URL + "/api/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d", id, resp.StatusCode)
	}
	var rec jobstore.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	return &rec
}

// pollUntil polls job status until pred holds.
func pollUntil(t *testing.T, srv *httptest.Server, id string, pred func(*jobstore.Record) bool, what string) *jobstore.Record {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec := getJob(t, srv, id)
		if pred(rec) {
			return rec
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s: timed out waiting for %s", id, what)
	return nil
}

// TestAsyncSubmitBeyondPool is the headline acceptance scenario: more
// submissions than workers all return ids immediately and every one
// reaches a terminal state via polling.
func TestAsyncSubmitBeyondPool(t *testing.T) {
	const workers, jobs = 2, 5
	srv := startAsyncPortal(t, workers, jobs)
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		rec := submitCNX(t, srv, noopCNX)
		ids = append(ids, rec.ID)
	}
	for _, id := range ids {
		final := pollUntil(t, srv, id, func(r *jobstore.Record) bool { return r.State.Terminal() }, "terminal state")
		if final.State != jobstore.StateDone {
			t.Errorf("job %s: state %s (error %q)", id, final.State, final.Error)
		}
		// Fetch the execution result.
		resp, err := http.Get(srv.URL + "/api/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var res portal.JobResultResponse
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || res.State != jobstore.StateDone {
			t.Fatalf("result %s: status %d state %s", id, resp.StatusCode, res.State)
		}
		raw, _ := json.Marshal(res.Result)
		if !strings.Contains(string(raw), `"failed":false`) {
			t.Errorf("job %s result = %s", id, raw)
		}
	}
}

// TestAsyncProgressAndResultConflict checks in-flight status carries task
// counts from the JobManager schedule and that the result endpoint answers
// 409 before the job is terminal.
func TestAsyncProgressAndResultConflict(t *testing.T) {
	srv := startAsyncPortal(t, 1, 4)
	rec := submitCNX(t, srv, sleepCNX)
	running := pollUntil(t, srv, rec.ID, func(r *jobstore.Record) bool {
		return r.State == jobstore.StateRunning && r.Progress != nil && r.Progress.TasksRunning > 0
	}, "running with task counts")
	if running.Progress.TasksTotal != 1 || running.Progress.Jobs != 1 {
		t.Errorf("progress = %+v", running.Progress)
	}
	resp, err := http.Get(srv.URL + "/api/jobs/" + rec.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result while running: status %d, want 409", resp.StatusCode)
	}
	abortJob(t, srv, rec.ID)
	pollUntil(t, srv, rec.ID, func(r *jobstore.Record) bool { return r.State == jobstore.StateAborted }, "aborted")
}

// abortJob issues DELETE /api/jobs/{id}.
func abortJob(t *testing.T, srv *httptest.Server, id string) *jobstore.Record {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/api/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("delete %s: status %d: %s", id, resp.StatusCode, raw)
	}
	var rec jobstore.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	return &rec
}

// TestAsyncAbort aborts a running job and a queued job.
func TestAsyncAbort(t *testing.T) {
	srv := startAsyncPortal(t, 1, 4)
	running := submitCNX(t, srv, sleepCNX)
	pollUntil(t, srv, running.ID, func(r *jobstore.Record) bool { return r.State == jobstore.StateRunning }, "running")
	queued := submitCNX(t, srv, noopCNX)

	// Abort the queued job first: it must terminate without ever running.
	qrec := abortJob(t, srv, queued.ID)
	if qrec.State != jobstore.StateAborted {
		t.Errorf("queued abort state = %s", qrec.State)
	}
	if qrec.StartedAt != nil {
		t.Errorf("aborted queued job has StartedAt: %+v", qrec)
	}

	// Abort the running job: context cancellation tears down the CN job.
	abortJob(t, srv, running.ID)
	final := pollUntil(t, srv, running.ID, func(r *jobstore.Record) bool { return r.State.Terminal() }, "terminal after abort")
	if final.State != jobstore.StateAborted {
		t.Errorf("running abort state = %s (error %q)", final.State, final.Error)
	}
}

// TestAsyncBackpressure fills the single-worker, depth-1 queue and expects
// 429 + Retry-After on the next submission.
func TestAsyncBackpressure(t *testing.T) {
	srv := startAsyncPortal(t, 1, 1)
	running := submitCNX(t, srv, sleepCNX)
	pollUntil(t, srv, running.ID, func(r *jobstore.Record) bool { return r.State == jobstore.StateRunning }, "running")
	queued := submitCNX(t, srv, noopCNX) // fills the queue

	resp, err := http.Post(srv.URL+"/api/jobs?format=cnx", "application/xml", strings.NewReader(noopCNX))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}
	abortJob(t, srv, queued.ID)
	abortJob(t, srv, running.ID)
}

// TestAsyncFailedCompile submits garbage: the job must reach failed with
// the compile error recorded.
func TestAsyncFailedCompile(t *testing.T) {
	srv := startAsyncPortal(t, 1, 4)
	resp, err := http.Post(srv.URL+"/api/jobs?format=xmi", "application/xml", strings.NewReader("not xml <"))
	if err != nil {
		t.Fatal(err)
	}
	var rec jobstore.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := pollUntil(t, srv, rec.ID, func(r *jobstore.Record) bool { return r.State.Terminal() }, "terminal")
	if final.State != jobstore.StateFailed || final.Error == "" {
		t.Errorf("record = %+v", final)
	}
}

// TestAsyncFailedCNJobIsFailed: the record's state agrees with the job's
// outcome. A submission whose CN job failed — its class is deployable
// nowhere, or a task returned an error — is failed, not done; it carries an
// error naming the job and keeps the collated result, per-task errors
// included; /api/metrics counts it under failed.
func TestAsyncFailedCNJobIsFailed(t *testing.T) {
	srv := startAsyncPortal(t, 1, 4)
	for _, tc := range []struct {
		name, body string
		check      func(t *testing.T, jr portal.JobResult)
	}{
		{"unregistered class", `<cn2><client class="Bad"><job name="b">
		  <task name="a" class="does.Not.Exist"/>
		</job></client></cn2>`, func(t *testing.T, jr portal.JobResult) {
			if !strings.Contains(jr.Err, "does.Not.Exist") {
				t.Errorf("job error %q does not name the class", jr.Err)
			}
		}},
		{"failing task", `<cn2><client class="Bad"><job name="b">
		  <task name="ok" class="test.PortalNoop"/>
		  <task name="bad" class="test.PortalFail"/>
		</job></client></cn2>`, func(t *testing.T, jr portal.JobResult) {
			if !strings.Contains(jr.TaskErrs["bad"], "boom") || len(jr.TaskErrs) != 1 {
				t.Errorf("task_errors = %v, want bad: boom alone", jr.TaskErrs)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := submitCNX(t, srv, tc.body)
			final := pollUntil(t, srv, rec.ID, func(r *jobstore.Record) bool { return r.State.Terminal() }, "terminal")
			if final.State != jobstore.StateFailed || !strings.Contains(final.Error, `job "b"`) {
				t.Fatalf("record = %+v, want failed with an error naming job b", final)
			}
			resp, err := http.Get(srv.URL + "/api/jobs/" + rec.ID + "/result")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out struct {
				State  jobstore.State     `json:"state"`
				Error  string             `json:"error"`
				Result portal.RunResponse `json:"result"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			jr, ok := out.Result.Jobs["b"]
			if resp.StatusCode != http.StatusOK || out.State != jobstore.StateFailed || !ok || !jr.Failed || jr.JobID == "" {
				t.Fatalf("result: status %d, %+v", resp.StatusCode, out)
			}
			tc.check(t, jr)
		})
	}
	resp, err := http.Get(srv.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m portal.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if by := m.Jobstore.JobsByState; by[jobstore.StateFailed] != 2 || by[jobstore.StateDone] != 0 {
		t.Errorf("jobs_by_state = %v, want 2 failed and none done", by)
	}
}

// TestAsyncListAndFilter exercises GET /api/jobs with and without state
// filters, plus filter validation.
func TestAsyncListAndFilter(t *testing.T) {
	srv := startAsyncPortal(t, 1, 8)
	running := submitCNX(t, srv, sleepCNX)
	pollUntil(t, srv, running.ID, func(r *jobstore.Record) bool { return r.State == jobstore.StateRunning }, "running")
	for i := 0; i < 2; i++ {
		submitCNX(t, srv, noopCNX)
	}
	var list portal.JobList
	resp, err := http.Get(srv.URL + "/api/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Count != 3 {
		t.Errorf("count = %d, want 3", list.Count)
	}
	resp, err = http.Get(srv.URL + "/api/jobs?state=queued")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Count != 2 {
		t.Errorf("queued count = %d, want 2", list.Count)
	}
	resp, err = http.Get(srv.URL + "/api/jobs?state=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus filter status = %d", resp.StatusCode)
	}
	abortJob(t, srv, running.ID)
}

// TestMetricsEndpoint checks /api/metrics reports queue depth, jobs by
// state, and latency histograms after some traffic.
func TestMetricsEndpoint(t *testing.T) {
	srv := startAsyncPortal(t, 2, 8)
	rec := submitCNX(t, srv, noopCNX)
	pollUntil(t, srv, rec.ID, func(r *jobstore.Record) bool { return r.State.Terminal() }, "terminal")

	resp, err := http.Get(srv.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var m portal.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Jobstore.Workers != 2 || m.Jobstore.QueueCapacity != 8 {
		t.Errorf("jobstore stats = %+v", m.Jobstore)
	}
	if m.Jobstore.JobsByState[jobstore.StateDone] != 1 {
		t.Errorf("jobs_by_state = %v", m.Jobstore.JobsByState)
	}
	if m.Jobstore.Submitted != 1 {
		t.Errorf("submitted = %d", m.Jobstore.Submitted)
	}
	if m.Metrics.Histograms["jobstore.run_ms"].Count != 1 {
		t.Errorf("histograms = %v", m.Metrics.Histograms)
	}
	if _, ok := m.Metrics.Gauges["jobstore.queue_depth"]; !ok {
		t.Errorf("gauges = %v", m.Metrics.Gauges)
	}
	// The cluster executed a job, so the fabric's wire counters must show
	// traffic: messages, encoded bytes, and per-kind send counts.
	if m.Wire.Sent == 0 || m.Wire.BytesSent == 0 {
		t.Errorf("wire counters empty: %+v", m.Wire)
	}
	if m.Wire.ByKind["CREATE_TASKS"] == 0 {
		t.Errorf("wire by-kind counters = %v", m.Wire.ByKind)
	}
}

// TestAsyncUnknownJob covers 404s on status, result, and delete.
func TestAsyncUnknownJob(t *testing.T) {
	srv := startAsyncPortal(t, 1, 4)
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/api/jobs/nope"},
		{http.MethodGet, "/api/jobs/nope/result"},
		{http.MethodDelete, "/api/jobs/nope"},
	} {
		r, err := http.NewRequest(req.method, srv.URL+req.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", req.method, req.path, resp.StatusCode)
		}
	}
}

// TestAsyncXMISubmission runs the full model-driven path asynchronously:
// XMI in, compiled to CNX by the worker, executed, results polled.
func TestAsyncXMISubmission(t *testing.T) {
	srv := startAsyncPortal(t, 1, 4)
	resp, err := http.Post(srv.URL+"/api/jobs?label=model-run", "application/xml", strings.NewReader(noopXMI(t)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var rec jobstore.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rec.Format != jobstore.FormatXMI || rec.Label != "model-run" {
		t.Errorf("record = %+v", rec)
	}
	final := pollUntil(t, srv, rec.ID, func(r *jobstore.Record) bool { return r.State.Terminal() }, "terminal")
	if final.State != jobstore.StateDone {
		t.Errorf("state = %s (error %q)", final.State, final.Error)
	}
	if final.Progress == nil || final.Progress.TasksDone != 2 {
		t.Errorf("final progress = %+v", final.Progress)
	}
}

// TestResultTTLEndToEnd uses a tiny TTL portal to show records vanish.
func TestResultTTLEndToEnd(t *testing.T) {
	c, err := cluster.Start(cluster.Config{Nodes: 3, Registry: asyncRegistry, MemoryMB: 64000})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	p, err := portal.New(portal.Config{Cluster: c, Workers: 1, QueueDepth: 4, ResultTTL: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(srv.Close)

	rec := submitCNX(t, srv, noopCNX)
	pollUntil(t, srv, rec.ID, func(r *jobstore.Record) bool { return r.State.Terminal() }, "terminal")
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/api/jobs/" + rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal record never evicted over HTTP")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
