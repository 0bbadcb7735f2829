package portal_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"cn/internal/jobstore"
	"cn/internal/portal"
)

// postRun posts body to one of the blocking routes and returns the status,
// the headers and the raw answer.
func postRun(t *testing.T, url, body string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Post(url, "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(raw)
}

// TestRunRoutesAreSubmissions: /api/run and /api/run-cnx answer as they
// always did — the run's response on 200, 422 for what the document caused —
// by submitting to the one executor and waiting: the run is a record like any
// other, and a full queue answers 429.
func TestRunRoutesAreSubmissions(t *testing.T) {
	srv := startAsyncPortal(t, 1, 1)

	status, hdr, body := postRun(t, srv.URL+"/api/run-cnx", noopCNX)
	var rr portal.RunResponse
	if err := json.Unmarshal([]byte(body), &rr); err != nil || status != http.StatusOK || rr.Client != "Async" || rr.Jobs["j"].Failed || rr.Jobs["j"].JobID == "" {
		t.Fatalf("run-cnx: %d %s (%v)", status, body, err)
	}
	id := strings.TrimPrefix(hdr.Get("Location"), "/api/jobs/")
	if rec := getJob(t, srv, id); rec.State != jobstore.StateDone || rec.Format != jobstore.FormatCNX || rec.Progress == nil || rec.Progress.TasksDone != 2 {
		t.Errorf("the run's record = %+v", rec)
	}

	// A failed CN job is still a 200 whose response says so; the record is failed.
	status, hdr, body = postRun(t, srv.URL+"/api/run-cnx", `<cn2><client class="Bad"><job name="b"><task name="a" class="test.PortalFail"/></job></client></cn2>`)
	rr = portal.RunResponse{}
	if err := json.Unmarshal([]byte(body), &rr); err != nil || status != http.StatusOK || !rr.Jobs["b"].Failed {
		t.Errorf("failing job: %d %s (%v)", status, body, err)
	}
	if rec := getJob(t, srv, strings.TrimPrefix(hdr.Get("Location"), "/api/jobs/")); rec.State != jobstore.StateFailed {
		t.Errorf("failing job's record = %+v", rec)
	}

	// What the document caused is a 422 with the compile error's own text,
	// at parse and at spec conversion alike.
	status, hdr, body = postRun(t, srv.URL+"/api/run", "<XMI>\n<unclosed>\n</XMI>")
	rec := getJob(t, srv, strings.TrimPrefix(hdr.Get("Location"), "/api/jobs/"))
	var refusal struct{ Error string }
	if err := json.Unmarshal([]byte(body), &refusal); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusUnprocessableEntity || !strings.Contains(refusal.Error, "line 3") || rec.State != jobstore.StateFailed || refusal.Error != rec.Error {
		t.Errorf("malformed model: %d %s; record %+v", status, body, rec)
	}
	status, _, body = postRun(t, srv.URL+"/api/run-cnx", `<cn2><client class="C"><job name="j"><task name="a" class="test.PortalNoop"><task-req><runmodel>RUN_ON_THE_MOON</runmodel></task-req></task></job></client></cn2>`)
	if status != http.StatusUnprocessableEntity || !strings.Contains(body, "portal: unprocessable document: cnx: task") {
		t.Errorf("bad run model: %d %s", status, body)
	}

	// Saturate: one submission running, one queued. A blocking run is refused
	// like any other submission.
	running := submitCNX(t, srv, sleepCNX)
	pollUntil(t, srv, running.ID, func(r *jobstore.Record) bool { return r.State == jobstore.StateRunning }, "running")
	queued := submitCNX(t, srv, noopCNX)
	status, hdr, body = postRun(t, srv.URL+"/api/run-cnx", noopCNX)
	if status != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Errorf("run-cnx on a full queue: %d %s", status, body)
	}
	abortJob(t, srv, queued.ID)
	abortJob(t, srv, running.ID)
	pollUntil(t, srv, running.ID, func(r *jobstore.Record) bool { return r.State.Terminal() }, "aborted")

	// A caller that goes away takes its run with it.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/api/run-cnx", strings.NewReader(sleepCNX))
	if err != nil {
		t.Fatal(err)
	}
	gone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		gone <- err
	}()
	var abandoned string
	for abandoned == "" {
		var list portal.JobList
		resp, err := http.Get(srv.URL + "/api/jobs?state=running")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if list.Count == 1 {
			abandoned = list.Jobs[0].ID
		}
	}
	cancel()
	if err := <-gone; err == nil {
		t.Error("the cancelled request returned an answer")
	}
	pollUntil(t, srv, abandoned, func(r *jobstore.Record) bool { return r.State == jobstore.StateAborted }, "aborted with its caller")
}

// TestSubmittedXMIMentioningCN2IsXMI: without ?format= the body's root
// element decides, so a model whose header comment mentions <cn2> compiles as
// the XMI it is; and once it is done the store holds none of its text.
func TestSubmittedXMIMentioningCN2IsXMI(t *testing.T) {
	srv := startAsyncPortal(t, 1, 4)
	model := strings.Replace(noopXMI(t), "<XMI ", "<!-- converted from <cn2> by hand -->\n<XMI ", 1)
	resp, err := http.Post(srv.URL+"/api/jobs", "application/xml", strings.NewReader(model))
	if err != nil {
		t.Fatal(err)
	}
	var rec jobstore.Record
	err = json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	if err != nil || rec.Format != jobstore.FormatXMI {
		t.Fatalf("submitted record = %+v, %v", rec, err)
	}
	final := pollUntil(t, srv, rec.ID, func(r *jobstore.Record) bool { return r.State.Terminal() }, "terminal")
	if final.State != jobstore.StateDone {
		t.Fatalf("record = %+v", final)
	}
	resp, err = http.Get(srv.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m portal.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if held, ok := m.Metrics.Gauges["jobstore.body_bytes"]; !ok || held != 0 {
		t.Errorf("jobstore.body_bytes = %d (reported %v) with every job finished, want 0", held, ok)
	}
}
