// Async job lifecycle API: the portal face of cn/internal/jobstore.
// Submissions are accepted immediately (202 + job id) and executed by the
// store's worker pool; clients poll status and fetch results, mirroring
// how production cluster frontends (e.g. ipfs-cluster's REST API) treat
// jobs as queryable system state rather than open HTTP requests.

package portal

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cn/internal/api"
	"cn/internal/cluster"
	"cn/internal/cnx"
	"cn/internal/dataplane"
	"cn/internal/jobmgr"
	"cn/internal/jobstore"
	"cn/internal/metrics"
	"cn/internal/protocol"
	"cn/internal/trace"
	"cn/internal/transport"
	"cn/internal/xmlscan"
)

// runTracker aggregates live task counts for one submission by querying
// the hosting JobManagers' schedules.
type runTracker struct {
	cluster *cluster.Cluster

	mu    sync.Mutex
	total int // CN jobs declared in the descriptor
	jobs  []trackedJob
}

type trackedJob struct {
	jmNode string
	jobID  string
	cnJob  *api.Job
	done   bool
}

// add registers a created CN job for progress aggregation.
func (t *runTracker) add(cnJob *api.Job) {
	t.mu.Lock()
	t.jobs = append(t.jobs, trackedJob{jmNode: cnJob.JMNode, jobID: cnJob.ID, cnJob: cnJob})
	t.mu.Unlock()
}

// finish marks a CN job as terminally handled.
func (t *runTracker) finish(jobID string) {
	t.mu.Lock()
	for i := range t.jobs {
		if t.jobs[i].jobID == jobID {
			t.jobs[i].done = true
		}
	}
	t.mu.Unlock()
}

// progress queries each tracked job's JobManager schedule census and
// aggregates. JobManagers keep finished jobs as tombstones, so final
// counts stay available after completion. When a hosting node died, the
// client-observed event counts stand in for the lost schedule.
func (t *runTracker) progress() jobstore.Progress {
	t.mu.Lock()
	jobs := make([]trackedJob, len(t.jobs))
	copy(jobs, t.jobs)
	total := t.total
	t.mu.Unlock()
	p := jobstore.Progress{Jobs: total}
	var agg jobmgr.Progress
	for _, tj := range jobs {
		if tj.done {
			p.JobsDone++
		}
		if srv := t.cluster.Server(tj.jmNode); srv != nil {
			if jp, ok := srv.JobManager().JobProgress(tj.jobID); ok {
				agg = agg.Add(jp)
				continue
			}
		}
		cp := tj.cnJob.Progress()
		// Started counts events, so a recovered task's re-start inflates
		// it past Tasks; clamp Running by the tasks not yet terminal.
		running := min(cp.Started-cp.Completed-cp.Failed, cp.Tasks-cp.Completed-cp.Failed)
		agg = agg.Add(jobmgr.Progress{
			Total:   cp.Tasks,
			Pending: max(cp.Tasks-cp.Started, 0),
			Running: max(running, 0),
			Done:    cp.Completed,
			Failed:  cp.Failed,
			Retried: cp.Retried,
		})
	}
	p.TasksTotal = agg.Total
	p.TasksPending = agg.Pending + agg.Ready
	p.TasksRunning = agg.Running
	p.TasksDone = agg.Done
	p.TasksFailed = agg.Failed + agg.Cancelled
	p.TasksRetried = agg.Retried
	p.TSOps = agg.TSOps
	return p
}

// runSubmission is the jobstore executor: compile (queued -> compiling),
// then execute (running) with abort support via ctx. A submission one of
// whose CN jobs failed — placement refused, a task failed — returns the
// collated response and an error naming that job, so its record is failed,
// carries the error and keeps the result.
func (p *Portal) runSubmission(ctx context.Context, j *jobstore.Job) (any, error) {
	sub := j.Submission()
	doc, err := p.compile(sub.Format, sub.Body, sub.Invocations)
	if err != nil {
		return nil, runError{err, http.StatusUnprocessableEntity}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j.MarkRunning()
	tr := &runTracker{cluster: p.cfg.Cluster, total: len(doc.Client.Jobs)}
	j.SetProgress(tr.progress)
	ctx, cancel := context.WithTimeout(ctx, p.cfg.RunTimeout)
	defer cancel()
	resp, err := p.executeDoc(ctx, doc, tr)
	if err != nil {
		return resp, err
	}
	return resp, firstFailure(doc, resp)
}

// firstFailure is the error of a run whose response reports a failed CN
// job: the first one in the descriptor's order, nil when all succeeded.
func firstFailure(doc *cnx.Document, resp *RunResponse) error {
	for i := range doc.Client.Jobs {
		name := doc.Client.Jobs[i].Name
		if jr, ok := resp.Jobs[name]; ok && jr.Failed {
			return runError{fmt.Errorf("job %q (%s) failed: %s", name, jr.JobID, jr.Err), http.StatusOK}
		}
	}
	return nil
}

// sniffFormat tells a submission's format from its root element when the
// client did not say: a CNX document's is <cn2>. Anything else — a body that
// is not XML included — is taken for XMI, whose reader will say what is wrong
// with it.
func sniffFormat(body []byte) string {
	sc := xmlscan.New(body)
	for {
		kind, err := sc.Next()
		if err != nil {
			return jobstore.FormatXMI
		}
		if kind == xmlscan.Start {
			if string(sc.Name()) == "cn2" {
				return jobstore.FormatCNX
			}
			return jobstore.FormatXMI
		}
	}
}

// submit reads the request's body and queues it — the front half of every
// route that runs a model. format "" means sniff it. On failure it has
// written the error response and returns false.
func (p *Portal) submit(w http.ResponseWriter, r *http.Request, format string) (*jobstore.Record, bool) {
	body, err := readBody(r)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, err)
		return nil, false
	}
	n, err := invocations(r)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, err)
		return nil, false
	}
	if format == "" {
		format = sniffFormat(body)
	}
	rec, err := p.store.Submit(jobstore.Submission{
		Format:      format,
		Body:        body,
		Invocations: n,
		Label:       r.URL.Query().Get("label"),
	})
	switch {
	case errors.Is(err, jobstore.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		errorJSON(w, http.StatusTooManyRequests, err)
		return nil, false
	case err != nil:
		errorJSON(w, http.StatusServiceUnavailable, err)
		return nil, false
	}
	w.Header().Set("Location", "/api/jobs/"+rec.ID)
	return rec, true
}

func (p *Portal) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	switch format {
	case "", jobstore.FormatXMI, jobstore.FormatCNX:
	default:
		errorJSON(w, http.StatusBadRequest, fmt.Errorf("portal: unknown format %q", format))
		return
	}
	if rec, ok := p.submit(w, r, format); ok {
		p.writeJSON(w, http.StatusAccepted, rec)
	}
}

// JobList is the GET /api/jobs response body.
type JobList struct {
	Count int                `json:"count"`
	Jobs  []*jobstore.Record `json:"jobs"`
}

func (p *Portal) handleListJobs(w http.ResponseWriter, r *http.Request) {
	var filter jobstore.State
	if q := r.URL.Query().Get("state"); q != "" {
		st, err := jobstore.ParseState(q)
		if err != nil {
			errorJSON(w, http.StatusBadRequest, err)
			return
		}
		filter = st
	}
	jobs := p.store.List(filter)
	p.writeJSON(w, http.StatusOK, JobList{Count: len(jobs), Jobs: jobs})
}

func (p *Portal) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := p.store.Get(id)
	if !ok {
		errorJSON(w, http.StatusNotFound, fmt.Errorf("portal: unknown job %q", id))
		return
	}
	p.writeJSON(w, http.StatusOK, rec)
}

// JobResultResponse is the GET /api/jobs/{id}/result body.
type JobResultResponse struct {
	ID     string         `json:"id"`
	State  jobstore.State `json:"state"`
	Error  string         `json:"error,omitempty"`
	Result any            `json:"result,omitempty"`
}

func (p *Portal) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, result, state, ok := p.store.ResultRecord(id)
	if !ok {
		errorJSON(w, http.StatusNotFound, fmt.Errorf("portal: unknown job %q", id))
		return
	}
	if !state.Terminal() {
		errorJSON(w, http.StatusConflict,
			fmt.Errorf("portal: job %s is %s; result not ready", id, state))
		return
	}
	p.writeJSON(w, http.StatusOK, JobResultResponse{
		ID:     id,
		State:  state,
		Error:  rec.Error,
		Result: result,
	})
}

// TraceResponse is the GET /api/jobs/{id}/trace body: the job's span
// timeline as assembled by its (current) JobManager. The id may be a CN
// job id or a portal submission id; a submission's response merges the
// spans of every CN job it ran.
type TraceResponse struct {
	ID    string       `json:"id"`
	Count int          `json:"count"`
	Spans []trace.Span `json:"spans"`
}

func (p *Portal) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// A CN job id answers directly from whichever live JobManager holds
	// the job — across failover that is the adopter's merged record.
	if spans, ok := p.cfg.Cluster.JobTrace(id); ok {
		p.writeJSON(w, http.StatusOK, TraceResponse{ID: id, Count: len(spans), Spans: spans})
		return
	}
	// A portal submission id resolves through its result to the CN jobs
	// it ran.
	if _, result, _, ok := p.store.ResultRecord(id); ok {
		if rr, isRun := result.(*RunResponse); isRun {
			var spans []trace.Span
			for _, jr := range rr.Jobs {
				if s, ok := p.cfg.Cluster.JobTrace(jr.JobID); ok {
					spans = append(spans, s...)
				}
			}
			trace.SortSpans(spans)
			p.writeJSON(w, http.StatusOK, TraceResponse{ID: id, Count: len(spans), Spans: spans})
			return
		}
		errorJSON(w, http.StatusConflict,
			fmt.Errorf("portal: job %s has no trace yet (not finished, or result evicted)", id))
		return
	}
	errorJSON(w, http.StatusNotFound, fmt.Errorf("portal: unknown job %q (no hosted CN job or submission by that id)", id))
}

func (p *Portal) handleDeleteJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, err := p.store.Delete(id)
	if errors.Is(err, jobstore.ErrUnknownJob) {
		errorJSON(w, http.StatusNotFound, err)
		return
	}
	if err != nil {
		errorJSON(w, http.StatusInternalServerError, err)
		return
	}
	p.writeJSON(w, http.StatusOK, rec)
}

// MetricsResponse is the GET /api/metrics body. Wire carries the cluster
// fabric's transport counters — bytes on the wire and messages by kind —
// so codec-level wins (and regressions) are observable in production, not
// only in benchmarks.
type MetricsResponse struct {
	Jobstore  jobstore.Stats           `json:"jobstore"`
	Metrics   metrics.RegistrySnapshot `json:"metrics"`
	Wire      transport.WireSnapshot   `json:"wire"`
	Dataplane DataplaneMetrics         `json:"dataplane"`
	// Placement aggregates every JobManager's resource-directory counters:
	// solicit rounds, offer-cache activity, and the locality scorer's
	// warm-hit / cold-miss / bytes-saved figures.
	Placement PlacementMetrics `json:"placement"`
	// Nodes is the per-node breakdown: every live node's registry
	// snapshot, scraped over the wire (STATS_PULL) at request time. A
	// node that fails to answer within the scrape window is simply absent.
	Nodes map[string]*protocol.StatsReportResp `json:"nodes,omitempty"`
}

// scrapeTimeout bounds the whole per-node STATS_PULL sweep on a metrics
// request; nodes that miss the window drop out of the breakdown.
const scrapeTimeout = 2 * time.Second

// scrapeNodes pulls every live node's registry snapshot concurrently.
func (p *Portal) scrapeNodes() map[string]*protocol.StatsReportResp {
	nodes := p.cfg.Cluster.Nodes()
	ctx, cancel := context.WithTimeout(context.Background(), scrapeTimeout)
	defer cancel()
	var mu sync.Mutex
	out := make(map[string]*protocol.StatsReportResp, len(nodes))
	var wg sync.WaitGroup
	for _, node := range nodes {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			resp, err := p.client.Scrape(ctx, node)
			if err != nil {
				p.log.Warn("stats scrape failed", "node", node, "err", err)
				return
			}
			mu.Lock()
			out[node] = resp
			mu.Unlock()
		}(node)
	}
	wg.Wait()
	return out
}

// DataplaneMetrics summarizes the direct task-to-task data plane: broker
// counters from the JobManagers, TM→TM transfer bytes from the
// TaskManagers, and the shared digest-cache hit/miss figures.
type DataplaneMetrics struct {
	Broker       dataplane.StatsSnapshot `json:"broker"`
	ServedBytes  int64                   `json:"served_bytes"`  // TM→TM bytes producers served
	FetchedBytes int64                   `json:"fetched_bytes"` // TM→TM bytes consumers pulled
	CacheHits    int64                   `json:"cache_hits"`
	CacheMisses  int64                   `json:"cache_misses"`
}

// PlacementMetrics is placement.Stats with stable JSON names.
type PlacementMetrics struct {
	SolicitRounds int64 `json:"solicit_rounds"`
	CacheHits     int64 `json:"cache_hits"`
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
	WarmHits      int64 `json:"warm_hits"`
	ColdMisses    int64 `json:"cold_misses"`
	BytesSaved    int64 `json:"bytes_saved"`
}

func (p *Portal) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	served, fetched := p.cfg.Cluster.DataplaneBytes()
	hits, misses := p.cfg.Cluster.CacheStats()
	ps := p.cfg.Cluster.PlacementStats()
	p.writeJSON(w, http.StatusOK, MetricsResponse{
		Jobstore: p.store.Stats(),
		Metrics:  p.store.Metrics().Snapshot(),
		Wire:     p.cfg.Cluster.WireStats(),
		Dataplane: DataplaneMetrics{
			Broker:       p.cfg.Cluster.DataplaneStats(),
			ServedBytes:  served,
			FetchedBytes: fetched,
			CacheHits:    hits,
			CacheMisses:  misses,
		},
		Placement: PlacementMetrics{
			SolicitRounds: ps.SolicitRounds,
			CacheHits:     ps.CacheHits,
			Invalidations: ps.Invalidations,
			Evictions:     ps.Evictions,
			WarmHits:      ps.WarmHits,
			ColdMisses:    ps.ColdMisses,
			BytesSaved:    ps.BytesSaved,
		},
		Nodes: p.scrapeNodes(),
	})
}
