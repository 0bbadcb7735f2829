// Package portal implements the paper's "Prototype Web interface to the CN
// cluster that accepts UML model in XMI format, translates the model to an
// executable, executes [the] model and displays or makes the results
// available for download", so that "the user does not need to log on to
// the subnet" — grown from the paper's one-shot upload page into an
// asynchronous job service backed by cn/internal/jobstore.
//
// Synchronous endpoints (the paper's original surface):
//
//	GET  /                  - HTML landing page
//	GET  /api/status        - cluster status (JSON)
//	POST /api/xmi2cnx       - XMI body in, CNX descriptor out
//	POST /api/cnx2go        - CNX body in, generated Go client program out
//	POST /api/run           - XMI body in, executes it, JSON results out
//	POST /api/run-cnx       - CNX body in, executes it, JSON results out
//
// The two run routes are a submission the request waits for: they queue,
// compile and execute exactly as POST /api/jobs does.
//
// Asynchronous job lifecycle API (submission decoupled from execution):
//
//	POST   /api/jobs           - submit XMI or CNX, returns a job id (202)
//	GET    /api/jobs           - list jobs, ?state= filters
//	GET    /api/jobs/{id}      - job status, timings, task counts
//	GET    /api/jobs/{id}/result - terminal job's results
//	DELETE /api/jobs/{id}      - abort an active job / forget a finished one
//	GET    /api/metrics        - queue depth, jobs-by-state, latency digests
//
// Dynamic invocation states are expanded with ?invocations=N (default 4).
package portal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"cn/internal/api"
	"cn/internal/cluster"
	"cn/internal/cnx"
	"cn/internal/codegen"
	"cn/internal/core"
	"cn/internal/jobstore"
	"cn/internal/logging"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/trace"
	"cn/internal/transform"
)

// maxBody bounds uploaded document size (4 MB).
const maxBody = 4 << 20

// Config parametrizes the portal.
type Config struct {
	// Cluster is the running CN deployment jobs execute on.
	Cluster *cluster.Cluster
	// RunTimeout bounds one execution request (0 = 60s).
	RunTimeout time.Duration
	// Workers sizes the async execution pool (0 = jobstore default).
	Workers int
	// QueueDepth bounds queued submissions before 429s (0 = default).
	QueueDepth int
	// ResultTTL evicts terminal job records (0 = default; <0 disables).
	ResultTTL time.Duration
	// DataDir enables durable job records: the store appends every job
	// mutation to a write-ahead log under this directory and replays it on
	// startup, so queued and running submissions survive a portal crash
	// (empty = in-memory only, the pre-durability behavior).
	DataDir string
	// Log is the structured logger (nil discards); request diagnostics and
	// the job store's are its Debug records.
	Log *slog.Logger
	// TraceSample is the portal client's root-sampling probability for
	// submitted jobs (0 = trace.DefaultSample; negative leaves portal
	// submissions untraced from the client side).
	TraceSample float64
	// Debug mounts net/http/pprof under /debug/pprof/ — profiling of a
	// live portal process. Off by default: the profile endpoints expose
	// internals and cost CPU when scraped.
	Debug bool
}

// Portal is the web front end.
type Portal struct {
	cfg     Config
	client  *api.Client
	store   *jobstore.Store
	backend jobstore.Backend // owned WAL backend; nil when DataDir is empty
	mux     *http.ServeMux
	log     *slog.Logger
	tracer  *trace.Tracer
}

// New creates a portal attached to the cluster.
func New(cfg Config) (*Portal, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("portal: nil cluster")
	}
	if cfg.RunTimeout <= 0 {
		cfg.RunTimeout = 60 * time.Second
	}
	var tracer *trace.Tracer
	if cfg.TraceSample >= 0 {
		tracer = trace.New(trace.Config{Node: "portal", Sample: cfg.TraceSample})
	}
	client, err := api.Initialize(cfg.Cluster.Network(), api.Options{
		ClientName:      "portal",
		DiscoveryWindow: 100 * time.Millisecond,
		Tracer:          tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("portal: %w", err)
	}
	p := &Portal{
		cfg:    cfg,
		client: client,
		mux:    http.NewServeMux(),
		log:    logging.Component(cfg.Log, "portal", ""),
		tracer: tracer,
	}
	if cfg.DataDir != "" {
		wal, err := jobstore.OpenWAL(cfg.DataDir, jobstore.WALOptions{})
		if err != nil {
			client.Close()
			return nil, fmt.Errorf("portal: open data dir %s: %w", cfg.DataDir, err)
		}
		p.backend = wal
	}
	store, err := jobstore.New(jobstore.Config{
		Exec:       p.runSubmission,
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		ResultTTL:  cfg.ResultTTL,
		Backend:    p.backend,
		Metrics:    cfg.Cluster.Metrics(),
		Log:        logging.Component(cfg.Log, "jobstore", ""),
	})
	if err != nil {
		if p.backend != nil {
			p.backend.Close()
		}
		client.Close()
		return nil, fmt.Errorf("portal: %w", err)
	}
	p.store = store
	p.mux.HandleFunc("GET /", p.handleIndex)
	p.mux.HandleFunc("GET /api/status", p.handleStatus)
	p.mux.HandleFunc("POST /api/xmi2cnx", p.handleXMI2CNX)
	p.mux.HandleFunc("POST /api/cnx2go", p.handleCNX2Go)
	p.mux.HandleFunc("POST /api/run", p.handleRunXMI)
	p.mux.HandleFunc("POST /api/run-cnx", p.handleRunCNX)
	p.mux.HandleFunc("POST /api/jobs", p.handleSubmitJob)
	p.mux.HandleFunc("GET /api/jobs", p.handleListJobs)
	p.mux.HandleFunc("GET /api/jobs/{id}", p.handleGetJob)
	p.mux.HandleFunc("GET /api/jobs/{id}/result", p.handleJobResult)
	p.mux.HandleFunc("GET /api/jobs/{id}/trace", p.handleJobTrace)
	p.mux.HandleFunc("DELETE /api/jobs/{id}", p.handleDeleteJob)
	p.mux.HandleFunc("GET /api/metrics", p.handleMetrics)
	if cfg.Debug {
		// Profiling surface (mirrors net/http/pprof's DefaultServeMux
		// registrations); Index also serves heap, goroutine, block, and
		// mutex profiles by name. The GET method prefix keeps the
		// method-specific "GET /" index route from conflicting with a
		// method-less pattern under the 1.22 mux precedence rules.
		p.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		p.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		p.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		p.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		p.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		p.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		p.log.Info("pprof profiling enabled", "path", "/debug/pprof/")
	}
	return p, nil
}

// Handler returns the portal's HTTP handler.
func (p *Portal) Handler() http.Handler { return p.mux }

// Close stops the job service and releases the portal's client. In-flight
// jobs are aborted; with a data dir configured they replay as queued on
// the next start.
func (p *Portal) Close() error {
	p.store.Close()
	if p.backend != nil {
		if err := p.backend.Close(); err != nil {
			p.logf("close job WAL: %v", err)
		}
	}
	return p.client.Close()
}

// Store exposes the job store (for embedding deployments and tests).
func (p *Portal) Store() *jobstore.Store { return p.store }

func (p *Portal) logf(format string, args ...any) {
	logging.Debugf(p.log, format, args...)
}

// errorJSON writes a JSON error response.
func errorJSON(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeJSON writes a JSON success response. The body is encoded before the
// status goes out, so a value encoding/json refuses answers 500, not a
// status with an empty body.
func (p *Portal) writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		p.log.Error("response not encodable", "err", err)
		errorJSON(w, http.StatusInternalServerError, fmt.Errorf("portal: encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// readBody reads a bounded request body. A declared Content-Length sizes the
// buffer exactly: io.ReadAll grows 512 B at a time and allocates four times
// a typical submission to read it.
func readBody(r *http.Request) ([]byte, error) {
	var body []byte
	tooLarge := fmt.Errorf("portal: body exceeds %d bytes", maxBody)
	switch n := r.ContentLength; {
	case n > maxBody:
		return nil, tooLarge
	case n >= 0:
		body = make([]byte, n)
		if _, err := io.ReadFull(r.Body, body); err != nil {
			return nil, fmt.Errorf("portal: read body: %w", err)
		}
	default: // chunked: the length is known when the body ends
		var err error
		if body, err = io.ReadAll(io.LimitReader(r.Body, maxBody+1)); err != nil {
			return nil, fmt.Errorf("portal: read body: %w", err)
		}
		if len(body) > maxBody {
			return nil, tooLarge
		}
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("portal: empty body")
	}
	return body, nil
}

const indexHTML = `<!DOCTYPE html>
<html><head><title>Computational Neighborhood</title></head>
<body>
<h1>Computational Neighborhood</h1>
<p>Model-driven job/task composition for cluster computing.</p>
<ul>
<li>POST an XMI or CNX document to <code>/api/jobs</code> to queue it; poll
<code>/api/jobs/{id}</code> and fetch <code>/api/jobs/{id}/result</code>.</li>
<li>POST an XMI activity model to <code>/api/run</code> to execute it synchronously.</li>
<li>POST XMI to <code>/api/xmi2cnx</code> for the CNX descriptor.</li>
<li>POST CNX to <code>/api/cnx2go</code> for a generated Go client.</li>
<li>GET <code>/api/status</code> for cluster status, <code>/api/metrics</code> for service metrics.</li>
</ul>
</body></html>
`

func (p *Portal) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = io.WriteString(w, indexHTML)
}

// Status is the /api/status response body.
type Status struct {
	Nodes []string `json:"nodes"`
}

func (p *Portal) handleStatus(w http.ResponseWriter, _ *http.Request) {
	p.writeJSON(w, http.StatusOK, Status{Nodes: p.cfg.Cluster.Nodes()})
}

// invocations parses the dynamic-invocation count query parameter.
func invocations(r *http.Request) (int, error) {
	q := r.URL.Query().Get("invocations")
	if q == "" {
		return 4, nil
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("portal: bad invocations %q", q)
	}
	return n, nil
}

func (p *Portal) handleXMI2CNX(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, err)
		return
	}
	n, err := invocations(r)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, err)
		return
	}
	doc, err := transform.XMI2CNXBytes(body, transform.Options{Args: core.FixedArgs(n)})
	if err != nil {
		errorJSON(w, http.StatusUnprocessableEntity, err)
		return
	}
	out, err := doc.EncodeString()
	if err != nil {
		errorJSON(w, http.StatusUnprocessableEntity, err)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	_, _ = io.WriteString(w, out)
}

func (p *Portal) handleCNX2Go(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, err)
		return
	}
	doc, err := cnx.ParseBytes(body)
	if err != nil {
		errorJSON(w, http.StatusUnprocessableEntity, err)
		return
	}
	src, err := codegen.Generate(doc, codegen.Options{Source: "portal upload"})
	if err != nil {
		errorJSON(w, http.StatusUnprocessableEntity, err)
		return
	}
	w.Header().Set("Content-Type", "text/x-go")
	_, _ = w.Write(src)
}

// RunResponse is the execution result body.
type RunResponse struct {
	Client string               `json:"client"`
	Jobs   map[string]JobResult `json:"jobs"`
}

// JobResult is one job's terminal status.
type JobResult struct {
	JobID    string            `json:"job_id"`
	Failed   bool              `json:"failed"`
	Err      string            `json:"error,omitempty"`
	TaskErrs map[string]string `json:"task_errors,omitempty"`
}

// compile turns a submission body into a validated CNX document: the one
// place the portal reads a model it is going to run. Every error from this
// path is a client-input problem (HTTP 422).
func (p *Portal) compile(format string, body []byte, invs int) (*cnx.Document, error) {
	if invs <= 0 {
		invs = 4
	}
	var doc *cnx.Document
	var err error
	switch format {
	case jobstore.FormatCNX:
		doc, err = cnx.ParseBytes(body)
	case jobstore.FormatXMI:
		doc, err = transform.XMI2CNXBytes(body, transform.Options{Args: core.FixedArgs(invs)})
	default:
		err = fmt.Errorf("portal: unknown format %q", format)
	}
	if err != nil {
		return nil, err
	}
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	return doc, nil
}

// executeDoc runs every CN job of a compiled descriptor and collates
// results. A non-nil error means the run could not proceed (infrastructure
// failure or abort); per-job failures are reported inside the response.
func (p *Portal) executeDoc(ctx context.Context, doc *cnx.Document, tr *runTracker) (*RunResponse, error) {
	resp := &RunResponse{Client: doc.Client.Class, Jobs: make(map[string]JobResult)}
	for ji := range doc.Client.Jobs {
		job := &doc.Client.Jobs[ji]
		if err := ctx.Err(); err != nil {
			return resp, err
		}
		specs, err := job.Specs()
		if err != nil {
			return resp, runError{fmt.Errorf("portal: unprocessable document: %w", err), http.StatusUnprocessableEntity}
		}
		p.logf("running job %q (%d tasks)", job.Name, len(specs))
		cnJob, err := p.client.CreateJob(job.Name, protocol.JobRequirements{})
		if err != nil {
			return resp, err
		}
		tr.add(cnJob)
		jr, err := p.runJob(ctx, cnJob, specs)
		tr.finish(cnJob.ID)
		// The result is collated: nothing more is read from the handle, and
		// the portal's one client must not keep every job it ever ran.
		cnJob.Release()
		if err != nil {
			return resp, err
		}
		resp.Jobs[job.Name] = jr
	}
	return resp, nil
}

// runJob places, starts and runs one CN job to its terminal state: its task
// set and its start ride one Submit. A refused Submit leaves nothing on the
// JobManager. A non-nil error means the run was aborted or timed out (the
// CN job is torn down first, so its tasks stop promptly); a job that failed
// reports so in its JobResult.
func (p *Portal) runJob(ctx context.Context, cnJob *api.Job, specs []*task.Spec) (JobResult, error) {
	if _, err := cnJob.Submit(specs, nil); err != nil {
		return JobResult{JobID: cnJob.ID, Failed: true, Err: err.Error()}, nil
	}
	res, err := cnJob.Wait(ctx)
	if err != nil {
		if ctx.Err() != nil {
			_ = cnJob.Cancel("aborted via portal")
			return JobResult{}, ctx.Err()
		}
		return JobResult{JobID: cnJob.ID, Failed: true, Err: err.Error()}, nil
	}
	return JobResult{JobID: res.JobID, Failed: res.Failed, Err: res.Err, TaskErrs: res.TaskErrs}, nil
}

// runError is an executor error that says what the synchronous routes answer
// for it: 422 for a failure the submitted document caused, 200 for a run that
// finished with a failed CN job (the response says which). Its text is its
// cause's. Any other error is the cluster's, and answers 503.
type runError struct {
	error
	status int
}

func (e runError) Unwrap() error { return e.error }

func (p *Portal) handleRunXMI(w http.ResponseWriter, r *http.Request) {
	p.runAndWait(w, r, jobstore.FormatXMI)
}

func (p *Portal) handleRunCNX(w http.ResponseWriter, r *http.Request) {
	p.runAndWait(w, r, jobstore.FormatCNX)
}

// runAndWait is the paper's blocking surface on the one execution path: the
// body is submitted like any other job — so a full queue answers 429 — and
// the request waits for the record to finish. The answer is the run's
// response, as it always was; the record stays for ResultTTL like any other.
func (p *Portal) runAndWait(w http.ResponseWriter, r *http.Request, format string) {
	queued, ok := p.submit(w, r, format)
	if !ok {
		return
	}
	if _, err := p.store.Wait(r.Context(), queued.ID); err != nil {
		// The caller is gone; nobody is left to read the answer.
		_, _ = p.store.Delete(queued.ID)
		errorJSON(w, http.StatusServiceUnavailable, err)
		return
	}
	rec, result, state, ok := p.store.ResultRecord(queued.ID)
	if !ok {
		errorJSON(w, http.StatusServiceUnavailable, fmt.Errorf("portal: job %s was evicted before its result was read", queued.ID))
		return
	}
	status := http.StatusOK
	if state != jobstore.StateDone {
		status = http.StatusServiceUnavailable
		var re runError
		if errors.As(rec.Err, &re) {
			status = re.status
		}
	}
	if status != http.StatusOK {
		errorJSON(w, status, errors.New(rec.Error))
		return
	}
	p.writeJSON(w, http.StatusOK, result)
}
