package main

// The four workloads and their output oracles. A job is ok only if it
// reached a terminal success and its output verified; everything else —
// a 429, an HTTP error, a portal failed/aborted state, a result body with
// any "failed": true, a client-API error, a wrong output — is a failed job
// with no latency. The generator never retries.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cn/internal/api"
	"cn/internal/jobstore"
	"cn/internal/portal"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/trace"
	"cn/internal/tuplespace"
)

// workload is one named traffic shape.
type workload struct {
	Name    string
	Why     string
	Stack   stackConfig
	Clients int
	Open    bool
}

// The names are fixed: later issues cite them.
var workloads = []workload{
	{Name: "fanout_closed", Clients: 2, Stack: stackConfig{TCP: true, Portal: true},
		Why: "closed loop of 32 independent no-op tasks via the portal on TCP: control plane only, no data plane, tuple space, WAL or DAG"},
	{Name: "mix_open", Clients: 2, Open: true, Stack: stackConfig{Portal: true},
		Why: "open loop at 40 jobs/s with bursts and a CNX-chain/XMI/64-task mix via the portal on the in-memory fabric: compile, queueing and DAG release"},
	{Name: "shuffle_bulk", Clients: 1, Stack: stackConfig{TCP: true},
		Why: "closed loop moving 24 MiB per job as 3 MiB blobs between 4 mappers and 2 reducers on TCP: data plane only, six tasks of control"},
	{Name: "bag_ts", Clients: 2, Stack: stackConfig{TCP: true},
		Why: "closed loop of 4112 tuple-space ops per job across 8 workers on TCP: small-message rate, parks and checkpoints of a live space"},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// bspan is a span the benchmark records around one public call.
type bspan struct {
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur"`
}

// jobRecord is everything the benchmark knows about one attempted job.
type jobRecord struct {
	ID      string       `json:"id"`
	Kind    string       `json:"kind"`
	Due     time.Time    `json:"due"` // when latency starts: the due time (open loop) or the submit (closed loop)
	End     time.Time    `json:"end"`
	OK      bool         `json:"ok"`
	Wrong   bool         `json:"wrong,omitempty"`   // output produced but incorrect
	Refused bool         `json:"refused,omitempty"` // 429 at submit
	Err     string       `json:"err,omitempty"`
	Late    float64      `json:"late_ms,omitempty"` // open loop: send start minus due
	Head    bool         `json:"head,omitempty"`    // open loop: first job of its arrival event
	Spans   []bspan      `json:"spans"`
	Program []trace.Span `json:"program,omitempty"` // traced pass: the program's own spans

	polls   int
	tsOps   int
	queueMS float64
	runMS   float64
}

func (r *jobRecord) latency() time.Duration { return r.End.Sub(r.Due) }

// span times fn as a benchmark span of the job.
func (r *jobRecord) span(name string, fn func()) {
	start := time.Now()
	fn()
	r.Spans = append(r.Spans, bspan{Name: name, Start: start, Dur: time.Since(start)})
}

func (r *jobRecord) fail(format string, args ...any) *jobRecord {
	r.OK = false
	r.Err = fmt.Sprintf(format, args...)
	r.End = time.Now()
	return r
}

func (r *jobRecord) wrong(format string, args ...any) *jobRecord {
	r.Wrong = true
	return r.fail(format, args...)
}

// jobTimeout bounds any single wait on the cluster; a job that needs longer
// is a failed job, not a hung benchmark.
const jobTimeout = 30 * time.Second

// ---- portal workloads ----

// portalConn is one keep-alive HTTP connection to the portal.
type portalConn struct {
	base string
	hc   *http.Client
}

func newPortalConn(base string) *portalConn {
	return &portalConn{base: base, hc: &http.Client{
		Timeout:   jobTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *portalConn) close() { c.hc.CloseIdleConnections() }

// do performs one request and decodes a JSON reply into out.
func (c *portalConn) do(method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// submit POSTs one generated body; false means the job already failed.
func (c *portalConn) submit(r *jobRecord, sub submission) bool {
	path := "/api/jobs?format=" + sub.Format
	if sub.Invocations > 0 {
		path += "&invocations=" + strconv.Itoa(sub.Invocations)
	}
	var rec jobstore.Record
	var status int
	var err error
	r.span("submit", func() { status, err = c.do(http.MethodPost, path, sub.Body, &rec) })
	if err != nil {
		r.Refused = status == http.StatusTooManyRequests
		r.fail("submit: %v", err)
		return false
	}
	r.ID = rec.ID
	return true
}

// poll GETs the job's status once; done reports a terminal state or a
// failure to ask.
func (c *portalConn) poll(r *jobRecord, rec *jobstore.Record) (done bool) {
	var err error
	r.span("poll", func() { _, err = c.do(http.MethodGet, "/api/jobs/"+r.ID, nil, rec) })
	r.polls++
	if err != nil {
		r.fail("status: %v", err)
		return true
	}
	return rec.State.Terminal()
}

// resultBody mirrors the portal's /result reply with the run response typed.
type resultBody struct {
	State  jobstore.State      `json:"state"`
	Error  string              `json:"error"`
	Result *portal.RunResponse `json:"result"`
}

// collect fetches and verifies a terminal job's result, and in the traced
// pass its program spans (at once, before the nodes' span rings evict them).
func (c *portalConn) collect(r *jobRecord, rec *jobstore.Record, sub submission, traced bool) {
	if r.Err != "" {
		return
	}
	var res resultBody
	var err error
	r.span("result", func() { _, err = c.do(http.MethodGet, "/api/jobs/"+r.ID+"/result", nil, &res) })
	r.queueMS, r.runMS = rec.QueueWaitMS, rec.RunMS
	switch {
	case err != nil:
		r.fail("result: %v", err)
	case res.State != jobstore.StateDone:
		r.fail("portal state %s: %s", res.State, res.Error)
	case res.Result == nil || len(res.Result.Jobs) != 1:
		r.wrong("result body does not list exactly one CN job: %+v", res.Result)
	default:
		// Portal "done" is not success: a CN job that failed inside the
		// run is only visible in the result body.
		for _, jr := range res.Result.Jobs {
			if jr.Failed {
				r.fail("CN job %s failed: %s %v", jr.JobID, jr.Err, jr.TaskErrs)
			}
		}
		if r.Err == "" && (rec.Progress == nil || rec.Progress.TasksDone != sub.Tasks) {
			r.wrong("job reports %+v, want %d tasks done", rec.Progress, sub.Tasks)
		}
	}
	if r.Err == "" {
		r.OK, r.End = true, time.Now()
	}
	if traced {
		var tr portal.TraceResponse
		if _, err := c.do(http.MethodGet, "/api/jobs/"+r.ID+"/trace", nil, &tr); err == nil {
			r.Program = tr.Spans
		}
	}
}

const (
	// pollEvery is the status polling cadence of the portal clients.
	pollEvery = time.Millisecond
	// setupPollEvery is the cadence of the one job that proves a boot. A
	// single job polled every millisecond takes a whole number of polls, and
	// which number flips on a few microseconds: setup_s would jump between
	// two values instead of following the set-up time.
	setupPollEvery = 100 * time.Microsecond
)

// portalJob runs one closed-loop portal job: submit, poll at the given
// cadence, fetch and verify the result.
func portalJob(c *portalConn, sub submission, every time.Duration, traced bool) *jobRecord {
	r := &jobRecord{Kind: sub.Kind, Due: time.Now()}
	if !c.submit(r, sub) {
		return r
	}
	var rec jobstore.Record
	deadline := r.Due.Add(jobTimeout)
	for !c.poll(r, &rec) {
		if time.Now().After(deadline) {
			return r.fail("no terminal state after %v", jobTimeout)
		}
		r.span("poll_sleep", func() { time.Sleep(every) })
	}
	c.collect(r, &rec, sub, traced)
	return r
}

// ---- client-API workloads ----

// apiJob creates, populates and starts a job through the client API,
// running body between Start and Wait, with a span around each call.
func apiJob(cl *api.Client, st *stack, kind string, specs []*task.Spec, traced bool, body func(*jobRecord, *api.Job) error) *jobRecord {
	r := &jobRecord{Kind: kind, Due: time.Now()}
	var job *api.Job
	var err error
	r.span("create_job", func() { job, err = cl.CreateJob(kind, protocol.JobRequirements{}) })
	if err != nil {
		return r.fail("create job: %v", err)
	}
	r.ID = job.ID
	r.span("create_tasks", func() { _, err = job.CreateTasks(specs, nil) })
	if err != nil {
		return r.fail("create tasks: %v", err)
	}
	r.span("start", func() { err = job.Start() })
	if err != nil {
		return r.fail("start: %v", err)
	}
	var bodyErr error
	if body != nil {
		if bodyErr = body(r, job); bodyErr != nil {
			_ = job.Cancel("benchmark oracle gave up") // free the workers; the job is already failed
		}
	}
	var res *api.Result
	r.span("wait", func() {
		ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
		defer cancel()
		res, err = job.Wait(ctx)
	})
	switch {
	case bodyErr != nil:
		var bad wrongOutput
		if errors.As(bodyErr, &bad) {
			r.wrong("%v", bodyErr)
		} else {
			r.fail("%v", bodyErr)
		}
	case err != nil:
		r.fail("wait: %v", err)
	case res.Failed:
		// A reducer that saw wrong bytes fails its task with the marker.
		if containsMarker(res.TaskErrs) {
			r.wrong("job failed: %s %v", res.Err, res.TaskErrs)
		} else {
			r.fail("job failed: %s %v", res.Err, res.TaskErrs)
		}
	default:
		r.OK, r.End = true, time.Now()
	}
	if p, ok := st.cluster.JobProgress(job.Manager(), job.ID); ok {
		r.tsOps = p.TSOps
	}
	if traced {
		r.Program, _ = st.cluster.JobTrace(job.ID)
	}
	return r
}

// wrongOutput marks an oracle mismatch, as opposed to the cluster refusing
// or failing the job.
type wrongOutput struct{ error }

const wrongMarker = "bench-oracle:"

func containsMarker(taskErrs map[string]string) bool {
	for _, e := range taskErrs {
		if strings.Contains(e, wrongMarker) {
			return true
		}
	}
	return false
}

func intParam(v int) task.Param { return task.Param{Type: task.TypeInteger, Value: strconv.Itoa(v)} }

func apiSpec(name, class string, params ...task.Param) *task.Spec {
	return &task.Spec{Name: name, Class: class, Params: params,
		Req: task.Requirements{MemoryMB: 16, RunModel: task.RunAsThreadInTM}}
}

// registerTasks installs the benchmark's task classes.
func registerTasks(reg *task.Registry, base *shuffleBase) {
	reg.MustRegister(noopClass, func() task.Task {
		return task.Func(func(task.Context) error { return nil })
	})
	// Params: job number, mapper index.
	reg.MustRegister("bench.Mapper", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			job, err := task.IntParam(ctx.Params(), 0)
			if err != nil {
				return err
			}
			m, err := task.IntParam(ctx.Params(), 1)
			if err != nil {
				return err
			}
			for r := 0; r < shuffleReducers; r++ {
				if err := ctx.Put(shuffleKey(m, r), base.payload(job, m, r)); err != nil {
					return err
				}
			}
			return nil
		})
	})
	// Params: job number, reducer index.
	reg.MustRegister("bench.Reducer", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			job, err := task.IntParam(ctx.Params(), 0)
			if err != nil {
				return err
			}
			r, err := task.IntParam(ctx.Params(), 1)
			if err != nil {
				return err
			}
			gctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
			defer cancel()
			for m := 0; m < shuffleMappers; m++ {
				got, err := ctx.Get(gctx, shuffleKey(m, r))
				if err != nil {
					return err
				}
				if err := base.verify(got, job, m, r); err != nil {
					return fmt.Errorf("%s %w", wrongMarker, err)
				}
			}
			return nil
		})
	})
	reg.MustRegister("bench.BagWorker", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			for {
				t, err := ctx.In(tuplespace.Template{"task", tuplespace.TypeOf(0)})
				if errors.Is(err, tuplespace.ErrClosed) {
					return nil
				}
				if err != nil {
					return err
				}
				n := t[1].(int)
				if n < 0 {
					return nil // poison
				}
				if err := ctx.Out(tuplespace.Tuple{"res", n, n * n}); err != nil {
					return err
				}
			}
		})
	})
}

// shuffleJob is one shuffle_bulk job; the reducers are the oracle.
func shuffleJob(cl *api.Client, st *stack, jobNo int, traced bool) *jobRecord {
	specs := make([]*task.Spec, 0, shuffleMappers+shuffleReducers)
	for m := 0; m < shuffleMappers; m++ {
		specs = append(specs, apiSpec(fmt.Sprintf("map%d", m), "bench.Mapper", intParam(jobNo), intParam(m)))
	}
	for r := 0; r < shuffleReducers; r++ {
		specs = append(specs, apiSpec(fmt.Sprintf("red%d", r), "bench.Reducer", intParam(jobNo), intParam(r)))
	}
	return apiJob(cl, st, "shuffle", specs, traced, nil)
}

// tsSpanEvery is the sampling of client tuple-space op spans: one in 16.
const tsSpanEvery = 16

// bagJob is one bag_ts job: seed the task tuples (1024 in the workload),
// take as many results, poison the 8 workers. The oracle wants exactly the
// job's distinct values back with the right squares.
func bagJob(cl *api.Client, st *stack, seed int64, jobNo, items int, traced bool) *jobRecord {
	specs := make([]*task.Spec, bagWorkers)
	for i := range specs {
		specs[i] = apiSpec(fmt.Sprintf("w%d", i), "bench.BagWorker")
	}
	base := bagBase(seed, jobNo)
	r := apiJob(cl, st, "bag", specs, traced, func(r *jobRecord, job *api.Job) error {
		space := job.Space()
		op := 0
		timed := func(name string, fn func() error) error {
			op++
			if op%tsSpanEvery != 0 {
				return fn()
			}
			var err error
			r.span(name, func() { err = fn() })
			return err
		}
		for i := 0; i < items; i++ {
			if err := timed("ts_out", func() error { return space.Out(tuplespace.Tuple{"task", base + i}) }); err != nil {
				return fmt.Errorf("out task %d: %w", i, err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
		defer cancel()
		seen := make(map[int]bool, items)
		var sum, want int64
		for i := 0; i < items; i++ {
			var t tuplespace.Tuple
			if err := timed("ts_in", func() (err error) {
				t, err = space.In(ctx, tuplespace.Template{"res", tuplespace.TypeOf(0), tuplespace.TypeOf(0)})
				return err
			}); err != nil {
				return fmt.Errorf("in result %d: %w", i, err)
			}
			n, sq := t[1].(int), t[2].(int)
			if n < base || n >= base+items || seen[n] {
				return wrongOutput{fmt.Errorf("result %d is outside the job's values or a duplicate", n)}
			}
			seen[n] = true
			sum += int64(sq)
			want += int64(base+i) * int64(base+i)
		}
		if sum != want {
			return wrongOutput{fmt.Errorf("sum of squares %d, want %d", sum, want)}
		}
		for i := 0; i < bagWorkers; i++ {
			if err := space.Out(tuplespace.Tuple{"task", -1}); err != nil {
				return fmt.Errorf("poison %d: %w", i, err)
			}
		}
		return nil
	})
	if want := bagOps(items); r.OK && r.tsOps < want {
		r.wrong("job counted %d tuple ops, want at least %d", r.tsOps, want)
	}
	return r
}

// ---- load loops ----

// phase is the timeline of one measured pass: warm-up, then the window cut
// into equal slices. A closed loop's throughput, median latency and CPU per
// job are taken per slice (see bestSlices).
type phase struct {
	Warm, Window time.Duration
	Slices       int
}

// sliceMark is the clock and the process CPU time at a slice boundary.
type sliceMark struct {
	At  time.Time
	CPU time.Duration
}

// passResult is what one pass over a workload produced.
type passResult struct {
	T0, T1   time.Time
	C0, C1   counters
	Marks    []sliceMark  // the slice boundaries, first at T0 and last at T1
	Records  []*jobRecord // the window's jobs: ended in it (closed loop) or due in it (open loop)
	All      []*jobRecord // closed loop: every job of the pass, warm-up and in flight at T1 included
	Quiesced bool         // in-flight reached zero before the drain timeout
}

// measure sleeps until t0, reads every counter, marks each slice boundary
// of the window, and reads the counters again at its end.
func (res *passResult) measure(st *stack, t0 time.Time, ph phase) {
	window := ph.Window
	time.Sleep(time.Until(t0))
	res.C0 = st.read()
	res.T0 = res.C0.At
	res.Marks = []sliceMark{{res.C0.At, res.C0.CPU}}
	for i := 1; i < ph.Slices; i++ {
		time.Sleep(time.Until(t0.Add(window * time.Duration(i) / time.Duration(ph.Slices))))
		res.Marks = append(res.Marks, sliceMark{time.Now(), cpuTime()})
	}
	time.Sleep(time.Until(t0.Add(window)))
	res.C1 = st.read()
	res.T1 = res.C1.At
	res.Marks = append(res.Marks, sliceMark{res.C1.At, res.C1.CPU})
}

// closedLoop runs clients goroutines that each start their next job only
// when the previous one finished, until the window closes; a job counts
// toward the window when it ended inside it.
func closedLoop(st *stack, clients int, ph phase, job func(client int) *jobRecord) passResult {
	var stop atomic.Bool
	perClient := make([][]*jobRecord, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				perClient[c] = append(perClient[c], job(c))
			}
		}()
	}
	var res passResult
	res.measure(st, time.Now().Add(ph.Warm), ph)
	stop.Store(true)
	wg.Wait()
	res.Quiesced = true
	for _, recs := range perClient {
		res.All = append(res.All, recs...)
		for _, r := range recs {
			if end := r.End; !end.Before(res.T0) && end.Before(res.T1) {
				res.Records = append(res.Records, r)
			}
		}
	}
	return res
}

// drainTimeout bounds the wait for in-flight jobs after an open-loop
// schedule ends.
const drainTimeout = 15 * time.Second

// openLoop sends the schedule's jobs at their due times regardless of how
// the system is doing: one goroutine submits, a second polls every
// outstanding job each millisecond and collects finished ones. Latency runs
// from the due time. A job counts toward the window when it was due in it.
func openLoop(st *stack, schedule []arrival, ph phase, traced bool) passResult {
	submitter, poller := newPortalConn(st.url), newPortalConn(st.url)
	defer submitter.close()
	defer poller.close()

	type flight struct {
		rec *jobRecord
		sub submission
	}
	var mu sync.Mutex
	var inflight []*flight
	var all []*jobRecord
	submitted := make(chan struct{})

	start := time.Now().Add(10 * time.Millisecond)
	var res passResult
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // controller: reads the counters at the window's edges
		defer wg.Done()
		res.measure(st, start.Add(ph.Warm), ph)
	}()
	go func() { // submitter
		defer wg.Done()
		defer close(submitted)
		for _, a := range schedule {
			due := start.Add(a.Due)
			time.Sleep(time.Until(due))
			r := &jobRecord{Kind: a.Sub.Kind, Due: due, Head: a.Head}
			r.Late = float64(time.Since(due)) / float64(time.Millisecond)
			ok := submitter.submit(r, a.Sub)
			mu.Lock()
			all = append(all, r)
			if ok {
				inflight = append(inflight, &flight{rec: r, sub: a.Sub})
			}
			mu.Unlock()
		}
	}()
	go func() { // poller
		defer wg.Done()
		var drainBy time.Time
		res.Quiesced = true
		for {
			// Whether the schedule has ended is read before the snapshot: once
			// it has, the snapshot holds every job still in flight.
			ended := false
			select {
			case <-submitted:
				ended = true
			default:
			}
			mu.Lock()
			batch := append([]*flight(nil), inflight...)
			mu.Unlock()
			if ended && len(batch) == 0 {
				return
			}
			if ended && drainBy.IsZero() {
				drainBy = time.Now().Add(drainTimeout)
			}
			done := make(map[*flight]bool)
			for _, f := range batch {
				var rec jobstore.Record
				switch {
				case poller.poll(f.rec, &rec):
					poller.collect(f.rec, &rec, f.sub, traced)
					done[f] = true
				case !drainBy.IsZero() && time.Now().After(drainBy):
					f.rec.fail("no terminal state %v after the schedule ended", drainTimeout)
					done[f] = true
					res.Quiesced = false
				}
			}
			if len(done) > 0 {
				mu.Lock()
				kept := inflight[:0]
				for _, f := range inflight {
					if !done[f] {
						kept = append(kept, f)
					}
				}
				inflight = kept
				mu.Unlock()
			}
			time.Sleep(pollEvery)
		}
	}()
	wg.Wait()
	for _, r := range all {
		if !r.Due.Before(res.T0) && r.Due.Before(res.T1) {
			res.Records = append(res.Records, r)
		}
	}
	return res
}
