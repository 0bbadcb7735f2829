package main

// One run: a workload, a seed, a measured length, traced or not.
//
//	--trace 0: five segments, each boot → warm-up → a fifth of the measured
//	           length with tracing off, cut into half-second slices → quiesce
//	           → stop, each followed by a batch of set-up samples (boot → first
//	           verified job → stop); setup_s is the median over the batches.
//	           Reports the end-to-end metrics.
//	--trace 1: an untraced window (counter deltas, boundary spans), a traced
//	           window of the same length (the program's spans, tracing
//	           overhead) and the isolated probes share the measured length.
//	           Reports the per-layer metrics.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"cn/internal/api"
	"cn/internal/task"
)

// timing is the part of a run's shape that does not depend on its measured
// length. The smoke test shrinks it; everything else uses shippedTiming.
type timing struct {
	// A timed run is cut into Segments, each on a freshly booted stack, and
	// each segment's window into slices of sliceLength.
	Segments int
	// A timed run starts by booting a stack to its first verified job and
	// stopping it, each time a set-up sample: Boots times, or fewer (but at
	// least minBoots) once that has taken BootTime.
	Boots    int
	BootTime time.Duration
	// Warm precedes each timed window, WarmTraced each window of a traced
	// run. The latter is longer because a traced run compares its two windows
	// with each other, and the first would otherwise pay for growing the
	// process's heap to its working size (2 GB on shuffle_bulk).
	Warm, WarmTraced time.Duration
	// Settle is how long after the last job ended the leak counters are
	// read: long enough for completion events in flight to land.
	Settle time.Duration
}

var shippedTiming = timing{Segments: 5, Boots: 40, BootTime: 300 * time.Millisecond,
	Warm: 1500 * time.Millisecond, WarmTraced: 3 * time.Second, Settle: 200 * time.Millisecond}

const (
	sliceLength = 500 * time.Millisecond
	// A closed loop's throughput, latency and CPU per job are read off the
	// best twentieth of a timed run's slices. The work per job is fixed, so
	// what differs between slices is the host: other tenants of the processor
	// slow a slice and never speed one up (on bag_ts, CPU per job ran from 126
	// to 232 ms between the slices of one run). The level the best slices reach
	// spread half as wide over ten runs as the median over slices did.
	bestSlices = 0.05
	minBoots   = 2

	// A traced run gives its untraced and its traced window this share of
	// the measured length each, so the two compare like with like; the
	// probes get the rest.
	windowShare = 0.35

	maxErrors = 5
	// Validity limits of the open loop.
	maxLateP95MS    = 5.0
	minAchievedRate = 0.98
)

// runConfig is one invocation's parameters.
type runConfig struct {
	Workload *workload
	Seed     int64
	Seconds  int
	Trace    bool
	OutDir   string // trace files and WAL directories go here
	Timing   timing
}

// result is one run's full output; the driver reads only the summary line
// printed from it.
type result struct {
	Workload  string      `json:"workload"`
	Trace     int         `json:"trace"`
	Seed      int64       `json:"seed"`
	Seconds   int         `json:"seconds"`
	Windows   []string    `json:"windows"`
	Fabric    string      `json:"fabric"`
	OutFS     string      `json:"out_fs"` // filesystem under the output directory, where the WAL probes write
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Valid     bool        `json:"valid"`
	Invalid   string      `json:"invalid,omitempty"`
	Errors    []string    `json:"errors,omitempty"`
	Metrics   metricSet   `json:"metrics"`
	Budget    []budgetRow `json:"budget,omitempty"`
	Env       envelope    `json:"env"`
}

// summaryLine is the last line of standard output: the metrics
// BENCHMARK.json lists for this kind of run.
func (r *result) summaryLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	defs := perLayer
	if r.Trace == 0 {
		defs = driverEndToEnd()
	}
	for _, d := range defs {
		out.Metrics[d.Name] = mv{r.Metrics[d.Name].Value, d.Unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(raw)
}

// inputs is what a run generates once from its seed and every stack it boots
// shares: the closed-loop portal bodies and the job counter.
type inputs struct {
	bodies []submission
	jobNo  atomic.Int64 // across the run's stacks, so shuffle digests and bag values never repeat
}

func newInputs(wl *workload, seed int64) *inputs {
	in := &inputs{}
	switch wl.Name {
	case "fanout_closed":
		in.bodies = fanoutBodies(seed)
	case "mix_open":
		// The set-up job of the open loop is the schedule's commonest shape.
		in.bodies = []submission{{Kind: "chain4", Format: "cnx", Tasks: mixChainTasks,
			Body: chainCNX(rand.New(rand.NewSource(seed)), "setup", mixChainTasks)}}
	}
	return in
}

// driver issues one workload's jobs against one booted stack.
type driver struct {
	cfg     runConfig
	st      *stack
	in      *inputs
	conns   []*portalConn
	clients []*api.Client
}

func newDriver(cfg runConfig, st *stack, in *inputs) (*driver, error) {
	d := &driver{cfg: cfg, st: st, in: in}
	for i := 0; i < cfg.Workload.Clients; i++ {
		if cfg.Workload.Stack.Portal {
			d.conns = append(d.conns, newPortalConn(st.url))
			continue
		}
		cl, err := st.connect()
		if err != nil {
			return nil, err
		}
		d.clients = append(d.clients, cl)
	}
	return d, nil
}

func (d *driver) close() {
	for _, c := range d.conns {
		c.close()
	}
}

// stop releases the driver's connections and tears its stack down.
func (d *driver) stop() {
	d.close()
	d.st.stop()
}

// job runs one closed-loop job on the given client.
func (d *driver) job(client int) *jobRecord { return d.run(client, bagItems, pollEvery) }

// first runs the job that proves a boot, the one a set-up sample ends with.
// It is the workload's own job, except where that job's size or cadence
// would bury the set-up under steady-state work: the bag is smaller and the
// portal job polls faster (see setupBagItems, setupPollEvery).
func (d *driver) first() *jobRecord { return d.run(0, setupBagItems, setupPollEvery) }

// run issues one job of the workload: a bag of the given size on bag_ts, a
// portal job polled at the given cadence on the portal workloads.
func (d *driver) run(client, items int, every time.Duration) *jobRecord {
	n := int(d.in.jobNo.Add(1))
	switch d.cfg.Workload.Name {
	case "shuffle_bulk":
		return shuffleJob(d.clients[client], d.st, n, d.st.cfg.Traced)
	case "bag_ts":
		return bagJob(d.clients[client], d.st, d.cfg.Seed, n, items, d.st.cfg.Traced)
	default:
		return portalJob(d.conns[client], d.in.bodies[n%len(d.in.bodies)], every, d.st.cfg.Traced)
	}
}

// pass drives the workload through warm-up and one window.
func (d *driver) pass(ph phase) passResult {
	if d.cfg.Workload.Open {
		return openLoop(d.st, mixSchedule(d.cfg.Seed, ph.Warm, ph.Window), ph, d.st.cfg.Traced)
	}
	return closedLoop(d.st, d.cfg.Workload.Clients, ph, d.job)
}

// run executes one invocation.
func run(cfg runConfig) (*result, error) {
	if runtime.NumCPU() < 2 {
		return nil, fmt.Errorf("bench: needs at least 2 CPUs, have %d", runtime.NumCPU())
	}
	res := &result{
		Workload: cfg.Workload.Name, Seed: cfg.Seed, Seconds: cfg.Seconds,
		Fabric: cfg.Workload.Stack.fabric(), Correct: true, Valid: true,
		OutFS: fsType(cfg.OutDir), Metrics: make(metricSet), Env: readEnvelope(),
	}
	reg := task.NewRegistry()
	registerTasks(reg, newShuffleBase(cfg.Seed))
	in := newInputs(cfg.Workload, cfg.Seed)

	// start boots a stack and proves it with one verified job.
	start := func(traced bool) (*driver, error) {
		sc := cfg.Workload.Stack
		sc.Traced = traced
		st, err := boot(sc, reg, cfg.OutDir)
		if err != nil {
			return nil, err
		}
		d, err := newDriver(cfg, st, in)
		if err != nil {
			st.stop()
			return nil, err
		}
		if first := d.first(); !first.OK {
			d.stop()
			return nil, fmt.Errorf("bench: %s: first job after boot failed: %s", cfg.Workload.Name, first.Err)
		}
		return d, nil
	}
	// finish quiesces, reads the leak counters and stops the stack.
	finish := func(d *driver, ms metricSet) {
		time.Sleep(cfg.Timing.Settle)
		ms.set("jobmgr.active_jobs_at_quiesce", float64(d.st.activeJobs()), 0)
		ms.set("process.goroutines_at_quiesce", float64(runtime.NumGoroutine()), 0)
		d.stop()
		time.Sleep(cfg.Timing.Settle)
		ms.set("process.goroutines_after_stop", float64(runtime.NumGoroutine()), 0)
	}

	all := make(metricSet)
	if !cfg.Trace {
		// Every segment boots its own stack, and the measured length is spread
		// over the segments, so no number rests on the state one boot happened
		// to land in. The set-up samples are spread the same way: a batch of
		// boot → first verified job → stop after each segment, when the host's
		// processors are as busy as the segment left them (on an idle virtual
		// machine the wake-up latency of a halted processor, which is the
		// host's, decides how long a millisecond-scale boot takes).
		segments := cfg.Timing.Segments
		ph := phase{Warm: cfg.Timing.Warm, Window: time.Duration(cfg.Seconds) * time.Second / time.Duration(segments)}
		ph.Slices = max(1, int(ph.Window/sliceLength))
		var setups samples
		var passes []passResult
		for i := 0; i < segments; i++ {
			d, err := start(false)
			if err != nil {
				return nil, err
			}
			passes = append(passes, d.pass(ph))
			finish(d, all)
			began, batch := time.Now(), 0
			for batch < cfg.Timing.Boots && (batch < minBoots || time.Since(began) < cfg.Timing.BootTime) {
				t := time.Now()
				d, err := start(false)
				if err != nil {
					return nil, err
				}
				setups = append(setups, time.Since(t).Seconds())
				d.stop()
				batch++
			}
		}
		all.set("setup_s", setups.median(), len(setups))
		res.Windows = []string{fmt.Sprintf("timed %d x %v", segments, ph.Window), fmt.Sprintf("set-up %d boots", len(setups))}
		summarize(cfg.Workload, passes, all, res)
		all.set("peak_rss_mb", peakRSSMB(), 0)
		res.Metrics = all.only(endToEnd)
		return res, nil
	}

	res.Trace = 1
	length := time.Duration(cfg.Seconds) * time.Second
	window := phase{Warm: cfg.Timing.WarmTraced, Window: time.Duration(float64(length) * windowShare), Slices: 1}
	probeTime := length - 2*window.Window
	res.Windows = []string{"untraced " + window.Window.String(), "traced " + window.Window.String(), "probes " + probeTime.String()}

	d, err := start(false)
	if err != nil {
		return nil, err
	}
	up := d.pass(window)
	finish(d, all)
	summarize(cfg.Workload, []passResult{up}, all, res)

	if d, err = start(true); err != nil {
		return nil, err
	}
	tp := d.pass(window)
	d.stop()
	// The traced window's jobs count toward the run's accounting, but not its
	// lateness toward the run's validity: tracing slows the system enough to
	// make the open loop's generator queue, which is tracing's cost (reported
	// as trace.overhead_pct), not a fault in the untraced measurements.
	tracedSet := make(metricSet)
	valid, invalid := res.Valid, res.Invalid
	summarize(cfg.Workload, []passResult{tp}, tracedSet, res)
	res.Valid, res.Invalid = valid, invalid
	res.Budget = analyzeTrace(tp.Records, all)
	all.set("trace.overhead_pct", traceOverhead(cfg.Workload, all, tracedSet), 0)
	if err := writeTraceFile(cfg, tp.Records); err != nil {
		return nil, err
	}

	if err := runProbes(probeTime, reg, cfg, all); err != nil {
		return nil, err
	}
	// The end-to-end metrics BENCHMARK.json cannot carry, as the untraced
	// window read them.
	for _, d := range endToEnd {
		if d.Driver == 0 {
			all.set("client."+d.Name, all[d.Name].Value, all[d.Name].N)
		}
	}
	res.Metrics = all.only(perLayer)
	return res, nil
}

// traceOverhead compares the traced window with the untraced one: the
// throughput lost on a closed loop; on the open loop, whose throughput the
// schedule fixes, the CPU per job gained.
func traceOverhead(wl *workload, untraced, traced metricSet) float64 {
	if wl.Open {
		return 100 * (ratio(traced["cpu_ms_per_job"].Value, untraced["cpu_ms_per_job"].Value) - 1)
	}
	return 100 * (1 - ratio(traced["jobs_per_s"].Value, untraced["jobs_per_s"].Value))
}

// summarize turns the passes of one configuration into metrics — the
// end-to-end numbers, the boundary-span percentiles and the counter deltas
// — and folds the job accounting into res.
func summarize(wl *workload, passes []passResult, ms metricSet, res *result) {
	var window float64
	grown := make(map[string]float64) // counter growth over the windows
	var grownCPU time.Duration
	var ok []*jobRecord
	var lat, late, headLate, queue, runMS, polls, tsOps samples
	var rate, p50, cpu samples // one value per slice
	spans := make(map[string]samples)
	attempted, refused, unplaced, sentInWindow := 0, 0, 0, 0
	for _, p := range passes {
		window += p.T1.Sub(p.T0).Seconds()
		for k, v := range p.C1.V {
			grown[k] += v - p.C0.V[k]
		}
		grownCPU += p.C1.CPU - p.C0.CPU
		attempted += len(p.Records)
		if !p.Quiesced {
			res.Valid = false
			res.Invalid = "jobs still in flight at the drain timeout"
		}
		var passOK []*jobRecord
		for _, r := range p.Records {
			late = append(late, r.Late)
			if r.Head {
				headLate = append(headLate, r.Late)
			}
			if len(r.Spans) > 0 && r.Spans[0].Start.Before(p.T1) {
				sentInWindow++
			}
			if r.Refused {
				refused++
			}
			if strings.Contains(r.Err, "no TaskManager") || strings.Contains(r.Err, "placement of") {
				unplaced++
			}
			if !r.OK {
				res.Failed++
				if r.Wrong {
					res.Correct = false
				}
				if len(res.Errors) < maxErrors {
					res.Errors = append(res.Errors, r.Err)
				}
				continue
			}
			passOK = append(passOK, r)
			lat = append(lat, float64(r.latency())/float64(time.Millisecond))
			polls = append(polls, float64(r.polls))
			tsOps = append(tsOps, float64(r.tsOps))
			queue = append(queue, r.queueMS)
			runMS = append(runMS, r.runMS)
			for _, s := range r.Spans {
				spans[s.Name] = append(spans[s.Name], float64(s.Dur)/float64(time.Microsecond))
			}
		}
		ok = append(ok, passOK...)
		if wl.Open {
			continue // no slices: see below
		}
		// A job belongs to the slice it ended in.
		for i := 0; i+1 < len(p.Marks); i++ {
			a, b := p.Marks[i], p.Marks[i+1]
			var sl samples
			for _, r := range passOK {
				if !r.End.Before(a.At) && r.End.Before(b.At) {
					sl = append(sl, float64(r.latency())/float64(time.Millisecond))
				}
			}
			if len(sl) > 0 {
				p50 = append(p50, sl.sorted().pct(0.50))
			}
			if done := workDone(p.All, a.At, b.At); done > 0 {
				rate = append(rate, done/b.At.Sub(a.At).Seconds())
				cpu = append(cpu, float64(b.CPU-a.CPU)/float64(time.Millisecond)/done)
			}
		}
	}
	n := float64(len(ok))
	res.Attempted += attempted
	kjob := n / 1000
	lat = lat.sorted()

	if wl.Open {
		// The open loop is read over its whole windows. Its slices differ by
		// what the schedule put in them (a burst, a 64-task job), which says
		// nothing of the host, and the schedule fixes its throughput.
		rate = samples{n / window}
		p50 = samples{lat.pct(0.5)}
		cpu = samples{ratio(float64(grownCPU)/float64(time.Millisecond), n)}
	}
	ms.set("jobs_per_s", best(rate, true), len(ok))
	ms.set("job_latency_p50_ms", best(p50, false), len(lat))
	ms.set("cpu_ms_per_job", best(cpu, false), len(ok))
	ms.set("job_latency_p95_ms", lat.pct(0.95), len(lat))
	ms.set("client.job_latency_p99_ms", lat.pct(0.99), len(lat))
	ms.set("client.samples", n, 0)
	ms.set("fail_share", ratio(float64(attempted-len(ok)), float64(attempted)), attempted)

	// Boundary spans, in the unit each metric declares.
	us := func(name string) (float64, int) { s := spans[name].sorted(); return s.pct(0.5), len(s) }
	msOf := func(name string) (float64, int) { v, n := us(name); return v / 1000, n }
	v, c := msOf("submit")
	ms.set("portal.submit_p50_ms", v, c)
	v, c = us("poll")
	ms.set("portal.status_get_p50_us", v, c)
	v, c = us("result")
	ms.set("portal.result_get_p50_us", v, c)
	var apiSum float64
	for _, call := range []string{"create_job", "create_tasks", "start", "wait"} {
		v, c = msOf(call)
		ms.set("api."+call+"_p50_ms", v, c)
		apiSum += v
	}
	if !wl.Stack.Portal {
		ms.set("api.residual_p50_ms", lat.pct(0.5)-apiSum, len(lat)) // whole-window p50, like the four rows
	}
	v, c = us("ts_out")
	ms.set("tuplespace.remote_out_p50_us", v, c)
	v, c = us("ts_in")
	ms.set("tuplespace.remote_in_p50_us", v, c)
	ms.set("tuplespace.ops_per_job", tsOps.mean(), len(tsOps))
	if wl.Stack.Portal {
		ms.set("portal.polls_per_job", polls.mean(), len(polls))
		ms.set("portal.refused_share", ratio(float64(refused), float64(attempted)), attempted)
		queue, runMS = queue.sorted(), runMS.sorted()
		ms.set("jobstore.queue_wait_p50_ms", queue.pct(0.5), len(queue))
		ms.set("jobstore.queue_wait_p95_ms", queue.pct(0.95), len(queue))
		ms.set("jobstore.run_p50_ms", runMS.pct(0.5), len(runMS))
	}

	// Counter growth over the windows.
	ms.set("jobmgr.tasks_retried_per_kjob", ratio(grown["kind.TASK_RETRIED"], kjob), 0)
	ms.set("jobmgr.checkpoint_frames_per_s", grown["kind.JM_CHECKPOINT"]/window, 0)
	ms.set("placement.solicit_rounds_per_kjob", ratio(grown["solicit_rounds"], kjob), 0)
	ms.set("placement.cache_hit_share", ratio(grown["place_hits"], grown["place_hits"]+grown["solicit_rounds"]), 0)
	ms.set("placement.evictions_per_kjob", ratio(grown["evictions"], kjob), 0)
	ms.set("placement.invalidations_per_kjob", ratio(grown["invalidations"], kjob), 0)
	ms.set("placement.unplaced_job_share", ratio(float64(unplaced), float64(attempted)), attempted)
	ms.set("taskmgr.tasks_per_s", grown["kind.EXEC_TASK"]/window, 0)
	ms.set("dataplane.resolves_per_job", ratio(grown["resolves"], n), 0)
	ms.set("dataplane.park_share", ratio(grown["parks"], grown["resolves"]), 0)
	ms.set("dataplane.retries_per_kjob", ratio(grown["dp_retries"], kjob), 0)
	ms.set("archive.cache_hit_share", ratio(grown["cache_hits"], grown["cache_hits"]+grown["cache_misses"]), 0)
	ms.set("archive.blob_transfers_per_job", ratio(grown["blob_transfers"], n), 0)
	ms.set("transport.frames_per_job", ratio(grown["sent"], n), 0)
	ms.set("transport.bytes_per_job", ratio(grown["bytes_sent"], n), 0)
	ms.set("transport.flushes_per_frame", ratio(grown["flushes"], grown["sent"]), 0)
	ms.set("transport.heartbeat_frames_per_s", grown["kind.HEARTBEAT"]/window, 0)
	ms.set("transport.control_drops", grown["control_drops"], 0)
	ms.set("transport.bulk_drops", grown["bulk_drops"], 0)
	ms.set("transport.dropped", grown["dropped"], 0)
	ms.set("transport.frame_errors", grown["frame_errors"], 0)
	ms.set("process.alloc_kb_per_job", ratio(grown["alloc_bytes"]/1024, n), 0)
	ms.set("process.gc_cycles", grown["gc_cycles"], 0)
	ms.set("process.gc_pause_total_ms", grown["gc_pause_ns"]/1e6, 0)

	// Workload-specific throughputs, zero where the workload has none: what
	// a job moves, at the rate jobs_per_s reports.
	if wl.Name == "shuffle_bulk" {
		delivered := n * shuffleJobBytes
		ms.set("shuffle_mb_per_s", ms["jobs_per_s"].Value*shuffleJobBytes/(1<<20), len(ok))
		ms.set("dataplane.tm_direct_byte_share", ratio(grown["fetched_bytes"], delivered), 0)
		ms.set("dataplane.wire_bytes_per_payload_byte", ratio(grown["bytes_sent"], delivered), 0)
	}
	if wl.Name == "bag_ts" {
		ms.set("ts_ops_per_s", ms["jobs_per_s"].Value*tsOps.mean(), len(ok))
	}

	// Generator validity. A closed loop is never late; the open loop is
	// invalid when the generator could not keep its own schedule. The p95 is
	// over arrival events: the rest of a burst queues behind its first job on
	// the one submit connection by design, and that wait is in the latency.
	late, headLate = late.sorted(), headLate.sorted()
	ms.set("client.generator_late_p95_ms", headLate.pct(0.95), len(headLate))
	ms.set("client.generator_late_max_ms", late.pct(1), len(late))
	achieved := ratio(float64(sentInWindow), float64(attempted))
	ms.set("client.achieved_rate_share", achieved, attempted)
	if wl.Open && (headLate.pct(0.95) > maxLateP95MS || achieved < minAchievedRate) {
		res.Valid = false
		res.Invalid = fmt.Sprintf("generator late p95 %.2f ms (limit %.0f), achieved rate share %.3f (limit %.2f)",
			headLate.pct(0.95), maxLateP95MS, achieved, minAchievedRate)
	}
	valid := 0.0
	if res.Valid {
		valid = 1
	}
	ms.set("client.valid", valid, 0)
}

// best is the level the best bestSlices share of the per-slice values reach
// (the third best of 40); of a single value, that value.
func best(perSlice samples, higherIsBetter bool) float64 {
	if len(perSlice) == 0 {
		return 0
	}
	s := perSlice.sorted()
	if higherIsBetter {
		slices.Reverse(s)
	}
	return s[int(bestSlices*float64(len(s)))]
}

// workDone is how many jobs' worth of work the ok jobs did inside [a, b):
// each counts by the share of its run that falls inside, so a 200 ms job is
// not all-or-nothing to a 2 s slice.
func workDone(all []*jobRecord, a, b time.Time) float64 {
	var done float64
	for _, r := range all {
		if !r.OK || !r.Due.Before(b) || !r.End.After(a) {
			continue
		}
		from, to := r.Due, r.End
		if from.Before(a) {
			from = a
		}
		if to.After(b) {
			to = b
		}
		done += float64(to.Sub(from)) / float64(r.latency())
	}
	return done
}

// maxTraceJobs bounds the trace file: the first jobs of the traced window.
const maxTraceJobs = 200

// writeTraceFile keeps the traced window's stitched spans for inspection.
func writeTraceFile(cfg runConfig, records []*jobRecord) error {
	if len(records) > maxTraceJobs {
		records = records[:maxTraceJobs]
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Jobs     []*jobRecord `json:"jobs"`
	}{cfg.Workload.Name, cfg.Seed, records})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload.Name+".json"), raw, 0o644)
}
