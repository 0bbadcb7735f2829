package main

// Metric declarations — the single list -compare judges by, BENCHMARK.json
// is generated from and the smoke test checks the binary against — and the
// small statistics the summaries use.

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. The fields below Better are for
// end-to-end metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// -compare lets b's median read worse than a's by Bound as a share of a's,
	// or by Slack in the metric's own unit, whichever is more.
	Bound, Slack float64
	// On names the one workload -compare judges the metric on; "" is all.
	On string
	// Driver is the bound BENCHMARK.json carries for the metric. Its list is
	// one for all workloads, so a metric that reads 0 on some of them, or
	// spreads wider over ten seeds than the largest bound allowed there, has
	// no Driver bound and is reported there as per-layer client.<name>.
	Driver float64
}

// endToEnd is what a user of the cluster feels: the issue's nine metrics
// with the issue's bounds.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Slack: 0.05, Driver: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, On: "fanout_closed", Driver: 0.25},
	{Name: "shuffle_mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.10, On: "shuffle_bulk"},
	{Name: "ts_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, On: "bag_ts"},
	{Name: "job_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Driver: 0.25},
	{Name: "job_latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "cpu_ms_per_job", Unit: "ms", Better: "lower", Bound: 0.10, Driver: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, Driver: 0.25},
	{Name: "fail_share", Unit: "share", Better: "lower", Slack: 0.005},
}

// perLayer attributes the end-to-end numbers to modules, from outside:
// counter deltas over the untraced window, spans the benchmark records
// around public calls, the program's own spans in the traced window, and
// isolated probes of single public functions.
var perLayer = []metricDef{
	{Name: "portal.submit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "portal.status_get_p50_us", Unit: "us", Better: "lower"},
	{Name: "portal.result_get_p50_us", Unit: "us", Better: "lower"},
	{Name: "portal.polls_per_job", Unit: "count", Better: "lower"},
	{Name: "portal.refused_share", Unit: "share", Better: "lower"},
	{Name: "portal.submit_wal_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "transform.xmi2cnx_p50_us", Unit: "us", Better: "lower"},
	{Name: "cnx.parse_validate_fan32_p50_us", Unit: "us", Better: "lower"},
	{Name: "cnx.parse_validate_fan64_p50_us", Unit: "us", Better: "lower"},

	{Name: "jobstore.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "jobstore.queue_wait_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "jobstore.run_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "jobstore.wal_put_nosync_p50_us", Unit: "us", Better: "lower"},
	{Name: "jobstore.wal_put_fsync_p50_us", Unit: "us", Better: "lower"},

	{Name: "api.create_job_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.create_tasks_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.start_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.residual_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "discovery.discover_tcp_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "discovery.discover_mem_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "discovery.offers_per_round", Unit: "count", Better: "higher"},

	{Name: "jobmgr.create_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "jobmgr.place_self_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "jobmgr.start_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "jobmgr.dispatch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "jobmgr.finish_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "jobmgr.active_jobs_at_quiesce", Unit: "count", Better: "lower"},
	{Name: "jobmgr.tasks_retried_per_kjob", Unit: "count", Better: "lower"},
	{Name: "jobmgr.checkpoint_frames_per_s", Unit: "1/s", Better: "lower"},

	{Name: "placement.plan_scored_32x4_p50_us", Unit: "us", Better: "lower"},
	{Name: "placement.plan_scored_64x4_p50_us", Unit: "us", Better: "lower"},
	{Name: "placement.solicit_rounds_per_kjob", Unit: "count", Better: "lower"},
	{Name: "placement.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "placement.evictions_per_kjob", Unit: "count", Better: "lower"},
	{Name: "placement.invalidations_per_kjob", Unit: "count", Better: "lower"},
	{Name: "placement.unplaced_job_share", Unit: "share", Better: "lower"},

	{Name: "taskmgr.exec_p50_us", Unit: "us", Better: "lower"},
	{Name: "taskmgr.shuffle_put_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "taskmgr.shuffle_get_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "taskmgr.tasks_per_s", Unit: "1/s", Better: "higher"},

	{Name: "dataplane.resolves_per_job", Unit: "count", Better: "lower"},
	{Name: "dataplane.park_share", Unit: "share", Better: "lower"},
	{Name: "dataplane.retries_per_kjob", Unit: "count", Better: "lower"},
	{Name: "dataplane.tm_direct_byte_share", Unit: "share", Better: "lower"},
	{Name: "dataplane.wire_bytes_per_payload_byte", Unit: "B/B", Better: "lower"},

	{Name: "archive.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "archive.blob_transfers_per_job", Unit: "count", Better: "lower"},
	{Name: "archive.cache_put_get_3mib_p50_us", Unit: "us", Better: "lower"},
	{Name: "archive.ship_8mib_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "tuplespace.local_out_inp_pop1024_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "tuplespace.remote_out_p50_us", Unit: "us", Better: "lower"},
	{Name: "tuplespace.remote_in_p50_us", Unit: "us", Better: "lower"},
	{Name: "tuplespace.blocked_in_wakeup_p50_us", Unit: "us", Better: "lower"},
	{Name: "tuplespace.ops_per_job", Unit: "count", Better: "lower"},

	{Name: "transport.frames_per_job", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_job", Unit: "B", Better: "lower"},
	{Name: "transport.flushes_per_frame", Unit: "share", Better: "lower"},
	{Name: "transport.heartbeat_frames_per_s", Unit: "1/s", Better: "lower"},
	{Name: "transport.control_drops", Unit: "count", Better: "lower"},
	{Name: "transport.bulk_drops", Unit: "count", Better: "lower"},
	{Name: "transport.dropped", Unit: "count", Better: "lower"},
	{Name: "transport.frame_errors", Unit: "count", Better: "lower"},
	{Name: "transport.call_rtt_tcp_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.call_rtt_mem_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.bulk_stream_tcp_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "wire.assign32_encode_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.assign32_decode_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.assign32_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.chunk768k_encode_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.ts_out_roundtrip_p50_ns", Unit: "ns", Better: "lower"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans_per_job", Unit: "count", Better: "higher"},
	{Name: "trace.uncovered_share", Unit: "share", Better: "lower"},

	{Name: "process.alloc_kb_per_job", Unit: "KB", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "process.goroutines_at_quiesce", Unit: "count", Better: "lower"},
	{Name: "process.goroutines_after_stop", Unit: "count", Better: "lower"},

	{Name: "client.fail_share", Unit: "share", Better: "lower"},
	{Name: "client.shuffle_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "client.ts_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.job_latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.job_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.generator_late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.generator_late_max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.achieved_rate_share", Unit: "share", Better: "higher"},
	{Name: "client.valid", Unit: "count", Better: "higher"},
}

// metricValue is one measured metric; N is the sample count behind a
// percentile (0 where the value is a count or a ratio).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects a pass's metrics by name.
type metricSet map[string]metricValue

// driverEndToEnd is BENCHMARK.json's end_to_end list.
func driverEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.Driver > 0 {
			out = append(out, d)
		}
	}
	return out
}

var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// set records a metric; naming one that is not declared is a bug.
func (ms metricSet) set(name string, v float64, n int) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	ms[name] = metricValue{Value: v, Unit: unit, N: n}
}

// only returns the subset of ms the declarations list, zero-filling metrics
// this pass had no samples for (a layer the workload bypasses reads 0).
func (ms metricSet) only(defs []metricDef) metricSet {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		v, ok := ms[d.Name]
		if !ok {
			v = metricValue{Unit: d.Unit}
		}
		out[d.Name] = v
	}
	return out
}

// samples is a sortable bag of observations with nearest-rank percentiles.
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// pct is the nearest-rank q-quantile of an already sorted bag (0 if empty).
func (s samples) pct(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func (s samples) median() float64 { return s.sorted().pct(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
