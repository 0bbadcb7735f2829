package main

// Smoke and drift tests for the benchmark itself: run with `go test` from
// this directory (the benchmark is its own module, so the repository's
// `go test ./...` does not reach it).

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// TestDeclarations holds the metric and workload lists to the limits the
// benchmark contract sets.
func TestDeclarations(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(driverEndToEnd()); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, name)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	declared := make(map[string]bool)
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
		if d.Driver < 0 || d.Driver > 0.25 {
			t.Errorf("%s: BENCHMARK.json bound %v outside (0, 0.25]", d.Name, d.Driver)
		}
		if d.Bound == 0 && d.Slack == 0 {
			t.Errorf("%s: -compare has no bound for it", d.Name)
		}
		if d.On != "" && workloadByName(d.On) == nil {
			t.Errorf("%s: judged on unknown workload %q", d.Name, d.On)
		}
		if d.Driver == 0 && !declared["client."+d.Name] {
			t.Errorf("%s is not in BENCHMARK.json's end-to-end list and has no per-layer client.%s", d.Name, d.Name)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Driver > 0)
	}
	if !setup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name)
	}
}

// TestManifestMatchesBinary fails when BENCHMARK.json and the declarations
// drift apart; regenerate the file with `-manifest`.
func TestManifestMatchesBinary(t *testing.T) {
	if _, err := os.Stat("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	if err := checkManifest("../BENCHMARK.json"); err != nil {
		t.Error(err)
	}
}

// TestSeedDeterminesInputs: the same seed yields byte-identical bodies,
// schedule and payloads, and another seed yields others.
func TestSeedDeterminesInputs(t *testing.T) {
	gen := func(seed int64) []byte {
		var buf bytes.Buffer
		for _, s := range fanoutBodies(seed) {
			buf.Write(s.Body)
		}
		for _, a := range mixSchedule(seed, time.Second, 3*time.Second) {
			buf.WriteString(a.Due.String())
			buf.WriteString(a.Sub.Kind)
			buf.Write(a.Sub.Body)
		}
		buf.Write(newShuffleBase(seed).payload(7, 1, 0))
		return buf.Bytes()
	}
	if !bytes.Equal(gen(42), gen(42)) {
		t.Error("the same seed generated different inputs")
	}
	if bytes.Equal(gen(42), gen(43)) {
		t.Error("different seeds generated the same inputs")
	}
}

// TestMixScheduleHoldsItsProportions: every seed offers the same load.
func TestMixScheduleHoldsItsProportions(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		sched := mixSchedule(seed, 2*time.Second, 20*time.Second)
		kinds := make(map[string]int)
		window := 0
		for _, a := range sched {
			if a.Due >= 2*time.Second {
				window++
				kinds[a.Sub.Kind]++
			}
		}
		if window != 799 { // 571 events, 57 of them bursts of five
			t.Errorf("seed %d: %d jobs due in a 20 s window, want 799", seed, window)
		}
		if kinds["fan64"] != 79 || kinds["chain4"] != 480 {
			t.Errorf("seed %d: shape mix %v, want 480 chain4 and 79 fan64 of 799", seed, kinds)
		}
	}
}

// TestShuffleOracle: the reducer's check accepts the mapper's payload and
// nothing else.
func TestShuffleOracle(t *testing.T) {
	base := newShuffleBase(5)
	p := base.payload(3, 2, 1)
	if err := base.verify(p, 3, 2, 1); err != nil {
		t.Errorf("genuine payload rejected: %v", err)
	}
	if base.verify(p, 3, 2, 0) == nil {
		t.Error("payload accepted for the wrong reducer")
	}
	p[100] ^= 1
	if base.verify(p, 3, 2, 1) == nil {
		t.Error("corrupted payload accepted")
	}
	if base.verify(p[:len(p)-1], 3, 2, 1) == nil {
		t.Error("short payload accepted")
	}
}

// TestCompareVerdicts pins the three outcomes of -compare.
func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "job_latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	fails := metricDef{Name: "fail_share", Better: "lower", Slack: 0.005}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25, Slack: 0.05}
	for _, c := range []struct {
		def  metricDef
		a, b samples
		want string
	}{
		{lower, samples{10}, samples{10.9}, "ok"},
		{lower, samples{10}, samples{11.1}, "worse"},
		{lower, samples{10}, samples{5}, "ok"},
		{higher, samples{100}, samples{89}, "worse"},
		{higher, samples{100}, samples{91}, "ok"},
		{lower, samples{10}, nil, "unresolved"},
		{lower, samples{0}, samples{1}, "unresolved"}, // a share of a reading of 0
		{fails, samples{0}, samples{0}, "ok"},
		{fails, samples{0}, samples{0.004}, "ok"},
		{fails, samples{0}, samples{0.006}, "worse"},
		{fails, samples{0.03}, samples{0.036}, "worse"},
		{fails, samples{0.03}, samples{0}, "ok"},
		{setup, samples{0.006}, samples{0.05}, "ok"}, // under the 0.05 s slack
		{setup, samples{1}, samples{1.3}, "worse"},
		{lower, samples{8, 9, 10, 11, 12}, samples{9, 10, 11, 12, 13}, "unresolved"}, // spread above the bound
		{lower, samples{8, 9, 10, 11, 12}, samples{4, 5, 6, 7, 7.5}, "ok"},           // every run better
	} {
		if _, got := verdict(c.def, c.a.sorted(), c.b.sorted()); got != c.want {
			t.Errorf("%s a=%v b=%v: %s, want %s", c.def.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestSmoke runs every workload with a 1 s measured length, timed and (with
// 2 s) traced, and requires each run to verify its outputs and emit exactly the
// metrics it declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	quick := timing{Segments: 1, Boots: 1, BootTime: time.Second, Warm: 20 * time.Millisecond, WarmTraced: 20 * time.Millisecond, Settle: 20 * time.Millisecond}
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				// A traced run cuts its length into two windows and the probes,
				// and a window must last longer than a job of bag_ts (0.2 s
				// alone, more beside three other workloads).
				seconds := 1
				if traced {
					seconds = 2
				}
				res, err := run(runConfig{Workload: wl, Seed: 1, Seconds: seconds, Trace: traced, OutDir: t.TempDir(), Timing: quick})
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed > 0 || res.Attempted == 0 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d errors=%v", traced, res.Correct, res.Attempted, res.Failed, res.Errors)
				}
				defs, listed := endToEnd, driverEndToEnd()
				if traced {
					defs, listed = perLayer, perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics emitted, %d declared", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Errorf("trace=%v: metric %s missing or in unit %q, want %q", traced, d.Name, v.Unit, d.Unit)
					}
					if !traced && d.Driver > 0 && v.Value == 0 {
						t.Errorf("end-to-end metric %s read 0", d.Name)
					}
				}
				var line struct {
					Correct   *bool
					Attempted *int
					Failed    *int
					Metrics   map[string]map[string]any
				}
				if err := json.Unmarshal([]byte(res.summaryLine()), &line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(listed) {
					t.Errorf("trace=%v: summary line %q is not the result object", traced, res.summaryLine())
				}
			}
		})
	}
}
