package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(5)
	c.Add(-3) // ignored
	if c.Value() != 6 {
		t.Errorf("Value = %d, want 6", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("Value = %d, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("Value = %d, want 7", g.Value())
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram(100)
	for i := 1; i <= 10; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 10 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 5.5 {
		t.Errorf("Mean = %g", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 10 {
		t.Errorf("Min/Max = %g/%g", h.Min(), h.Max())
	}
	if p50 := h.Quantile(0.5); p50 < 5 || p50 > 6 {
		t.Errorf("P50 = %g", p50)
	}
	if p100 := h.Quantile(1); p100 != 10 {
		t.Errorf("Q(1) = %g", p100)
	}
	if p0 := h.Quantile(0); p0 != 1 {
		t.Errorf("Q(0) = %g", p0)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0)
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram stats not zero")
	}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty quantile should be NaN")
	}
	if !math.IsNaN(h.Quantile(-0.1)) || !math.IsNaN(h.Quantile(1.1)) {
		t.Error("out-of-range quantile should be NaN")
	}
}

// TestSummarizeEmptyIsJSON: an empty histogram's summary reports 0
// quantiles, not Quantile's NaN, so a metrics snapshot taken between a
// histogram's creation and its first sample still encodes as JSON.
func TestSummarizeEmptyIsJSON(t *testing.T) {
	s := NewHistogram(0).Summarize()
	if s != (Summary{}) {
		t.Errorf("empty summary = %+v, want all zero", s)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("empty summary does not encode: %v", err)
	}
}

func TestHistogramDecimation(t *testing.T) {
	h := NewHistogram(64)
	const n = 10000
	for i := 0; i < n; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != n {
		t.Errorf("Count = %d, want %d", h.Count(), n)
	}
	// Mean is exact regardless of decimation.
	if mean := h.Mean(); math.Abs(mean-float64(n-1)/2) > 0.001 {
		t.Errorf("Mean = %g", mean)
	}
	// Quantiles are estimates from the decimated reservoir; require sanity.
	p50 := h.Quantile(0.5)
	if p50 < float64(n)*0.3 || p50 > float64(n)*0.7 {
		t.Errorf("decimated P50 = %g, want ~%d", p50, n/2)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram(16)
	h.ObserveDuration(250 * time.Millisecond)
	if got := h.Mean(); math.Abs(got-250) > 0.001 {
		t.Errorf("Mean = %g ms, want 250", got)
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram(4096)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			h.Observe(v)
		}
		q1, q2, q3 := h.Quantile(0.25), h.Quantile(0.5), h.Quantile(0.75)
		return q1 <= q2 && q2 <= q3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSummary(t *testing.T) {
	h := NewHistogram(16)
	h.Observe(1)
	h.Observe(3)
	s := h.Summarize()
	if s.Count != 2 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if !strings.Contains(s.String(), "n=2") {
		t.Errorf("String = %q", s.String())
	}
}

func TestRegistryReuse(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("jobs")
	c1.Inc()
	c2 := r.Counter("jobs")
	if c2.Value() != 1 {
		t.Error("Counter not shared by name")
	}
	g1 := r.Gauge("load")
	g1.Set(5)
	if r.Gauge("load").Value() != 5 {
		t.Error("Gauge not shared by name")
	}
	h1 := r.Histogram("latency")
	h1.Observe(1)
	if r.Histogram("latency").Count() != 1 {
		t.Error("Histogram not shared by name")
	}
}

func TestRegistryDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Gauge("b").Set(2)
	r.Histogram("c").Observe(3)
	dump := r.Dump()
	for _, want := range []string{"counter a = 1", "gauge b = 2", "histogram c:"} {
		if !strings.Contains(dump, want) {
			t.Errorf("Dump missing %q:\n%s", want, dump)
		}
	}
}

func TestTimer(t *testing.T) {
	h := NewHistogram(16)
	tm := StartTimer(h)
	time.Sleep(5 * time.Millisecond)
	d := tm.Stop()
	if d < 4*time.Millisecond {
		t.Errorf("Stop returned %v", d)
	}
	if h.Count() != 1 {
		t.Error("Timer did not record")
	}
	if h.Mean() < 4 {
		t.Errorf("recorded %g ms", h.Mean())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("shared").Inc()
				r.Histogram("h").Observe(1)
			}
		}()
	}
	wg.Wait()
	if r.Counter("shared").Value() != 800 {
		t.Errorf("shared = %d", r.Counter("shared").Value())
	}
	if r.Histogram("h").Count() != 800 {
		t.Errorf("h count = %d", r.Histogram("h").Count())
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(-7)
	r.Histogram("h").Observe(2)
	r.Histogram("h").Observe(4)
	snap := r.Snapshot()
	if snap.Counters["c"] != 3 {
		t.Errorf("counter = %d", snap.Counters["c"])
	}
	if snap.Gauges["g"] != -7 {
		t.Errorf("gauge = %d", snap.Gauges["g"])
	}
	h := snap.Histograms["h"]
	if h.Count != 2 || h.Mean != 3 || h.Min != 2 || h.Max != 4 {
		t.Errorf("histogram = %+v", h)
	}
}

// TestSummarizeConsistentSnapshot: a summary produced under concurrent
// observation must describe one internally consistent state — Mean within
// [Min, Max] and Count never behind what a later locked read reports.
func TestSummarizeConsistentSnapshot(t *testing.T) {
	h := NewHistogram(128)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := float64(g)
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(v)
					v += 1
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := h.Summarize()
		if s.Count == 0 {
			continue
		}
		if s.Mean < s.Min || s.Mean > s.Max {
			t.Fatalf("inconsistent summary: mean %.3f outside [%.3f, %.3f]", s.Mean, s.Min, s.Max)
		}
		if !math.IsNaN(s.P50) && (s.P50 < s.Min || s.P50 > s.Max) {
			t.Fatalf("inconsistent summary: p50 %.3f outside [%.3f, %.3f]", s.P50, s.Min, s.Max)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSummarizeMatchesAccessors: at rest, the single-lock summary must
// agree with the individual accessors.
func TestSummarizeMatchesAccessors(t *testing.T) {
	h := NewHistogram(64)
	for i := 1; i <= 50; i++ {
		h.Observe(float64(i))
	}
	s := h.Summarize()
	if s.Count != h.Count() || s.Mean != h.Mean() || s.Min != h.Min() || s.Max != h.Max() {
		t.Fatalf("summary %+v disagrees with accessors", s)
	}
	for _, q := range []struct {
		q    float64
		want float64
	}{{0.50, s.P50}, {0.90, s.P90}, {0.99, s.P99}} {
		if got := h.Quantile(q.q); got != q.want {
			t.Fatalf("Quantile(%.2f) = %.3f, summary says %.3f", q.q, got, q.want)
		}
	}
}
