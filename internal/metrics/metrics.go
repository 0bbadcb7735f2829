// Package metrics provides the lightweight instrumentation used by the CN
// cluster harness and the benchmark suite: counters, gauges, and
// fixed-reservoir histograms with quantile estimation. Everything is
// allocation-light and safe for concurrent use.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (must be >= 0; negative deltas are ignored).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram records observations into a bounded reservoir and computes
// summary statistics. When the reservoir fills, it keeps every k-th
// observation (deterministic decimation rather than random sampling, so
// results are reproducible).
type Histogram struct {
	mu        sync.Mutex
	samples   []float64
	maxSize   int
	stride    int64
	seen      int64
	count     int64
	sum       float64
	min, max  float64
	hasMinMax bool
}

// DefaultReservoir is the sample cap when NewHistogram is given n <= 0.
const DefaultReservoir = 8192

// NewHistogram creates a histogram keeping at most n samples.
func NewHistogram(n int) *Histogram {
	if n <= 0 {
		n = DefaultReservoir
	}
	return &Histogram{maxSize: n, stride: 1}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if !h.hasMinMax || v < h.min {
		h.min = v
	}
	if !h.hasMinMax || v > h.max {
		h.max = v
	}
	h.hasMinMax = true

	h.seen++
	if h.seen%h.stride != 0 {
		return
	}
	h.samples = append(h.samples, v)
	if len(h.samples) >= h.maxSize {
		// Decimate: keep every other sample and double the stride.
		kept := h.samples[:0]
		for i := 0; i < len(h.samples); i += 2 {
			kept = append(kept, h.samples[i])
		}
		h.samples = kept
		h.stride *= 2
	}
}

// ObserveDuration records a duration in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean of all observations (not just sampled).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.hasMinMax {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.hasMinMax {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1) estimated from the
// reservoir; NaN when empty or q out of range.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		return math.NaN()
	}
	h.mu.Lock()
	samples := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	sort.Float64s(samples)
	return quantileSorted(samples, q)
}

// Summary is a point-in-time digest of a histogram.
type Summary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summarize computes the digest from one consistent locked snapshot: all
// seven statistics describe the same instant. (It previously delegated to
// the individual accessors, taking the mutex seven separate times — a
// summary computed under concurrent Observe calls could pair a Count from
// one state with quantiles from another.)
func (h *Histogram) Summarize() Summary {
	h.mu.Lock()
	s := Summary{Count: h.count}
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
	}
	if h.hasMinMax {
		s.Min = h.min
		s.Max = h.max
	}
	samples := append([]float64(nil), h.samples...)
	h.mu.Unlock()

	// Quantile estimation works on the copied reservoir, outside the lock.
	// An empty histogram reports 0 quantiles, as it reports 0 for its mean:
	// a summary is read as JSON, which has no NaN.
	if len(samples) == 0 {
		return s
	}
	sort.Float64s(samples)
	s.P50 = quantileSorted(samples, 0.50)
	s.P90 = quantileSorted(samples, 0.90)
	s.P99 = quantileSorted(samples, 0.99)
	return s
}

// quantileSorted interpolates the q-quantile of an already-sorted sample
// set; NaN when empty.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := q * float64(len(sorted)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return sorted[lo]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f",
		s.Count, s.Mean, s.Min, s.P50, s.P90, s.P99, s.Max)
}

// Registry is a named collection of metrics, one per CN component.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(0)
		r.histograms[name] = h
	}
	return h
}

// Dump renders every metric, sorted by name, one per line.
func (r *Registry) Dump() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lines []string
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("counter %s = %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("gauge %s = %d", name, g.Value()))
	}
	for name, h := range r.histograms {
		lines = append(lines, fmt.Sprintf("histogram %s: %s", name, h.Summarize()))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// RegistrySnapshot is a marshalable point-in-time dump of a registry,
// served by HTTP metrics endpoints.
type RegistrySnapshot struct {
	Counters   map[string]int64   `json:"counters,omitempty"`
	Gauges     map[string]int64   `json:"gauges,omitempty"`
	Histograms map[string]Summary `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current value. Quantiles are estimated
// from each histogram's reservoir at call time.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		histograms[name] = h
	}
	r.mu.Unlock()

	snap := RegistrySnapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]Summary, len(histograms)),
	}
	for name, c := range counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range histograms {
		snap.Histograms[name] = h.Summarize()
	}
	return snap
}

// Timer measures one operation's wall time into a histogram.
type Timer struct {
	h     *Histogram
	start time.Time
}

// StartTimer begins timing against h.
func StartTimer(h *Histogram) *Timer {
	return &Timer{h: h, start: time.Now()}
}

// Stop records the elapsed time (in milliseconds) and returns it.
func (t *Timer) Stop() time.Duration {
	d := time.Since(t.start)
	t.h.ObserveDuration(d)
	return d
}
