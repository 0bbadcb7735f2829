package main

// Traced-pass analysis. The benchmark's boundary spans and the program's
// own spans (fetched per job through the public trace endpoints) are
// stitched under the job, and two things are read off them: each program
// span's self time, for the per-layer rows, and a budget that splits every
// job's wall-clock latency between span names so the rows sum to it.

import (
	"fmt"
	"io"
	"sort"
	"time"

	"cn/internal/trace"
)

// interval is one span of a job, from either source.
type interval struct {
	name       string
	start, end time.Time
	program    bool
}

// budgetRow is one line of the traced latency budget.
type budgetRow struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// selfTime is the span's duration minus the part of it its children cover.
func selfTime(sp trace.Span, children []trace.Span) time.Duration {
	end := sp.Start.Add(sp.Dur)
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.Start.Add(c.Dur)
		if a.Before(sp.Start) {
			a = sp.Start
		}
		if b.After(end) {
			b = end
		}
		if a.Before(b) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var upTo time.Time
	for _, v := range ivs {
		if v.a.After(upTo) {
			upTo = v.a
		}
		if v.b.After(upTo) {
			covered += v.b.Sub(upTo)
			upTo = v.b
		}
	}
	return sp.Dur - covered
}

// attribute splits the job's latency between span names: each instant
// belongs to the span that started last among those open at it (the
// innermost in time), and instants no span covers stay unattributed.
// covered is the time inside any program span.
func attribute(r *jobRecord) (byName map[string]time.Duration, covered time.Duration) {
	ivs := make([]interval, 0, len(r.Spans)+len(r.Program))
	clip := func(name string, a, b time.Time, program bool) {
		if a.Before(r.Due) {
			a = r.Due
		}
		if b.After(r.End) {
			b = r.End
		}
		if a.Before(b) {
			ivs = append(ivs, interval{name, a, b, program})
		}
	}
	for _, s := range r.Spans {
		clip("bench."+s.Name, s.Start, s.Start.Add(s.Dur), false)
	}
	for _, s := range r.Program {
		clip(s.Name, s.Start, s.Start.Add(s.Dur), true)
	}
	cuts := make([]time.Time, 0, 2*len(ivs))
	for _, v := range ivs {
		cuts = append(cuts, v.start, v.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
	byName = make(map[string]time.Duration)
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if !a.Before(b) {
			continue
		}
		var owner *interval
		inProgram := false
		for k := range ivs {
			v := &ivs[k]
			if v.start.After(a) || v.end.Before(b) {
				continue
			}
			inProgram = inProgram || v.program
			if owner == nil || v.start.After(owner.start) {
				owner = v
			}
		}
		if owner != nil {
			byName[owner.name] += b.Sub(a)
		}
		if inProgram {
			covered += b.Sub(a)
		}
	}
	return byName, covered
}

// analyzeTrace fills the traced-pass metrics and returns the budget table:
// per span name the median over jobs of the latency attributed to it, and a
// residual row that makes the rows sum to the traced job p50.
func analyzeTrace(records []*jobRecord, ms metricSet) []budgetRow {
	self := make(map[string]samples) // program span name -> self times (us)
	dur := make(map[string]samples)  // program span name -> durations (us)
	perName := make(map[string]samples)
	var lat, uncovered, spanCount samples
	jobs := 0
	for _, r := range records {
		if !r.OK {
			continue
		}
		jobs++
		children := make(map[uint64][]trace.Span)
		for _, s := range r.Program {
			children[s.Parent] = append(children[s.Parent], s)
		}
		for _, s := range r.Program {
			self[s.Name] = append(self[s.Name], float64(selfTime(s, children[s.ID]))/float64(time.Microsecond))
			dur[s.Name] = append(dur[s.Name], float64(s.Dur)/float64(time.Microsecond))
		}
		byName, covered := attribute(r)
		for name, d := range byName {
			perName[name] = append(perName[name], float64(d)/float64(time.Millisecond))
		}
		l := r.latency()
		lat = append(lat, float64(l)/float64(time.Millisecond))
		uncovered = append(uncovered, 1-ratio(float64(covered), float64(l)))
		spanCount = append(spanCount, float64(len(r.Program)))
	}
	p50 := func(m map[string]samples, name string) (float64, int) {
		s := m[name].sorted()
		return s.pct(0.5), len(s)
	}
	for metric, src := range map[string]struct {
		m    map[string]samples
		span string
		div  float64
	}{
		"jobmgr.create_self_p50_us":  {self, "jm.create", 1},
		"jobmgr.place_self_p50_ms":   {self, "jm.place", 1000},
		"jobmgr.start_self_p50_us":   {self, "jm.start", 1},
		"jobmgr.dispatch_p50_ms":     {dur, "jm.dispatch", 1000},
		"jobmgr.finish_self_p50_us":  {self, "jm.finish", 1},
		"taskmgr.exec_p50_us":        {dur, "tm.exec", 1},
		"taskmgr.shuffle_put_p50_ms": {dur, "tm.shuffle.put", 1000},
		"taskmgr.shuffle_get_p50_ms": {dur, "tm.shuffle.get", 1000},
	} {
		v, n := p50(src.m, src.span)
		ms.set(metric, v/src.div, n)
	}
	ms.set("trace.spans_per_job", spanCount.median(), len(spanCount))
	ms.set("trace.uncovered_share", uncovered.median(), len(uncovered))

	// A job that has no span of some name spent no time in it.
	var rows []budgetRow
	var sum float64
	for name, s := range perName {
		for len(s) < jobs {
			s = append(s, 0)
		}
		if v := s.median(); v > 0 {
			rows = append(rows, budgetRow{Name: name, MS: v})
			sum += v
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].MS > rows[j].MS })
	jobP50 := lat.median()
	rows = append(rows, budgetRow{Name: "residual", MS: jobP50 - sum}, budgetRow{Name: "traced job p50", MS: jobP50})
	return rows
}

func printBudget(w io.Writer, workload string, rows []budgetRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\ntraced latency budget, %s (rows above the last sum to it)\n", workload)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %10.3f ms\n", r.Name, r.MS)
	}
}
