package main

// -compare a b (two -out files, or two directories of them): b against a, each end-to-end metric under its
// bound on each workload it is judged on, one row per (metric, workload). Used for the two-set agreement
// check and by later issues to accept or reject a change.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// outputFile is what -out writes: every run of an invocation.
type outputFile struct {
	Env  envelope  `json:"env"`
	Runs []*result `json:"runs"`
}

// readOutput reads one -out file, or every *.json of a directory of them as
// one set of runs.
func readOutput(path string) (*outputFile, error) {
	paths := []string{path}
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var all outputFile
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f outputFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		all.Env = f.Env
		all.Runs = append(all.Runs, f.Runs...)
	}
	return &all, nil
}

// timedValues gathers a metric's values over the file's valid, correct
// timed runs of one workload.
func (f *outputFile) timedValues(workload, metric string) samples {
	var out samples
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != 0 || !r.Valid || !r.Correct {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out.sorted()
}

// iqr is the distance between the first and the third quartile, taken as
// Python's statistics.quantiles(n=4) takes them; ok is false below four
// values, where quartiles say nothing.
func (s samples) iqr() (dist float64, ok bool) {
	n := len(s)
	if n < 4 {
		return 0, false
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(3) - q(1), true
}

// verdict judges b against a for one metric: how much worse the bound lets
// b's median read (in the metric's unit), and whether it does.
func verdict(def metricDef, a, b samples) (allowed float64, status string) {
	if len(a) == 0 || len(b) == 0 {
		return 0, "unresolved" // a side has no valid run
	}
	ma, mb := a.pct(0.5), b.pct(0.5)
	worse := mb - ma
	better := func(x, y float64) bool { return x < y }
	if def.Better == "higher" {
		worse = -worse
		better = func(x, y float64) bool { return x > y }
	}
	allowed = max(def.Bound*ma, def.Slack)
	if allowed == 0 {
		return 0, "unresolved" // a share of a reading of 0
	}
	// Spread wider than the bound: the medians cannot tell the sides apart,
	// unless every run of b reads better than every run of a.
	for _, s := range []samples{a, b} {
		if d, ok := s.iqr(); ok && d > allowed {
			for _, x := range b {
				for _, y := range a {
					if !better(x, y) {
						return allowed, "unresolved"
					}
				}
			}
			return allowed, "ok"
		}
	}
	if worse > allowed {
		return allowed, "worse"
	}
	return allowed, "ok"
}

// compare prints the table and reports whether any pair came out worse.
func compare(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readOutput(pathA)
	if err != nil {
		return false, err
	}
	b, err := readOutput(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-20s %-6s %12s %12s %9s %14s  %s\n", "workload", "metric", "unit", "a", "b", "change", "may worsen by", "status")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			if def.On != "" && def.On != wl.Name {
				continue
			}
			va, vb := a.timedValues(wl.Name, def.Name), b.timedValues(wl.Name, def.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue // workload not in either file
			}
			allowed, status := verdict(def, va, vb)
			anyWorse = anyWorse || status == "worse"
			ma, mb := va.pct(0.5), vb.pct(0.5)
			fmt.Fprintf(w, "%-14s %-20s %-6s %12.4f %12.4f %+8.1f%% %14.4f  %s\n",
				wl.Name, def.Name, def.Unit, ma, mb, 100*ratio(mb-ma, ma), allowed, status)
		}
	}
	return anyWorse, nil
}
