// Command cntrace renders a CN job's distributed trace as a text span
// tree with per-span Gantt bars. The input is the portal's
// GET /api/jobs/{id}/trace response — fetched live from a portal URL, or
// read from a file / stdin for captured traces.
//
// Usage:
//
//	cntrace http://localhost:8080/api/jobs/{id}/trace
//	cntrace -f trace.json
//	curl -s .../api/jobs/j1/trace | cntrace
//
// Output: one line per span, indented by parent/child causality, with the
// span's node, duration, a proportional bar positioned on the trace's
// time axis, and any error text. Orphan spans (parent missing from the
// capture, e.g. dropped past its owner's trace.MaxJobSpans cap) root
// their own subtree.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"cn/internal/trace"
)

// traceDoc mirrors the portal's TraceResponse body; a bare span array is
// accepted too so captures of other shapes keep working.
type traceDoc struct {
	ID    string       `json:"id"`
	Spans []trace.Span `json:"spans"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cntrace: ")
	var (
		file  = flag.String("f", "", "read the trace JSON from this file instead of a URL ('-' = stdin)")
		width = flag.Int("width", 48, "Gantt bar column width in characters")
	)
	flag.Parse()

	raw, err := readInput(*file, flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	doc, err := parse(raw)
	if err != nil {
		log.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		log.Fatal("trace has no spans (job untraced, unsampled, or evicted)")
	}
	render(os.Stdout, doc, *width)
}

func readInput(file, url string) ([]byte, error) {
	switch {
	case file == "-":
		return io.ReadAll(os.Stdin)
	case file != "":
		return os.ReadFile(file)
	case url != "":
		resp, err := http.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
		}
		return body, nil
	}
	// No arguments: read a piped trace from stdin.
	if fi, err := os.Stdin.Stat(); err == nil && fi.Mode()&os.ModeCharDevice == 0 {
		return io.ReadAll(os.Stdin)
	}
	return nil, fmt.Errorf("no input: pass a portal trace URL, -f FILE, or pipe JSON to stdin")
}

func parse(raw []byte) (*traceDoc, error) {
	var doc traceDoc
	if err := json.Unmarshal(raw, &doc); err == nil && len(doc.Spans) > 0 {
		return &doc, nil
	}
	var spans []trace.Span
	if err := json.Unmarshal(raw, &spans); err != nil {
		return nil, fmt.Errorf("input is neither a portal trace response nor a span array: %w", err)
	}
	return &traceDoc{Spans: spans}, nil
}

// render prints the span forest: children indented under parents, each
// line carrying a Gantt bar on the shared trace time axis.
func render(w io.Writer, doc *traceDoc, width int) {
	if width < 8 {
		width = 8
	}
	spans := append([]trace.Span(nil), doc.Spans...)
	trace.SortSpans(spans)

	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make(map[uint64][]int, len(spans))
	var roots []int
	for i, s := range spans {
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; ok {
				children[s.Parent] = append(children[s.Parent], i)
				continue
			}
		}
		roots = append(roots, i)
	}

	start := spans[0].Start
	end := start
	for _, s := range spans {
		if s.Start.Before(start) {
			start = s.Start
		}
		if e := s.Start.Add(s.Dur); e.After(end) {
			end = e
		}
	}
	total := end.Sub(start)
	if total <= 0 {
		total = time.Nanosecond
	}

	if doc.ID != "" {
		fmt.Fprintf(w, "trace %s: %d spans, %s total\n", doc.ID, len(spans), total.Round(time.Microsecond))
	} else {
		fmt.Fprintf(w, "trace: %d spans, %s total\n", len(spans), total.Round(time.Microsecond))
	}

	// Stable label column: size to the deepest indent + longest name.
	labelW := 0
	var measure func(idx, depth int)
	measure = func(idx, depth int) {
		if n := 2*depth + len(label(spans[idx])); n > labelW {
			labelW = n
		}
		for _, c := range children[spans[idx].ID] {
			measure(c, depth+1)
		}
	}
	for _, r := range roots {
		measure(r, 0)
	}

	var print func(idx, depth int)
	print = func(idx, depth int) {
		s := spans[idx]
		pad := strings.Repeat("  ", depth) + label(s)
		fmt.Fprintf(w, "%-*s %10s  %s", labelW, pad, s.Dur.Round(time.Microsecond), bar(s, start, total, width))
		if s.Node != "" {
			fmt.Fprintf(w, "  @%s", s.Node)
		}
		if s.Err != "" {
			fmt.Fprintf(w, "  !%s", s.Err)
		}
		fmt.Fprintln(w)
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start.Before(spans[kids[b]].Start) })
		for _, c := range kids {
			print(c, depth+1)
		}
	}
	for _, r := range roots {
		print(r, 0)
	}
}

func label(s trace.Span) string {
	if s.Task != "" {
		return s.Name + "(" + s.Task + ")"
	}
	return s.Name
}

// bar renders the span's position and extent on the trace's time axis.
func bar(s trace.Span, start time.Time, total time.Duration, width int) string {
	off := int(float64(s.Start.Sub(start)) / float64(total) * float64(width))
	length := int(float64(s.Dur) / float64(total) * float64(width))
	if length < 1 {
		length = 1
	}
	if off >= width {
		off = width - 1
	}
	if off+length > width {
		length = width - off
	}
	return "[" + strings.Repeat(" ", off) + strings.Repeat("=", length) +
		strings.Repeat(" ", width-off-length) + "]"
}
