package trace

import (
	"errors"
	"testing"
	"time"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	root := tr.StartRoot("submit", "job1")
	if root != nil {
		t.Fatalf("nil tracer returned non-nil root span")
	}
	if got := root.Context(); !got.IsZero() {
		t.Fatalf("nil Active.Context() = %+v, want zero", got)
	}
	if child := tr.StartSpan(Context{TraceID: 7, SpanID: 8}, "exec"); child != nil {
		t.Fatalf("nil tracer returned non-nil child span")
	}
	root.SetJob("j").SetTask("t")
	if sp, ok := root.End(errors.New("boom")); ok || sp != (Span{}) {
		t.Fatalf("inert End = %+v, %v; want zero span, false", sp, ok)
	}
	if sp, ok := root.Finish("boom"); ok || sp != (Span{}) {
		t.Fatalf("inert Finish = %+v, %v; want zero span, false", sp, ok)
	}
}

func TestRootSampling(t *testing.T) {
	always := New(Config{Node: "n1", Sample: 1})
	if always.StartRoot("submit", "j") == nil {
		t.Fatalf("sample=1 tracer refused a root span")
	}
	never := New(Config{Node: "n1", Sample: -1})
	if sp := never.StartRoot("submit", "j"); sp != nil {
		t.Fatalf("sample=-1 tracer produced a root span")
	}
	// Children of an incoming sampled context are recorded regardless of
	// the local rate.
	child := never.StartSpan(Context{TraceID: 7, SpanID: 8}, "exec")
	if child == nil {
		t.Fatalf("sample=-1 tracer refused a child of a sampled context")
	}
	sp, ok := child.End(nil)
	if !ok || sp.Trace != 7 || sp.Parent != 8 || sp.Name != "exec" || sp.Node != "n1" {
		t.Fatalf("child End = %+v, %v; want a span of trace 7 under span 8 on n1", sp, ok)
	}
}

func TestSampleRateRoughlyHolds(t *testing.T) {
	tr := New(Config{Node: "n1", Sample: 0.25})
	kept := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		if sp := tr.StartRoot("r", "j"); sp != nil {
			kept++
		}
	}
	frac := float64(kept) / trials
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("sampled fraction %.3f, want ~0.25", frac)
	}
}

func TestSpanParentage(t *testing.T) {
	tr := New(Config{Node: "n1", Sample: 1})
	root := tr.StartRoot("submit", "job1")
	rc := root.Context()
	if rc.TraceID == 0 || rc.TraceID != rc.SpanID || rc.ParentID != 0 {
		t.Fatalf("root context %+v malformed", rc)
	}
	child := tr.StartSpan(rc, "place").SetJob("job1").SetTask("t0")
	cc := child.Context()
	if cc.TraceID != rc.TraceID {
		t.Fatalf("child trace id %d != root %d", cc.TraceID, rc.TraceID)
	}
	if cc.ParentID != rc.SpanID {
		t.Fatalf("child parent %d != root span %d", cc.ParentID, rc.SpanID)
	}
	place, ok := child.End(nil)
	if !ok {
		t.Fatalf("sampled child ended inert")
	}
	submit, ok := root.SetJob("job1").End(nil)
	if !ok {
		t.Fatalf("sampled root ended inert")
	}
	if place.Name != "place" || place.Parent != submit.ID || place.Trace != submit.Trace {
		t.Fatalf("child %+v does not hang off root %+v", place, submit)
	}
	if place.Job != "job1" || place.Task != "t0" || submit.Job != "job1" {
		t.Fatalf("job/task attrs not recorded: child %+v, root %+v", place, submit)
	}
	if place.Ctx() != cc || submit.Ctx() != rc {
		t.Fatalf("ended spans' contexts %+v, %+v; want %+v, %+v", place.Ctx(), submit.Ctx(), cc, rc)
	}
}

// TestEndErrText: a span ends carrying its error as text, whether the
// caller holds an error value (End) or a rendered string (Finish), and a
// successful end carries none.
func TestEndErrText(t *testing.T) {
	tr := New(Config{Sample: 1})
	if sp, _ := tr.StartRoot("exec", "j").Finish("task panic: boom"); sp.Err != "task panic: boom" {
		t.Fatalf("Finish recorded err %q", sp.Err)
	}
	if sp, _ := tr.StartRoot("exec", "j").End(errors.New("boom")); sp.Err != "boom" {
		t.Fatalf("End recorded err %q", sp.Err)
	}
	if sp, _ := tr.StartRoot("exec", "j").End(nil); sp.Err != "" {
		t.Fatalf("End(nil) recorded err %q", sp.Err)
	}
}

func TestSortSpans(t *testing.T) {
	t0 := time.Unix(100, 0)
	spans := []Span{
		{ID: 3, Start: t0.Add(2 * time.Second)},
		{ID: 2, Start: t0},
		{ID: 1, Start: t0},
	}
	SortSpans(spans)
	if spans[0].ID != 1 || spans[1].ID != 2 || spans[2].ID != 3 {
		t.Fatalf("sort order %v", []uint64{spans[0].ID, spans[1].ID, spans[2].ID})
	}
}

func TestNewIDNonZero(t *testing.T) {
	for i := 0; i < 1000; i++ {
		if NewID() == 0 {
			t.Fatalf("NewID returned 0")
		}
	}
}
