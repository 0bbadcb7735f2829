// Package trace implements CN's sampling distributed tracer. A trace
// follows one job across processes: the client opens a root span at
// submit, every component on the path (JobManager placement, archive
// distribution, task exec, data-plane shuffle pulls, retries, failover
// adoption) opens child spans, and the trace context — three integers —
// rides the binary wire envelope so causality survives node boundaries.
//
// The package is dependency-free by design: internal/msg embeds a
// Context in every Message, so trace must sit below the whole stack.
//
// Sampling is decided once, at the root: a sampled trace carries a
// non-zero context and every downstream component records; an unsampled
// trace carries the zero Context and every downstream call is a no-op.
// This is head-based sampling in the Dapper mold — cheap enough to leave
// on in production, complete enough that one kept trace shows the whole
// job.
//
// A span belongs to its reporter. Ending one hands the completed span back
// to the caller, which keeps it with the report that will ship it: a
// task's spans ride its terminal event, a client's its start request, and
// the JobManager folds both into the job's timeline beside its own. No
// node keeps a store of spans, and each owner keeps at most MaxJobSpans.
package trace

import (
	"math/rand/v2"
	"sort"
	"time"
)

// Context is the wire-portable trace identity: which trace a message
// belongs to and which span caused it. The zero Context means "not
// traced" and costs nothing on the wire.
type Context struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
}

// IsZero reports whether the context carries no trace.
func (c Context) IsZero() bool {
	return c.TraceID == 0 && c.SpanID == 0 && c.ParentID == 0
}

// Span is one completed, recorded operation. Parent is 0 for a root
// span. Err is empty on success.
type Span struct {
	Trace  uint64        `json:"trace"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Node   string        `json:"node,omitempty"`
	Job    string        `json:"job,omitempty"`
	Task   string        `json:"task,omitempty"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur"`
	Err    string        `json:"err,omitempty"`
}

// Ctx returns the context a child of this span should carry.
func (s Span) Ctx() Context {
	return Context{TraceID: s.Trace, SpanID: s.ID, ParentID: s.Parent}
}

// DefaultSample is the default root-sampling probability: 1 in 8 jobs
// get a full trace, cheap enough to leave on.
const DefaultSample = 0.125

// MaxJobSpans caps the spans one owner keeps for one job: a task's
// terminal event, a client's start request and a JobManager's per-job
// timeline each drop what ends past it. There is no node-wide store, so
// this is what keeps observability from becoming the memory leak it is
// meant to find.
const MaxJobSpans = 512

// Config parametrizes a Tracer.
type Config struct {
	// Node stamps every recorded span with the hosting node name.
	Node string
	// Sample is the root-sampling probability in [0,1]. 0 selects
	// DefaultSample; negative never samples new roots (children of
	// sampled incoming contexts are still recorded); >= 1 samples every
	// root.
	Sample float64
}

// Tracer opens spans for one process; it keeps none of them. A nil
// *Tracer is valid and inert: every method no-ops and every returned
// context is zero, so call sites need no nil guards.
type Tracer struct {
	node   string
	sample float64
}

// New creates a Tracer.
func New(cfg Config) *Tracer {
	if cfg.Sample == 0 {
		cfg.Sample = DefaultSample
	}
	return &Tracer{node: cfg.Node, sample: cfg.Sample}
}

// Active is an open span; End returns it completed. A nil *Active is
// valid and inert, which is how unsampled traces cost nothing downstream.
type Active struct {
	span Span
}

// StartRoot opens a new trace: the sampling decision happens here and
// only here. It returns nil (inert) when the trace is not sampled.
func (t *Tracer) StartRoot(name, job string) *Active {
	if t == nil || t.sample < 0 {
		return nil
	}
	if t.sample < 1 && rand.Float64() >= t.sample {
		return nil
	}
	id := NewID()
	return &Active{span: Span{
		Trace: id,
		ID:    id,
		Name:  name,
		Node:  t.node,
		Job:   job,
		Start: time.Now(),
	}}
}

// StartSpan opens a child of an incoming context. A zero parent means
// the trace was not sampled (or the message predates tracing), so the
// child is inert; sampling never re-triggers mid-trace.
func (t *Tracer) StartSpan(parent Context, name string) *Active {
	if t == nil || parent.IsZero() {
		return nil
	}
	return &Active{span: Span{
		Trace:  parent.TraceID,
		ID:     NewID(),
		Parent: parent.SpanID,
		Name:   name,
		Node:   t.node,
		Start:  time.Now(),
	}}
}

// Context returns the context downstream messages of this span should
// carry; zero for an inert span.
func (a *Active) Context() Context {
	if a == nil {
		return Context{}
	}
	return Context{TraceID: a.span.Trace, SpanID: a.span.ID, ParentID: a.span.Parent}
}

// SetJob stamps the span with a job id.
func (a *Active) SetJob(job string) *Active {
	if a != nil {
		a.span.Job = job
	}
	return a
}

// SetTask stamps the span with a task name.
func (a *Active) SetTask(task string) *Active {
	if a != nil {
		a.span.Task = task
	}
	return a
}

// End closes the span with an optional error and returns it to the
// caller, which keeps it with whatever will report it. ok is false for an
// inert span.
func (a *Active) End(err error) (Span, bool) {
	if a == nil || err == nil {
		return a.Finish("")
	}
	return a.Finish(err.Error())
}

// Finish is End with a pre-rendered error string (the protocol carries
// task errors as text, not error values).
func (a *Active) Finish(errText string) (Span, bool) {
	if a == nil {
		return Span{}, false
	}
	a.span.Dur = time.Since(a.span.Start)
	a.span.Err = errText
	return a.span, true
}

// NewID returns a non-zero random 64-bit identifier for traces/spans.
func NewID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// SortSpans orders spans for presentation: by start time, then by span
// id for a stable order when starts collide.
func SortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].ID < spans[j].ID
	})
}
