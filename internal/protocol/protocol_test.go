package protocol

import (
	"strings"
	"testing"

	"cn/internal/msg"
	"cn/internal/task"
	"cn/internal/trace"
)

func roundTrip[T any](t *testing.T, kind msg.Kind, in T) T {
	t.Helper()
	m := Body(kind, msg.Address{Node: "a"}, msg.Address{Node: "b"}, in)
	if m.Kind != kind {
		t.Fatalf("kind = %v", m.Kind)
	}
	var out T
	if err := Decode(m, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func TestJobRequirementsRoundTrip(t *testing.T) {
	got := roundTrip(t, msg.KindJobManagerSolicit, JobRequirements{MinMemoryMB: 512, ExpectedTasks: 7})
	if got.MinMemoryMB != 512 || got.ExpectedTasks != 7 {
		t.Errorf("got %+v", got)
	}
}

func TestJMOfferRoundTrip(t *testing.T) {
	got := roundTrip(t, msg.KindJobManagerOffer, JMOffer{Node: "n3", FreeMemoryMB: 4096, ActiveJobs: 2})
	if got.Node != "n3" || got.FreeMemoryMB != 4096 || got.ActiveJobs != 2 {
		t.Errorf("got %+v", got)
	}
}

func TestCreateTasksReqRoundTrip(t *testing.T) {
	spec := &task.Spec{
		Name:      "w1",
		Archive:   "w.jar",
		Class:     "c.W",
		DependsOn: []string{"split"},
		Params:    []task.Param{{Type: task.TypeInteger, Value: "3"}},
		Req:       task.Requirements{MemoryMB: 256, RunModel: task.RunAsProcess},
	}
	in := CreateTasksReq{
		JobID: "j1",
		Tasks: []TaskCreate{{Spec: spec, Archive: ArchiveRef{Name: "w.jar", Digest: "abc"}}},
		Blobs: map[string][]byte{"abc": {1, 2, 3}},
	}
	got := roundTrip(t, msg.KindCreateTasks, in)
	if len(got.Tasks) != 1 {
		t.Fatalf("tasks = %+v", got.Tasks)
	}
	gs := got.Tasks[0].Spec
	if gs.Name != "w1" || gs.Req.RunModel != task.RunAsProcess {
		t.Errorf("spec = %+v", gs)
	}
	if len(got.Blobs["abc"]) != 3 || got.Tasks[0].Archive.Digest != "abc" {
		t.Errorf("archive fields lost: %+v", got)
	}
	if gs.DependsOn[0] != "split" {
		t.Errorf("depends = %v", gs.DependsOn)
	}
	if v, err := gs.Params[0].Int(); err != nil || v != 3 {
		t.Errorf("param = %v %v", v, err)
	}
}

// TestTaskEventsRoundTrip: a client-bound batch carries all five labels,
// each with its own fields: a retry's reason, attempt and Speculative, and
// the job's end with its failed tasks.
func TestTaskEventsRoundTrip(t *testing.T) {
	got := roundTrip(t, msg.KindTaskEvents, TaskEvents{JobID: "j", Node: "n", Events: []TaskEventItem{
		{Kind: msg.KindTaskStarted, Task: "t"},
		{Kind: msg.KindTaskFailed, Task: "t", Err: "boom", Attempt: 1},
		{Kind: msg.KindTaskRetried, Task: "t", Err: "node n2 died", Attempt: 2, Speculative: true},
		{Kind: msg.KindJobFailed, Err: "one or more tasks failed", TaskErrs: map[string]string{"t": "boom"}},
	}})
	if got.Node != "n" || len(got.Events) != 4 || got.Events[0].Kind != msg.KindTaskStarted ||
		got.Events[1].Err != "boom" || got.Events[1].Attempt != 1 {
		t.Errorf("got %+v", got)
	}
	if r := got.Events[2]; r.Kind != msg.KindTaskRetried || r.Err != "node n2 died" || r.Attempt != 2 || !r.Speculative {
		t.Errorf("retry label %+v", r)
	}
	if e := got.Events[3]; e.Kind != msg.KindJobFailed || e.Err != "one or more tasks failed" || e.TaskErrs["t"] != "boom" {
		t.Errorf("job label %+v", e)
	}
}

// TestCutTaskEvents: a frame takes at most TaskEventsMax events, fewer when
// their error texts and spans would pass TaskEventsMaxBytes, and never none
// — an event too heavy for the byte bound still travels, alone.
func TestCutTaskEvents(t *testing.T) {
	light := make([]TaskEventItem, 600)
	for i := range light {
		light[i] = TaskEventItem{Kind: msg.KindTaskCompleted, Task: "t"}
	}
	if n := CutTaskEvents(light); n != TaskEventsMax {
		t.Errorf("600 light events cut at %d, want %d", n, TaskEventsMax)
	}
	if n := CutTaskEvents(light[:3]); n != 3 {
		t.Errorf("3 light events cut at %d", n)
	}
	if n := CutTaskEvents(nil); n != 0 {
		t.Errorf("no events cut at %d", n)
	}
	heavy := strings.Repeat("x", TaskEventsMaxBytes/4)
	errs := make([]TaskEventItem, 10)
	for i := range errs {
		errs[i] = TaskEventItem{Kind: msg.KindTaskFailed, Task: "t", Err: heavy}
	}
	if n := CutTaskEvents(errs); n != 4 {
		t.Errorf("quarter-bound errors cut at %d, want 4", n)
	}
	spans := make([]trace.Span, 2*TaskEventsMaxBytes/48)
	traced := []TaskEventItem{{Kind: msg.KindTaskCompleted, Task: "a", Spans: spans}, {Kind: msg.KindTaskCompleted, Task: "b"}}
	if n := CutTaskEvents(traced); n != 1 {
		t.Errorf("an event over the byte bound cut at %d, want 1 (alone)", n)
	}
}

func TestUserPayloadRoundTrip(t *testing.T) {
	got := roundTrip(t, msg.KindUser, UserPayload{
		JobID: "j", FromTask: "a", ToTask: ClientTaskName, Data: []byte("payload"),
	})
	if got.ToTask != "client" || string(got.Data) != "payload" {
		t.Errorf("got %+v", got)
	}
}

func TestJobEventRoundTrip(t *testing.T) {
	got := roundTrip(t, msg.KindJobFailed, JobEvent{
		JobID: "j", Failed: true, Err: "x",
		TaskErrs: map[string]string{"t1": "e1"},
	})
	if !got.Failed || got.TaskErrs["t1"] != "e1" {
		t.Errorf("got %+v", got)
	}
}

func TestExecTaskReqRoundTrip(t *testing.T) {
	got := roundTrip(t, msg.KindExecTask, ExecTaskReq{JobID: "j", Tasks: []string{"t9", "t10"}})
	if len(got.Tasks) != 2 || got.Tasks[0] != "t9" || got.Tasks[1] != "t10" {
		t.Errorf("got %+v", got)
	}
}

func TestDecodeMismatch(t *testing.T) {
	m := Body(msg.KindPing, msg.Address{}, msg.Address{}, JobRequirements{MinMemoryMB: 1})
	var out ExecTaskReq
	// The payload's type id names JobRequirements, so decoding it as an
	// ExecTaskReq is refused rather than read in the wrong layout.
	if err := Decode(m, &out); err == nil {
		t.Errorf("a JobRequirements payload decoded as an ExecTaskReq: %+v", out)
	}
}

func TestGroupNames(t *testing.T) {
	if GroupJobManagers == GroupTaskManagers {
		t.Error("group names collide")
	}
	if GroupJobManagers == "" || GroupTaskManagers == "" {
		t.Error("empty group names")
	}
}
