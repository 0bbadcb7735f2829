package taskmgr

// The run phase as the TaskManager sees it: an EXEC_TASK frame lists a
// node's tasks, and what they report leaves through a per-job outbox as
// TASK_EVENTS batches — never as a frame per event.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/config"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/trace"
)

// gateRegistry adds tm.Gate, a task that runs until gate is closed.
func gateRegistry(t *testing.T, gate <-chan struct{}) *task.Registry {
	r := registry(t)
	r.MustRegister("tm.Gate", func() task.Task {
		return task.Func(func(task.Context) error { <-gate; return nil })
	})
	return r
}

// census walks batches in send order. It fails the test if a task's
// terminal event precedes its TASK_STARTED or if either comes twice, and
// returns the events per label.
func census(t *testing.T, batches []protocol.TaskEvents) map[msg.Kind]int {
	t.Helper()
	n := make(map[msg.Kind]int)
	started, ended := make(map[string]bool), make(map[string]bool)
	for _, b := range batches {
		for _, ev := range b.Events {
			n[ev.Kind]++
			switch {
			case ev.Kind == msg.KindTaskStarted:
				if started[ev.Task] {
					t.Errorf("%s started twice", ev.Task)
				}
				started[ev.Task] = true
			case ev.Kind == msg.KindTaskFailed && strings.Contains(ev.Err, "not assigned"):
				// A task that never started ends without a TASK_STARTED.
			case !started[ev.Task]:
				t.Errorf("%s of %s before its TASK_STARTED", ev.Kind, ev.Task)
			case ended[ev.Task]:
				t.Errorf("%s ended twice", ev.Task)
			default:
				ended[ev.Task] = true
			}
		}
	}
	return n
}

// noBareEvents fails the test if a lifecycle label ever travelled as the
// kind of a frame.
func noBareEvents(t *testing.T, s *sink) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.msgs {
		switch m.Kind {
		case msg.KindTaskStarted, msg.KindTaskCompleted, msg.KindTaskFailed:
			t.Errorf("a bare %s frame left the node", m.Kind)
		}
	}
}

// TestExecListStartsEachTaskAndFailsOneAlone: an EXEC_TASK frame lists
// eight names, one of which this node does not hold. Seven tasks start; the
// eighth fails alone, as a TASK_FAILED in the job's outbox; a second exec of
// a running task is swallowed; every reservation returns.
func TestExecListStartsEachTaskAndFailsOneAlone(t *testing.T) {
	gate := make(chan struct{})
	s := &sink{}
	tm := New(config.Config{MemoryMB: 1000, Registry: gateRegistry(t, gate), HeartbeatInterval: -1}, "tm1", nil, s.send, nil, nil)
	defer tm.Close()
	names := []string{"a", "b", "c", "ghost", "d", "e", "f", "g"}
	for _, n := range names {
		sp := spec(n, 100)
		switch n {
		case "ghost":
			continue
		case "g":
			sp.Class = "tm.Gate"
		}
		mustAssign(t, tm, sp)
	}
	tm.HandleExec("j1", names, "jm", trace.Context{})
	if _, failed := s.waitEvent(t, msg.KindTaskFailed, "ghost"); !strings.Contains(failed.Err, "not assigned") {
		t.Errorf("ghost failed with %q", failed.Err)
	}
	s.waitEvent(t, msg.KindTaskStarted, "g")
	tm.HandleExec("j1", []string{"g"}, "jm", trace.Context{}) // a re-dispatch of a running task
	close(gate)
	// g's end is posted after anything the second exec could have posted.
	s.waitEvent(t, msg.KindTaskCompleted, "g")
	for _, n := range names {
		if n != "ghost" {
			s.waitEvent(t, msg.KindTaskCompleted, n) // not only g: the others run on their own
		}
	}
	frames, batches := s.batches(t)
	n := census(t, batches)
	if n[msg.KindTaskStarted] != 7 || n[msg.KindTaskCompleted] != 7 || n[msg.KindTaskFailed] != 1 {
		t.Errorf("events by label: %v, want 7 started, 7 completed, 1 failed", n)
	}
	for i, m := range frames {
		if m.To.Node != "jm" || m.To.Job != "j1" || batches[i].Node != "tm1" || batches[i].JobID != "j1" {
			t.Errorf("frame %d: to %v, body node %q job %q", i, m.To, batches[i].Node, batches[i].JobID)
		}
	}
	if free := tm.FreeMemoryMB(); free != 1000 {
		t.Errorf("free = %d MB once every task ended, want 1000", free)
	}
	noBareEvents(t, s)

	// With nothing of the job held here, the report goes to the node the
	// frame came from.
	tm.HandleExec("j2", []string{"x"}, "jm9", trace.Context{})
	m, _ := s.waitEvent(t, msg.KindTaskFailed, "x")
	if m.To.Node != "jm9" {
		t.Errorf("a lone exec failure went to %q, want the frame's sender jm9", m.To.Node)
	}
}

// TestOutboxCutsFramesAndKeepsOrder: 600 tasks of one job end at once. Their
// 1200 events leave as frames of at most protocol.TaskEventsMax, in posting
// order — every STARTED before its COMPLETED — from one flusher at a time,
// and the drained outbox is gone.
func TestOutboxCutsFramesAndKeepsOrder(t *testing.T) {
	const tasks = 600
	s := &sink{}
	var inFlight, overlapped atomic.Int32
	send := func(to string, m *msg.Message) error {
		if m.Kind == msg.KindTaskEvents {
			if inFlight.Add(1) > 1 {
				overlapped.Add(1)
			}
			defer inFlight.Add(-1)
		}
		return s.send(to, m)
	}
	tm := New(config.Config{MemoryMB: tasks, Registry: registry(t), HeartbeatInterval: -1}, "tm1", nil, send, nil, nil)
	names := make([]string, tasks)
	for i := range names {
		names[i] = fmt.Sprintf("t%03d", i)
		mustAssign(t, tm, spec(names[i], 1))
	}
	tm.HandleExec("j1", names, "jm", trace.Context{})
	s.wait(t, "the 600th TASK_COMPLETED", func(*msg.Message) bool {
		// Called under s.mu with every message so far in s.msgs.
		done := 0
		for _, m := range s.msgs {
			var b protocol.TaskEvents
			if m.Kind == msg.KindTaskEvents && protocol.Decode(m, &b) == nil {
				for _, ev := range b.Events {
					if ev.Kind == msg.KindTaskCompleted {
						done++
					}
				}
			}
		}
		return done == tasks
	})
	tm.Close() // returns once the flusher has
	frames, batches := s.batches(t)
	if len(frames) < 3 {
		t.Errorf("%d events left in %d frames, want at least 3", 2*tasks, len(frames))
	}
	for i, b := range batches {
		if len(b.Events) == 0 || len(b.Events) > protocol.TaskEventsMax {
			t.Errorf("frame %d carries %d events, want 1..%d", i, len(b.Events), protocol.TaskEventsMax)
		}
	}
	if n := census(t, batches); n[msg.KindTaskStarted] != tasks || n[msg.KindTaskCompleted] != tasks || n[msg.KindTaskFailed] != 0 {
		t.Errorf("events by label: %v, want %d started and %d completed", n, tasks, tasks)
	}
	if n := overlapped.Load(); n != 0 {
		t.Errorf("%d TASK_EVENTS sends of one job overlapped another", n)
	}
	if n := len(tm.outboxes); n != 0 {
		t.Errorf("%d outboxes left once everything was sent", n)
	}
	noBareEvents(t, s)
}

// heldSink is a sink whose first TASK_EVENTS send blocks until released.
type heldSink struct {
	sink
	once    sync.Once
	entered chan struct{}
	release chan struct{}
	sent    atomic.Bool // the held send has returned
}

func newHeldSink() *heldSink {
	return &heldSink{entered: make(chan struct{}), release: make(chan struct{})}
}

func (h *heldSink) send(to string, m *msg.Message) error {
	held := false
	if m.Kind == msg.KindTaskEvents {
		h.once.Do(func() {
			held = true
			close(h.entered)
			<-h.release
		})
	}
	err := h.sink.send(to, m)
	if held {
		h.sent.Store(true)
	}
	return err
}

// TestOutboxFlusherTargetsManagerAtSendTime scripts append, re-point, flush:
// while the flusher is busy sending to the job's first manager, an event is
// appended and a JM_ADOPT re-points the job; the appended event leaves for
// the adopter.
func TestOutboxFlusherTargetsManagerAtSendTime(t *testing.T) {
	h := newHeldSink()
	tm := New(config.Config{Registry: registry(t), HeartbeatInterval: -1}, "tm1", nil, h.send, nil, nil)
	defer tm.Close()
	tm.post("j1", "jm1", 1, protocol.TaskEventItem{Kind: msg.KindTaskStarted, Task: "t"})
	<-h.entered // the flusher is inside its send to jm1
	tm.post("j1", "jm1", 1, protocol.TaskEventItem{Kind: msg.KindTaskCompleted, Task: "t"})
	adopt := protocol.Body(msg.KindJMAdopt, msg.Address{Node: "jm2", Job: "j1"}, msg.Address{Node: "tm1", Job: "j1"},
		protocol.JMAdoptReq{JobID: "j1", NewManager: "jm2", ClientNode: "client"})
	if r := tm.HandleAdopt(adopt); r == nil {
		t.Fatal("adopt unanswered")
	}
	close(h.release)
	m, _ := h.waitEvent(t, msg.KindTaskCompleted, "t")
	if m.To.Node != "jm2" {
		t.Errorf("the event queued across the adoption went to %q, want the adopter jm2", m.To.Node)
	}
	if m, _ := h.waitEvent(t, msg.KindTaskStarted, "t"); m.To.Node != "jm1" {
		t.Errorf("the batch already being sent went to %q, want jm1", m.To.Node)
	}
}

// TestCloseWaitsForFlushers: Close does not return while a flusher is still
// sending.
func TestCloseWaitsForFlushers(t *testing.T) {
	h := newHeldSink()
	tm := New(config.Config{Registry: registry(t), HeartbeatInterval: -1}, "tm1", nil, h.send, nil, nil)
	tm.post("j1", "jm1", 1, protocol.TaskEventItem{Kind: msg.KindTaskStarted, Task: "t"})
	<-h.entered
	closed := make(chan struct{})
	go func() { tm.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with a flusher inside its send")
	case <-time.After(20 * time.Millisecond): // a negative needs a window
	}
	close(h.release)
	<-closed
	if !h.sent.Load() {
		t.Error("Close returned before the held send did")
	}
}
