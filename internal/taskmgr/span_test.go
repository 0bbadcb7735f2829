package taskmgr

// A task's spans are its own: they ride its terminal event, and nothing
// else on the node keeps or walks them.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/trace"
)

// traced is the dispatch context of a sampled job.
var traced = trace.Context{TraceID: 1, SpanID: 1}

// spanNames lists the names of an event's spans, checking that each is the
// task's own.
func spanNames(t *testing.T, ev protocol.TaskEventItem, jobID string) []string {
	t.Helper()
	names := make([]string, len(ev.Spans))
	for i, sp := range ev.Spans {
		if sp.Job != jobID || sp.Task != ev.Task || sp.Trace != traced.TraceID {
			t.Errorf("%s shipped a span of %s/%s in trace %d", ev.Task, sp.Job, sp.Task, sp.Trace)
		}
		names[i] = sp.Name
	}
	return names
}

// within fails the test if done is not closed in time.
func within(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestLongTaskKeepsItsSpans: a traced task puts once and blocks while other
// traced tasks on its node end more spans than a node-wide ring of 4 096
// would hold. When it is released, its terminal event still carries its
// tm.shuffle.put span, then its tm.exec. Meanwhile the terminal event of an
// untraced task on the node costs a few kilobytes, not a walk over every
// span the node has recorded (about 2.3 MB when a ring kept them all).
func TestLongTaskKeepsItsSpans(t *testing.T) {
	const busyTasks, putsEach = 4, 1100 // 4 400 spans
	reg := registry(t)
	longPut, releaseLong, releaseBusy := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var busyPut sync.WaitGroup
	busyPut.Add(busyTasks)
	reg.MustRegister("long", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			err := ctx.Put("long", []byte("x"))
			close(longPut)
			<-releaseLong
			return err
		})
	})
	reg.MustRegister("busy", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			var err error
			for i := 0; i < putsEach && err == nil; i++ {
				err = ctx.Put(ctx.TaskName(), []byte{byte(i)})
			}
			busyPut.Done()
			<-releaseBusy
			return err
		})
	})
	tm, s := newDPFabric().tracedNode(t, "a", reg, trace.New(trace.Config{Node: "a", Sample: 1}))

	startTraced(t, tm, "j1", "long", "long", traced)
	within(t, "the long task's put", longPut)
	for i := 0; i < busyTasks; i++ {
		startTraced(t, tm, "j1", fmt.Sprintf("busy%d", i), "busy", traced)
	}
	allPut := make(chan struct{})
	go func() { busyPut.Wait(); close(allPut) }()
	within(t, "the busy tasks' puts", allPut)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if ev := runTask(t, tm, s, "j2", "untraced", "tm.Noop"); ev.Kind != msg.KindTaskCompleted || len(ev.Spans) != 0 {
		t.Errorf("untraced task ended %s with %d spans (%s)", ev.Kind, len(ev.Spans), ev.Err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Errorf("running an untraced task to its terminal event allocated %d bytes, want under 256 KiB", got)
	} else {
		t.Logf("running an untraced task to its terminal event allocated %d bytes", got)
	}

	close(releaseBusy)
	for i := 0; i < busyTasks; i++ {
		if ev := waitTerminal(t, s, fmt.Sprintf("busy%d", i)); ev.Kind != msg.KindTaskCompleted {
			t.Fatalf("busy%d: %s %s", i, ev.Kind, ev.Err)
		}
	}
	close(releaseLong)
	ev := waitTerminal(t, s, "long")
	if ev.Kind != msg.KindTaskCompleted {
		t.Fatalf("long: %s %s", ev.Kind, ev.Err)
	}
	if got := spanNames(t, ev, "j1"); len(got) != 2 || got[0] != "tm.shuffle.put" || got[1] != "tm.exec" {
		t.Errorf("long task shipped spans %q, want [tm.shuffle.put tm.exec]", got)
	}
}

// TestTaskSpansAreCapped: a traced task that puts 10 000 times, from four
// goroutines at once, ships at most trace.MaxJobSpans spans in its terminal
// event, and its tm.exec is among them, last.
func TestTaskSpansAreCapped(t *testing.T) {
	const goroutines, putsEach = 4, 2500
	reg := registry(t)
	reg.MustRegister("chatty", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			errs := make([]error, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < putsEach && errs[g] == nil; i++ {
						errs[g] = ctx.Put(fmt.Sprintf("k%d", g), []byte{byte(i)})
					}
				}(g)
			}
			wg.Wait()
			return errors.Join(errs...)
		})
	})
	tm, s := newDPFabric().tracedNode(t, "a", reg, trace.New(trace.Config{Node: "a", Sample: 1}))
	startTraced(t, tm, "j1", "chatty", "chatty", traced)
	ev := waitTerminal(t, s, "chatty")
	if ev.Kind != msg.KindTaskCompleted {
		t.Fatalf("chatty: %s %s", ev.Kind, ev.Err)
	}
	names := spanNames(t, ev, "j1")
	if len(names) != trace.MaxJobSpans {
		t.Fatalf("shipped %d spans, want the cap, %d", len(names), trace.MaxJobSpans)
	}
	if last := names[len(names)-1]; last != "tm.exec" {
		t.Errorf("last span is %s, want tm.exec", last)
	}
	for i, name := range names[:len(names)-1] {
		if name != "tm.shuffle.put" {
			t.Fatalf("span %d is %s, want tm.shuffle.put", i, name)
		}
	}
}
