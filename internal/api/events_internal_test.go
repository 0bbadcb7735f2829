package api

// The client's half of the lifecycle flow: a relayed TASK_EVENTS batch is
// decoded once, counted, and queued as Event values.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"reflect"
	"testing"

	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/transport"
)

// handleFor attaches a client to an empty fabric and hands it a job handle
// as CreateJobOn would have left it, so frames can be pushed through
// Client.handle with no cluster behind them.
func handleFor(t *testing.T, id string) (*Client, *Job) {
	t.Helper()
	net := transport.NewIdealNetwork()
	t.Cleanup(func() { net.Close() })
	c, err := Initialize(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	j := &Job{client: c, ID: id, JMNode: "n1", inbox: msg.NewMailbox[*msg.Message](),
		events: msg.NewMailbox[Event](), done: make(chan struct{})}
	c.jobs[id] = j
	return c, j
}

// relayed builds the frame a JobManager relays: n events of one node.
func relayed(jobID string, first, n int) *msg.Message {
	batch := protocol.TaskEvents{JobID: jobID, Node: "n2"}
	for i := first; i < first+n; i++ {
		kind := msg.KindTaskStarted
		if i%2 == 1 {
			kind = msg.KindTaskCompleted
		}
		batch.Events = append(batch.Events, protocol.TaskEventItem{Kind: kind, Task: fmt.Sprintf("t%04d", i/2)})
	}
	return protocol.Body(msg.KindTaskEvents, msg.Address{Node: "n1", Job: jobID},
		msg.Address{Node: "client", Job: jobID, Task: protocol.ClientTaskName}, batch)
}

// TestRelayedBatchAllocs guards what the client pays for a relayed batch of
// 32 events: the decode (a reader, the body, two batch strings, the event
// slice, one task name per event) and nothing per event on top of it — the
// queue keeps the decoded values, it does not encode each one into a
// message of its own for GetEvent to decode again (which cost 6 allocations
// and some 300 bytes per event).
func TestRelayedBatchAllocs(t *testing.T) {
	c, j := handleFor(t, "n1-job1")
	m := relayed(j.ID, 0, 32)
	c.handle(m) // the queue grows to its working size once
	allocs := testing.AllocsPerRun(200, func() {
		j.events.Drain()
		c.handle(m)
	})
	if allocs > 32+8 {
		t.Errorf("a relayed batch of 32 events costs the client %.0f allocations, want <= 40 (one per event plus a constant)", allocs)
	}
	if p := j.Progress(); p.Started != 16*202 || p.Completed != 16*202 {
		t.Errorf("census %+v after 202 batches of 16 + 16", p)
	}
}

// TestEventQueueKeepsEveryEventInOrder: the queue holds every event however
// many arrive before a reader, and the census counts every one; GetEvent
// yields them oldest first, blocks while there is none, gives up with its
// context, and fails with msg.ErrClosed once the handle is released, waking
// a reader blocked in it.
func TestEventQueueKeepsEveryEventInOrder(t *testing.T) {
	c, j := handleFor(t, "n1-job2")
	for first := 0; first < 1200; first += 100 {
		c.handle(relayed(j.ID, first, 100))
	}
	if p := j.Progress(); p.Started+p.Completed != 1200 {
		t.Errorf("census %+v, want all 1200 events counted", p)
	}
	ctx := context.Background()
	for i := 0; i < 1200; i++ {
		ev, err := j.GetEvent(ctx)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		want := Event{Kind: msg.KindTaskStarted, Task: fmt.Sprintf("t%04d", i/2), Node: "n2"}
		if i%2 == 1 {
			want.Kind = msg.KindTaskCompleted
		}
		if *ev != want {
			t.Fatalf("event %d = %+v, want %+v", i, *ev, want)
		}
	}
	// Empty now, with nothing dropped. A reader blocks...
	got := make(chan error, 1)
	read := func(ctx context.Context) {
		ev, err := j.GetEvent(ctx)
		if err == nil && ev.Kind != msg.KindTaskRetried {
			err = fmt.Errorf("read %+v", *ev)
		}
		got <- err
	}
	go read(ctx)
	c.handle(protocol.Body(msg.KindTaskEvents, msg.Address{Node: "n1"}, msg.Address{Node: "client"},
		protocol.TaskEvents{JobID: j.ID, Node: "n3", Events: []protocol.TaskEventItem{
			{Kind: msg.KindTaskRetried, Task: "t0001", Err: "node n2 died", Attempt: 1}}}))
	if err := <-got; err != nil {
		t.Errorf("blocked GetEvent woken by a TASK_RETRIED: %v", err)
	}
	if p := j.Progress(); p.Retried != 1 {
		t.Errorf("census %+v, want 1 retried", p)
	}
	// ...gives up with its context...
	cctx, cancel := context.WithCancel(ctx)
	go read(cctx)
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Errorf("GetEvent under a cancelled context: %v", err)
	}
	// ...and is woken by Release.
	go read(ctx)
	j.Release()
	if err := <-got; !errors.Is(err, msg.ErrClosed) {
		t.Errorf("GetEvent across Release: %v, want msg.ErrClosed", err)
	}
	c.handle(relayed(j.ID, 0, 2)) // a released handle is off the routing table
	if _, err := j.GetEvent(ctx); !errors.Is(err, msg.ErrClosed) {
		t.Errorf("GetEvent after Release: %v, want msg.ErrClosed", err)
	}
}

// userFrame is a task's message to the client as the JobManager routes it.
func userFrame(jobID, from, data string) *msg.Message {
	return protocol.Body(msg.KindUser, msg.Address{Node: "n2", Job: jobID, Task: from},
		msg.Address{Node: "client", Job: jobID, Task: protocol.ClientTaskName},
		protocol.UserPayload{JobID: jobID, FromTask: from, ToTask: protocol.ClientTaskName, Data: []byte(data)})
}

// TestJobLabelEndsTheStream: the job label is the last event of the job's
// stream. Applying it counts the events before it, records the result, and
// closes the inbox: GetMessage hands out what was queued, then
// ErrJobFinished, and a message that still arrives is dropped without a
// word.
func TestJobLabelEndsTheStream(t *testing.T) {
	var logs bytes.Buffer // written on the test's goroutine only
	_, j := handleFor(t, "n1-job3")
	j.client.opts.Log = slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	c := j.client
	c.handle(userFrame(j.ID, "t1", "a"))
	c.handle(userFrame(j.ID, "t1", "b"))
	taskErrs := map[string]string{"t2": "boom"}
	c.handle(protocol.Body(msg.KindTaskEvents, msg.Address{Node: "n1"}, msg.Address{Node: "client"},
		protocol.TaskEvents{JobID: j.ID, Node: "n2", Events: []protocol.TaskEventItem{
			{Kind: msg.KindTaskCompleted, Task: "t1"},
			{Kind: msg.KindTaskFailed, Task: "t2", Err: "boom"},
			{Kind: msg.KindJobFailed, Err: "one or more tasks failed", TaskErrs: taskErrs},
		}}))
	select {
	case <-j.Done():
	default:
		t.Fatal("Done not closed by the job label")
	}
	res, err := j.Wait(context.Background())
	want := &Result{JobID: j.ID, Failed: true, Err: "one or more tasks failed", TaskErrs: taskErrs}
	if err != nil || !reflect.DeepEqual(res, want) {
		t.Errorf("Wait = %+v, %v; want %+v", res, err, want)
	}
	if p := j.Progress(); p.Completed != 1 || p.Failed != 1 {
		t.Errorf("census %+v, want the batch's two task events", p)
	}
	c.handle(userFrame(j.ID, "t1", "late"))
	for _, wantData := range []string{"a", "b"} {
		if from, data, err := j.GetMessage(context.Background()); err != nil || from != "t1" || string(data) != wantData {
			t.Errorf("GetMessage = %q %q %v, want %q from t1", from, data, err, wantData)
		}
	}
	if _, _, err := j.GetMessage(context.Background()); !errors.Is(err, ErrJobFinished) {
		t.Errorf("GetMessage past the end: %v, want ErrJobFinished", err)
	}
	if _, _, ok, err := j.TryGetMessage(); ok || !errors.Is(err, ErrJobFinished) {
		t.Errorf("TryGetMessage past the end: ok %v, %v; want ErrJobFinished", ok, err)
	}
	if logs.Len() != 0 {
		t.Errorf("a message past the job's end was logged:\n%s", logs.String())
	}
}
