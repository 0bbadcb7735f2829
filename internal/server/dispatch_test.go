package server_test

import (
	"runtime"
	"testing"
	"time"

	"cn/internal/config"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/server"
	"cn/internal/task"
	"cn/internal/transport"
	"cn/internal/tuplespace"
)

// rawNode is a bare endpoint that fires frames at a server without waiting
// for replies and collects whatever comes back, so a test controls exactly
// which frames are in flight in which order.
type rawNode struct {
	t     *testing.T
	ep    transport.Endpoint
	in    chan *msg.Message
	stash map[uint64]*msg.Message // replies read while waiting for another
	job   string                  // the job requests are addressed to, once created
}

// inboxCap holds every reply a test provokes before it starts reading.
const inboxCap = 4096

// onFabrics runs test against a one-server cluster on each fabric: the
// in-memory one delivers every frame on a single dispatch goroutine, TCP on
// one read loop per connection.
func onFabrics(t *testing.T, test func(t *testing.T, c *rawNode, jobID string)) {
	for name, mk := range map[string]func() transport.Network{
		"mem": func() transport.Network { return transport.NewIdealNetwork() },
		"tcp": func() transport.Network { return transport.NewTCPNetwork() },
	} {
		t.Run(name, func(t *testing.T) {
			net := mk()
			t.Cleanup(func() { net.Close() })
			srv, err := server.Start(net, "n1", config.Config{Registry: testRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			c := &rawNode{t: t, in: make(chan *msg.Message, inboxCap), stash: make(map[uint64]*msg.Message)}
			c.ep, err = net.Attach("x", func(m *msg.Message) { c.in <- m })
			if err != nil {
				t.Fatal(err)
			}
			c.job = "x.dispatch"
			if r := c.await(c.send(msg.KindCreateTasks, protocol.CreateTasksReq{JobID: c.job, ClientNode: "x", Name: "dispatch"})); r.Kind != msg.KindTasksAccepted {
				t.Fatalf("create job answered %v", r.Kind)
			}
			test(t, c, c.job)
		})
	}
}

// send fires one request at the server and returns its message id.
func (c *rawNode) send(kind msg.Kind, body any) uint64 {
	c.t.Helper()
	return c.sendFrom("x", kind, body)
}

// sendFrom is send with a chosen requester node in the envelope.
func (c *rawNode) sendFrom(node string, kind msg.Kind, body any) uint64 {
	c.t.Helper()
	m := protocol.Body(kind, msg.Address{Node: node, Task: protocol.ClientTaskName}, msg.Address{Node: "n1", Job: c.job}, body)
	if err := c.ep.Send("n1", m); err != nil {
		c.t.Fatalf("send %v: %v", kind, err)
	}
	return m.ID
}

// await returns the reply correlated with id, failing the test if the
// server does not answer — which is what a stalled delivering goroutine
// looks like from outside.
func (c *rawNode) await(id uint64) *msg.Message {
	c.t.Helper()
	if m, ok := c.stash[id]; ok {
		delete(c.stash, id)
		return m
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m := <-c.in:
			if m.CorrelID == id {
				return m
			}
			c.stash[m.CorrelID] = m
		case <-deadline:
			c.t.Fatalf("no reply to request %d", id)
		}
	}
}

func (c *rawNode) decode(m *msg.Message, out any) {
	c.t.Helper()
	if err := protocol.Decode(m, out); err != nil {
		c.t.Fatalf("decode %v: %v", m.Kind, err)
	}
}

// tsResp awaits and decodes the TS_REPLY to id.
func (c *rawNode) tsResp(id uint64) protocol.TSOpResp {
	c.t.Helper()
	var resp protocol.TSOpResp
	c.decode(c.await(id), &resp)
	return resp
}

func tupleFields(t *testing.T, fields ...any) tuplespace.Tuple {
	t.Helper()
	if err := protocol.CheckTuple(fields); err != nil {
		t.Fatal(err)
	}
	return fields
}

func templateFields(t *testing.T, fields ...any) tuplespace.Tuple {
	t.Helper()
	if err := protocol.CheckTemplate(fields); err != nil {
		t.Fatal(err)
	}
	return fields
}

// wantTuple asserts resp carries exactly the given tuple.
func wantTuple(t *testing.T, what string, resp protocol.TSOpResp, fields ...any) {
	t.Helper()
	if !resp.OK {
		t.Fatalf("%s: reply %+v, want a tuple", what, resp)
	}
	got := resp.Tuple
	if len(got) != len(fields) {
		t.Fatalf("%s: got %v, want %v", what, got, fields)
	}
	for i := range got {
		if got[i] != fields[i] {
			t.Fatalf("%s: got %v, want %v", what, got, fields)
		}
	}
}

// longPark keeps a parked op parked for the whole test: a stall then shows
// as a missing reply, never as the park window's Retry.
const longPark = 20_000

// TestInlineOpsApplyInIssueOrder: ops of inline kinds from one connection
// are applied in the order they were issued. Each TS_INP is sent right
// behind the TS_OUT of the one tuple it can match, without waiting for
// anything; any reordering between the two makes a probe miss or take a
// later tuple.
func TestInlineOpsApplyInIssueOrder(t *testing.T) {
	onFabrics(t, func(t *testing.T, c *rawNode, jobID string) {
		const n = 1000
		tpl := templateFields(t, "seq", tuplespace.TypeOf(0))
		outs, inps := make([]uint64, n), make([]uint64, n)
		for i := 0; i < n; i++ {
			outs[i] = c.send(msg.KindTSOut, protocol.TSOpReq{Tuple: tupleFields(t, "seq", i)})
			inps[i] = c.send(msg.KindTSInP, protocol.TSOpReq{Tuple: tpl})
		}
		for i := 0; i < n; i++ {
			if resp := c.tsResp(outs[i]); !resp.OK {
				t.Fatalf("out %d: %+v", i, resp)
			}
			wantTuple(t, "probe behind out", c.tsResp(inps[i]), "seq", i)
		}
	})
}

// TestParkedInDoesNotStallFollowingOut: a TS_IN that has to park must not
// hold the goroutine that delivered it — the TS_OUT that satisfies it comes
// from the same node, behind it on the same connection (on the in-memory
// fabric, behind it on the endpoint's only dispatch goroutine).
func TestParkedInDoesNotStallFollowingOut(t *testing.T) {
	onFabrics(t, func(t *testing.T, c *rawNode, jobID string) {
		in := c.send(msg.KindTSIn, protocol.TSOpReq{ParkMS: longPark,
			Tuple: templateFields(t, "k", tuplespace.TypeOf(0))})
		out := c.send(msg.KindTSOut, protocol.TSOpReq{Tuple: tupleFields(t, "k", 7)})
		if resp := c.tsResp(out); !resp.OK {
			t.Fatalf("out behind a parked in: %+v", resp)
		}
		wantTuple(t, "parked in", c.tsResp(in), "k", 7)
		// The in consumed the tuple.
		probe := c.send(msg.KindTSRdP, protocol.TSOpReq{Tuple: templateFields(t, "k", tuplespace.TypeOf(0))})
		if resp := c.tsResp(probe); !resp.NoMatch {
			t.Errorf("tuple still stored after the parked in took it: %+v", resp)
		}
	})
}

// TestCancelledParkLeavesTupleForOthers: a TS_CANCEL behind a parked TS_IN
// withdraws it — the tuple a later TS_OUT stores is not consumed by the
// abandoned op and no reply goes to its dropped correlation.
func TestCancelledParkLeavesTupleForOthers(t *testing.T) {
	onFabrics(t, func(t *testing.T, c *rawNode, jobID string) {
		tpl := templateFields(t, "k", tuplespace.TypeOf(0))
		in := c.send(msg.KindTSIn, protocol.TSOpReq{ParkMS: longPark, Tuple: tpl})
		c.send(msg.KindTSCancel, protocol.TSCancelReq{JobID: jobID, ReqID: in})
		out := c.send(msg.KindTSOut, protocol.TSOpReq{Tuple: tupleFields(t, "k", 7)})
		probe := c.send(msg.KindTSInP, protocol.TSOpReq{Tuple: tpl})
		if resp := c.tsResp(out); !resp.OK {
			t.Fatalf("out: %+v", resp)
		}
		wantTuple(t, "probe after a cancelled park", c.tsResp(probe), "k", 7)
		// Replies travel in order, so one to the cancelled in would have
		// arrived ahead of the probe's.
		if m, ok := c.stash[in]; ok {
			t.Errorf("cancelled in was answered: %v", m)
		}
	})
}

// TestUndeliverableInlineHitPutsTupleBack: a destructive op answered inline
// whose reply the fabric refuses (the requester's node is gone) puts its
// tuple back for the live workers.
func TestUndeliverableInlineHitPutsTupleBack(t *testing.T) {
	onFabrics(t, func(t *testing.T, c *rawNode, jobID string) {
		tpl := templateFields(t, "k", tuplespace.TypeOf(0))
		out := c.send(msg.KindTSOut, protocol.TSOpReq{Tuple: tupleFields(t, "k", 7)})
		c.sendFrom("ghost", msg.KindTSInP, protocol.TSOpReq{Tuple: tpl})
		probe := c.send(msg.KindTSRdP, protocol.TSOpReq{Tuple: tpl})
		if resp := c.tsResp(out); !resp.OK {
			t.Fatalf("out: %+v", resp)
		}
		wantTuple(t, "probe after an undeliverable take", c.tsResp(probe), "k", 7)
	})
}

// TestParkedResolveDoesNotStallFollowingPut is the liveness test of
// TestParkedInDoesNotStallFollowingOut for the data plane: a DATA_RESOLVE
// parked on an unpublished key, then the DATA_PUT that answers it from the
// same node.
func TestParkedResolveDoesNotStallFollowingPut(t *testing.T) {
	onFabrics(t, func(t *testing.T, c *rawNode, jobID string) {
		resolve := c.send(msg.KindDataResolve, protocol.DataResolveReq{JobID: jobID, Key: "out/1", Task: "consumer", ParkMS: longPark})
		put := c.send(msg.KindDataPut, protocol.DataPutReq{JobID: jobID, Key: "out/1", Task: "producer",
			Node: "x", Digest: "d1", Size: 1 << 20})
		var ack, loc protocol.DataLocResp
		c.decode(c.await(put), &ack)
		if ack.Err != "" || ack.Closed {
			t.Fatalf("put behind a parked resolve: %+v", ack)
		}
		c.decode(c.await(resolve), &loc)
		if loc.Node != "x" || loc.Digest != "d1" || loc.Retry {
			t.Errorf("parked resolve answered %+v, want the published location", loc)
		}
	})
}

// TestDataPutRefusesSizeNobodyMayAllocate: an advert whose size no consumer
// may allocate is refused at the boundary — stored, it would end every
// resolve in a refused fetch and a re-run of its producer. An empty Put
// (size 0) and one of exactly MaxBlobBytes are adverts like any other.
func TestDataPutRefusesSizeNobodyMayAllocate(t *testing.T) {
	onFabrics(t, func(t *testing.T, c *rawNode, jobID string) {
		put := func(key string, size int64) protocol.DataLocResp {
			var ack protocol.DataLocResp
			c.decode(c.await(c.send(msg.KindDataPut, protocol.DataPutReq{JobID: jobID, Key: key, Task: "producer",
				Node: "x", Digest: "d-" + key, Size: size})), &ack)
			return ack
		}
		for _, size := range []int64{protocol.MaxBlobBytes + 1, -1} {
			if ack := put("huge", size); ack.Err == "" {
				t.Errorf("advert of %d bytes accepted: %+v", size, ack)
			}
		}
		for _, size := range []int64{0, protocol.MaxBlobBytes} {
			if ack := put("ok", size); ack.Err != "" || ack.Size != size {
				t.Errorf("advert of %d bytes: %+v", size, ack)
			}
		}
		// The refused key was never published: a resolve parks on it.
		resolve := c.send(msg.KindDataResolve, protocol.DataResolveReq{JobID: jobID, Key: "huge", Task: "consumer", ParkMS: 10})
		var loc protocol.DataLocResp
		c.decode(c.await(resolve), &loc)
		if !loc.Retry {
			t.Errorf("resolve of the refused key answered %+v, want Retry", loc)
		}
	})
}

// earlyNet is a fabric that delivers a frame to a node the moment its
// endpoint exists, while server.Start is still building the managers that
// will handle it — what a TCP peer can do as soon as the listener is up.
type earlyNet struct {
	transport.Network
	frame *msg.Message
}

func (n earlyNet) Attach(node string, h transport.Handler) (transport.Endpoint, error) {
	ep, err := n.Network.Attach(node, h)
	if err == nil {
		go h(n.frame)
		runtime.Gosched() // let the frame reach the handler before Start goes on
	}
	return ep, err
}

// TestFrameDuringStart: a frame that arrives while Start is still running
// is handled by the fully built server (run with -race: before the gate it
// read the caller and the managers while Start was assigning them).
func TestFrameDuringStart(t *testing.T) {
	for i := 0; i < 20; i++ {
		net := transport.NewIdealNetwork()
		pongs := make(chan *msg.Message, 1)
		if _, err := net.Attach("x", func(m *msg.Message) { pongs <- m }); err != nil {
			t.Fatal(err)
		}
		ping := msg.New(msg.KindPing, msg.Address{Node: "x"}, msg.Address{Node: "n1"}, nil)
		srv, err := server.Start(earlyNet{Network: net, frame: ping}, "n1", config.Config{Registry: testRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-pongs:
			if m.Kind != msg.KindPong || m.CorrelID != ping.ID {
				t.Errorf("early ping answered with %v", m)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("frame delivered during Start was never answered")
		}
		srv.Close()
		net.Close()
	}
}

// TestExecFrameStartsItsListAndReportsThroughTheOutbox: a node playing the
// JobManager assigns seven tasks and sends one EXEC_TASK listing eight. The
// seven run; the eighth — never assigned — fails alone; and everything the
// server has to say about it arrives as TASK_EVENTS batches, each task's
// STARTED ahead of its end, with no lifecycle label as the kind of a frame
// (the failure report used to be a bare TASK_FAILED sent from the dispatch
// goroutine, free to overtake events already queued).
func TestExecFrameStartsItsListAndReportsThroughTheOutbox(t *testing.T) {
	onFabrics(t, func(t *testing.T, c *rawNode, _ string) {
		const job = "x-job1"
		names := []string{"a", "b", "c", "d", "ghost", "e", "f", "g"}
		var items []protocol.TaskCreate
		for _, n := range names {
			if n != "ghost" {
				items = append(items, protocol.TaskCreate{Spec: &task.Spec{Name: n, Class: "srv.Noop",
					Req: task.Requirements{MemoryMB: 10, RunModel: task.RunAsThreadInTM}}})
			}
		}
		var assigned protocol.AssignTasksResp
		c.decode(c.await(c.send(msg.KindAssignTasks, protocol.AssignTasksReq{
			JobID: job, JobManager: "x", ClientNode: "x", Items: items})), &assigned)
		if len(assigned.Rejected) != 0 {
			t.Fatalf("assignment rejected: %v", assigned.Rejected)
		}
		c.send(msg.KindExecTask, protocol.ExecTaskReq{JobID: job, Tasks: names})

		started, ended := make(map[string]bool), make(map[string]msg.Kind)
		deadline := time.After(5 * time.Second)
		for frames := 0; len(ended) < len(names); frames++ {
			var m *msg.Message
			select {
			case m = <-c.in:
			case <-deadline:
				t.Fatalf("after %d frames: started %v, ended %v", frames, started, ended)
			}
			if m.Kind != msg.KindTaskEvents {
				t.Fatalf("a %s frame arrived, want only TASK_EVENTS", m.Kind)
			}
			var batch protocol.TaskEvents
			c.decode(m, &batch)
			if batch.JobID != job || batch.Node != "n1" || len(batch.Events) == 0 {
				t.Fatalf("batch %+v", batch)
			}
			for _, ev := range batch.Events {
				switch {
				case ev.Kind == msg.KindTaskStarted:
					started[ev.Task] = true
				case ev.Task == "ghost":
					if ev.Kind != msg.KindTaskFailed || ev.Err == "" {
						t.Errorf("ghost ended with %+v, want a TASK_FAILED naming the reason", ev)
					}
					ended[ev.Task] = ev.Kind
				case !started[ev.Task] || ev.Kind != msg.KindTaskCompleted:
					t.Errorf("%s ended with %s (started: %v)", ev.Task, ev.Kind, started[ev.Task])
					ended[ev.Task] = ev.Kind
				default:
					ended[ev.Task] = ev.Kind
				}
			}
		}
		if len(started) != len(names)-1 || started["ghost"] {
			t.Errorf("started %v, want the seven assigned tasks", started)
		}
	})
}
