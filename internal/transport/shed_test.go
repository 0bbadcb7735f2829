package transport_test

import (
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/config"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/server"
	"cn/internal/transport"
	"cn/internal/tuplespace"
)

// TestShedReplyPutsTheTupleBack: a TS_REPLY the control lane sheds is a
// failed send, not a silent loss, so the JobManager puts the tuple a parked
// In destructively took for it back into the space.
func TestShedReplyPutsTheTupleBack(t *testing.T) {
	transport.TightenControlLane(t, 4)
	net := transport.NewMemNetwork(transport.MemConfig{QueueLen: 1})
	defer net.Close()
	srv, err := server.Start(net, "n1", config.Config{HeartbeatInterval: -1, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// x is the requester whose reply will be shed: once wedged, its handler
	// stops returning, its one-deep inbox fills, the JobManager's writer to
	// it blocks, and the four-frame lane behind that fills.
	var wedged atomic.Bool
	gate := make(chan struct{})
	defer close(gate)
	attach := func(node string, stall *atomic.Bool) (transport.Endpoint, chan *msg.Message) {
		in := make(chan *msg.Message, 64)
		ep, err := net.Attach(node, func(m *msg.Message) {
			if stall != nil && stall.Load() {
				<-gate
			}
			in <- m
		})
		if err != nil {
			t.Fatal(err)
		}
		return ep, in
	}
	x, xin := attach("x", &wedged)
	y, yin := attach("y", nil)
	var jobID string // the job tuple-space requests are addressed to, once created
	send := func(ep transport.Endpoint, kind msg.Kind, body any) {
		t.Helper()
		from, to := msg.Address{Node: ep.Node(), Task: protocol.ClientTaskName}, msg.Address{Node: "n1", Job: jobID}
		m := msg.New(kind, from, to, nil)
		if body != nil {
			m = protocol.Body(kind, from, to, body)
		}
		if err := ep.Send("n1", m); err != nil {
			t.Fatalf("%s: send %v: %v", ep.Node(), kind, err)
		}
	}
	next := func(in chan *msg.Message, kind msg.Kind) *msg.Message {
		t.Helper()
		select {
		case m := <-in:
			if m.Kind != kind {
				t.Fatalf("got %v, want %v", m.Kind, kind)
			}
			return m
		case <-time.After(5 * time.Second):
			t.Fatalf("no %v", kind)
			return nil
		}
	}

	send(x, msg.KindCreateTasks, protocol.CreateTasksReq{JobID: "x.shed", ClientNode: "x", Name: "shed"})
	next(xin, msg.KindTasksAccepted)
	jobID = "x.shed"
	tpl := tuplespace.Tuple{"k", tuplespace.TypeOf(0)}
	// Park x's In; the ping behind it on the same link says it registered.
	send(x, msg.KindTSIn, protocol.TSOpReq{Tuple: tpl, ParkMS: 4000})
	send(x, msg.KindPing, nil)
	next(xin, msg.KindPong)

	wedged.Store(true)
	stats := net.Stats()
	for i := 0; stats.ControlDrops.Load() == 0; i++ {
		if i == 1000 {
			t.Fatal("the lane to the wedged requester never shed")
		}
		send(x, msg.KindPing, nil)
		time.Sleep(time.Millisecond)
	}
	shed := stats.ControlDrops.Load()

	// y's Out satisfies the parked In; the reply to x cannot be queued.
	send(y, msg.KindTSOut, protocol.TSOpReq{Tuple: tuplespace.Tuple{"k", 7}})
	var resp protocol.TSOpResp
	if err := protocol.Decode(next(yin, msg.KindTSReply), &resp); err != nil || !resp.OK {
		t.Fatalf("out: %+v, %v", resp, err)
	}
	if got := stats.ControlDrops.Load(); got != shed+1 {
		t.Fatalf("control drops went %d -> %d across the Out, want one shed reply", shed, got)
	}
	send(y, msg.KindTSRdP, protocol.TSOpReq{Tuple: tpl})
	resp = protocol.TSOpResp{}
	if err := protocol.Decode(next(yin, msg.KindTSReply), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Tuple) != 2 || resp.Tuple[1] != 7 {
		t.Fatalf("the tuple taken for the shed reply is gone: probe answered %+v", resp)
	}
}
