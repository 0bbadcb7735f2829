package jobmgr_test

// The JobManager's half of the one-way Out contract, spoken on the raw wire:
// what is answered, what is counted, what is dropped.

import (
	"testing"
	"time"

	"cn/internal/config"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/tuplespace"
)

func TestOneWayOutIsAppliedCountedAndNotAnswered(t *testing.T) {
	srv, net := startNode(t, config.Config{})
	jm := srv.JobManager()
	c := newRawClient(t, net)
	id := c.open("oneway")
	tuple := func(n int) tuplespace.Tuple { return tuplespace.Tuple{"n", n} }
	ack := func(jobID string, req protocol.TSOpReq) protocol.TSOpResp {
		t.Helper()
		return decode[protocol.TSOpResp](t, c.call(msg.KindTSOut, jobID, req))
	}
	tsOps := func() int {
		t.Helper()
		p, ok := jm.JobProgress(id)
		if !ok {
			t.Fatal("no census")
		}
		return p.TSOps
	}
	// What the manager sent c1 that no call was waiting for: a reply to a
	// one-way Out would land here.
	unasked := func() {
		t.Helper()
		select {
		case m := <-c.inbox:
			t.Fatalf("the manager sent an unasked %v", m.Kind)
		case <-time.After(20 * time.Millisecond):
		}
	}
	replies := func() int64 { return net.Stats().KindCounts()[msg.KindTSReply.String()] }

	// 63 one-way Outs and the acknowledged 64th: one reply, 64 ops, and —
	// the reply having followed them on the link — 64 tuples stored.
	for n := 1; n < protocol.TSOutWindow; n++ {
		c.send(msg.KindTSOut, id, "", protocol.TSOpReq{Tuple: tuple(n), NoReply: true})
	}
	if resp := ack(id, protocol.TSOpReq{Tuple: tuple(protocol.TSOutWindow)}); !resp.OK {
		t.Fatalf("acknowledged out: %+v", resp)
	}
	if got := tsOps(); got != protocol.TSOutWindow {
		t.Errorf("ts_ops = %d after %d outs", got, protocol.TSOutWindow)
	}
	if got := replies(); got != 1 {
		t.Errorf("%d TS_REPLY for 63 one-way outs and one acknowledged, want 1", got)
	}
	unasked()

	// The barrier: answered, stores nothing, counts nothing.
	if resp := ack(id, protocol.TSOpReq{}); !resp.OK || len(resp.Tuple) != 0 {
		t.Fatalf("flush on a live job: %+v", resp)
	}
	if got := tsOps(); got != protocol.TSOutWindow {
		t.Errorf("ts_ops = %d after a flush, want %d still", got, protocol.TSOutWindow)
	}
	// A malformed one-way Out — no fields — is dropped, not stored.
	c.send(msg.KindTSOut, id, "", protocol.TSOpReq{NoReply: true})
	tpl := tuplespace.Tuple{tuplespace.Wildcard, tuplespace.Wildcard}
	for n := 0; n < protocol.TSOutWindow; n++ {
		resp := decode[protocol.TSOpResp](t, c.call(msg.KindTSInP, id, protocol.TSOpReq{Tuple: tpl}))
		if !resp.OK {
			t.Fatalf("tuple %d of %d missing: %+v", n+1, protocol.TSOutWindow, resp)
		}
	}
	if resp := decode[protocol.TSOpResp](t, c.call(msg.KindTSInP, id, protocol.TSOpReq{Tuple: tpl})); !resp.NoMatch {
		t.Fatalf("the space holds more than the %d tuples sent: %+v", protocol.TSOutWindow, resp)
	}

	// Cancelled underneath: one-way Outs are dropped without a word and
	// without a count; the acknowledged forms are told Closed.
	c.call(msg.KindCancelJob, id, protocol.CancelJobReq{JobID: id, Reason: "test"})
	counted, sent := tsOps(), replies()
	for n := 0; n < protocol.TSOutWindow-1; n++ {
		c.send(msg.KindTSOut, id, "", protocol.TSOpReq{Tuple: tuple(n), NoReply: true})
	}
	if resp := ack(id, protocol.TSOpReq{Tuple: tuple(0)}); !resp.Closed {
		t.Errorf("acknowledged out after cancel: %+v, want Closed", resp)
	}
	if resp := ack(id, protocol.TSOpReq{}); !resp.Closed {
		t.Errorf("flush after cancel: %+v, want Closed", resp)
	}
	if got := replies() - sent; got != 2 {
		t.Errorf("%d TS_REPLY after the cancel, want 2 (none for the 63 one-way outs)", got)
	}
	if got := tsOps(); got != counted {
		t.Errorf("ts_ops moved %d -> %d on a closed space", counted, got)
	}

	// A job nobody knows: the same, with the error in place of Closed.
	c.send(msg.KindTSOut, "n1-job999", "", protocol.TSOpReq{Tuple: tuple(1), NoReply: true})
	if resp := ack("n1-job999", protocol.TSOpReq{Tuple: tuple(1)}); resp.Err == "" || resp.Closed {
		t.Errorf("acknowledged out to an unknown job: %+v, want an error", resp)
	}
	if resp := ack("n1-job999", protocol.TSOpReq{}); resp.Err == "" {
		t.Errorf("flush to an unknown job: %+v, want an error", resp)
	}
	unasked()
}
