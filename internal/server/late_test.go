package server

import (
	"testing"

	"cn/internal/config"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/transport"
)

// TestLateReplyStartsNoGoroutine: a correlated reply no call waits for any
// more — a TS_REPLY after its call timed out, a TASKS_ASSIGNED after an
// assign timeout — is dropped on the delivering goroutine. A spawned
// dispatch (which has no case for it) would allocate its goroutine's
// closure; the drop allocates nothing.
func TestLateReplyStartsNoGoroutine(t *testing.T) {
	net := transport.NewIdealNetwork()
	defer net.Close()
	srv, err := Start(net, "n1", config.Config{HeartbeatInterval: -1, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	from, to := msg.Address{Node: "x", Task: protocol.ClientTaskName}, msg.Address{Node: "n1"}
	for _, kind := range []msg.Kind{msg.KindTSReply, msg.KindTasksAssigned, msg.KindJMAdopt} {
		late := protocol.Body(kind, from, to, protocol.TSOpResp{OK: true})
		late.CorrelID = 12345
		if n := testing.AllocsPerRun(100, func() { srv.handle(late) }); n != 0 {
			t.Errorf("a late %v allocates %.0f objects per delivery, want 0 (dropped inline)", kind, n)
		}
	}
}
