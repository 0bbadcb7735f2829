package server

import (
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/transport"
	"cn/internal/tuplespace"
)

// BenchmarkInboundTSOut measures the inbound path of the smallest request
// the runtime serves: one op is a TS_OUT frame and the TS_INP that takes the
// tuple back out, each pushed through Server.handle as the in-memory fabric
// would deliver it (decode, space op, TS_REPLY encoded and queued to the
// requester). Run with -benchmem: allocs/op is the per-message budget.
func BenchmarkInboundTSOut(b *testing.B) {
	net := transport.NewIdealNetwork()
	defer net.Close()
	srv, err := Start(net, Config{Node: "n1", HeartbeatInterval: -1, CheckpointEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	var replies atomic.Int64
	created := make(chan *msg.Message, 1)
	if _, err := net.Attach("x", func(m *msg.Message) {
		if m.Kind == msg.KindTSReply {
			replies.Add(1)
			return
		}
		created <- m
	}); err != nil {
		b.Fatal(err)
	}
	from, to := msg.Address{Node: "x", Task: protocol.ClientTaskName}, msg.Address{Node: "n1"}
	srv.handle(protocol.Body(msg.KindCreateJob, from, to, protocol.CreateJobReq{Name: "bench", ClientNode: "x"}))
	var job protocol.CreateJobResp
	if err := protocol.Decode(<-created, &job); err != nil {
		b.Fatal(err)
	}
	tuple, err := protocol.EncodeTuple(tuplespace.Tuple{"res", 7, 49})
	if err != nil {
		b.Fatal(err)
	}
	tpl, err := protocol.EncodeTemplate(tuplespace.Template{"res", tuplespace.TypeOf(0), tuplespace.TypeOf(0)})
	if err != nil {
		b.Fatal(err)
	}
	out := msg.MustEncode(&protocol.TSOpReq{JobID: job.JobID, FromTask: "w1", Fields: tuple})
	inp := msg.MustEncode(&protocol.TSOpReq{JobID: job.JobID, FromTask: "w1", Fields: tpl})

	// The reply lane sheds past its cap instead of blocking; pause at each
	// window until the requester has drained what was sent.
	const window = 1024
	drain := func(want int64) {
		for replies.Load() < want {
			time.Sleep(50 * time.Microsecond)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.handle(msg.New(msg.KindTSOut, from, to, out))
		srv.handle(msg.New(msg.KindTSInP, from, to, inp))
		if i%window == window-1 {
			drain(2 * int64(i+1))
		}
	}
	drain(2 * int64(b.N))
}
