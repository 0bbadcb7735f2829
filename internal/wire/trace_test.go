package wire

import (
	"reflect"
	"testing"

	"cn/internal/msg"
	"cn/internal/trace"
)

// TestTracedMessageRoundTrip: the optional trailing trace context must
// survive the envelope, and both size paths must account for it.
func TestTracedMessageRoundTrip(t *testing.T) {
	m := msg.New(msg.KindExecTask,
		msg.Address{Node: "n1", Job: "j"},
		msg.Address{Node: "n2", Job: "j", Task: "t1"},
		[]byte("payload"))
	m.Trace = trace.Context{TraceID: 0xdeadbeefcafe, SpanID: 42, ParentID: 7}

	frame, err := AppendFrame(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[FrameHeaderBytes:]
	if body[2] != Version {
		t.Fatalf("frame version byte %d, want %d", body[2], Version)
	}
	got, err := DecodeFrameBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("traced envelope mismatch:\n in: %+v\nout: %+v", m, got)
	}
	if got.Trace != m.Trace {
		t.Errorf("trace context %+v, want %+v", got.Trace, m.Trace)
	}
	if SizeOf(m) != len(body) {
		t.Errorf("SizeOf = %d, frame body is %d", SizeOf(m), len(body))
	}
	if EncodedSize(m) != len(body) {
		t.Errorf("EncodedSize = %d, frame body is %d", EncodedSize(m), len(body))
	}
}

// TestUntracedMessageAddsNoBytes: the zero context is free on the wire —
// the envelope must be byte-identical to the pre-trace layout.
func TestUntracedMessageAddsNoBytes(t *testing.T) {
	m := msg.New(msg.KindPing, msg.Address{Node: "a"}, msg.Address{Node: "b"}, []byte("x"))
	enc := AppendMessage(nil, m)
	traced := m.Clone()
	traced.Trace = trace.Context{TraceID: 1, SpanID: 1}
	tracedEnc := AppendMessage(nil, traced)
	if len(tracedEnc) != len(enc)+3 {
		t.Errorf("traced adds %d bytes, want 3 (one-byte uvarints)", len(tracedEnc)-len(enc))
	}
	got, err := decodeMessage(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Trace.IsZero() {
		t.Errorf("untraced envelope decoded trace %+v", got.Trace)
	}
}

// TestTruncatedTraceRejected: a partial trailing trace field is corruption,
// not an absent field.
func TestTruncatedTraceRejected(t *testing.T) {
	m := msg.New(msg.KindPing, msg.Address{Node: "a"}, msg.Address{Node: "b"}, nil)
	m.Trace = trace.Context{TraceID: 300, SpanID: 300, ParentID: 300} // two-byte uvarints
	enc := AppendMessage(nil, m)
	for cut := 1; cut <= 5; cut++ {
		if _, err := decodeMessage(enc[:len(enc)-cut], nil); err == nil {
			t.Errorf("envelope truncated by %d bytes decoded cleanly", cut)
		}
	}
}

// TestReplyCarriesTrace: the request's context must ride the response leg.
func TestReplyCarriesTrace(t *testing.T) {
	req := msg.New(msg.KindTSIn, msg.Address{Node: "a"}, msg.Address{Node: "b"}, nil)
	req.Trace = trace.Context{TraceID: 9, SpanID: 8, ParentID: 7}
	resp := req.Reply(msg.KindTSReply, nil)
	if resp.Trace != req.Trace {
		t.Errorf("reply trace %+v, want %+v", resp.Trace, req.Trace)
	}
}

// FuzzRoundTripTraceEnvelope: structured fuzzing of the extended envelope —
// any trace triple must round-trip exactly and match the arithmetic size.
func FuzzRoundTripTraceEnvelope(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), "n1", "j", []byte("p"))
	f.Add(uint64(1), uint64(2), uint64(3), "node-long-name", "", []byte(nil))
	f.Add(^uint64(0), ^uint64(0)>>1, uint64(1), "x", "job", []byte{0xff})
	f.Fuzz(func(t *testing.T, traceID, spanID, parentID uint64, node, job string, payload []byte) {
		m := &msg.Message{
			ID:      7,
			Kind:    msg.KindUser,
			From:    msg.Address{Node: node, Job: job},
			To:      msg.Address{Node: "dst"},
			Payload: payload,
			Trace:   trace.Context{TraceID: traceID, SpanID: spanID, ParentID: parentID},
		}
		enc := AppendMessage(nil, m)
		if want := SizeOf(m) - frameBodyMin; len(enc) != want {
			t.Fatalf("encoded %d bytes, SizeOf says %d", len(enc), want)
		}
		got, err := decodeMessage(enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Trace != m.Trace {
			t.Errorf("trace %+v, want %+v", got.Trace, m.Trace)
		}
	})
}
