package protocol

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cn/internal/msg"
	"cn/internal/tuplespace"
)

// fakeManager is the JobManager end of a TSWire: it records every call and
// one-way frame, and answers a call with answer — or, when answer is nil,
// never, as a request parked past the caller's patience: the call ends with
// ctx or, with expire set, at once with the deadline error the Caller gives
// a call past its within.
type fakeManager struct {
	calls, sent []*msg.Message
	answer      func(m *msg.Message) *msg.Message
	expire      bool
}

func (f *fakeManager) wire() *TSWire {
	return &TSWire{
		From: msg.Address{Node: "tm", Job: "j", Task: "t"}, To: msg.Address{Node: "jm", Job: "j"},
		Call: func(ctx context.Context, _ string, m *msg.Message, _ []byte, within time.Duration) (*msg.Message, error) {
			f.calls = append(f.calls, m)
			if within != CallTimeout {
				return nil, fmt.Errorf("call bounded by %v, want CallTimeout", within)
			}
			if f.answer != nil {
				return f.answer(m), nil
			}
			if f.expire {
				return nil, fmt.Errorf("call %s: %w", m.Kind, context.DeadlineExceeded)
			}
			<-ctx.Done()
			return nil, ctx.Err()
		},
		Send: func(_ string, m *msg.Message) error {
			f.sent = append(f.sent, m)
			return nil
		},
	}
}

// parkMSOf reads the window a call asked for.
func parkMSOf(t *testing.T, m *msg.Message) int64 {
	t.Helper()
	if m.Kind == msg.KindDataResolve {
		var req DataResolveReq
		if err := Decode(m, &req); err != nil {
			t.Fatal(err)
		}
		return req.ParkMS
	}
	var req TSOpReq
	if err := Decode(m, &req); err != nil {
		t.Fatal(err)
	}
	return req.ParkMS
}

// blocking runs an In or Rd on w as the requesters do, re-issued on Retry.
func blocking(ctx context.Context, w *TSWire, kind msg.Kind) error {
	_, err := TSMatch(func(kind msg.Kind, req TSOpReq) (*TSOpResp, error) {
		return w.Do(ctx, kind, req)
	}, kind, tuplespace.Template{"k"})
	return err
}

// wireCalls are the calls of a TSWire, one per kind, each run under ctx.
var wireCalls = []struct {
	kind  msg.Kind
	parks bool
	run   func(ctx context.Context, w *TSWire) error
}{
	{msg.KindTSIn, true, func(ctx context.Context, w *TSWire) error { return blocking(ctx, w, msg.KindTSIn) }},
	{msg.KindTSRd, true, func(ctx context.Context, w *TSWire) error { return blocking(ctx, w, msg.KindTSRd) }},
	{msg.KindDataResolve, true, func(ctx context.Context, w *TSWire) error { _, err := w.Resolve(ctx, "k", "", ""); return err }},
	{msg.KindTSInP, false, func(ctx context.Context, w *TSWire) error { _, err := w.Do(ctx, msg.KindTSInP, TSOpReq{}); return err }},
	{msg.KindTSOut, false, func(ctx context.Context, w *TSWire) error { return w.Flush(ctx) }},
	{msg.KindDataPut, false, func(ctx context.Context, w *TSWire) error { return w.Put(ctx, "k", "d", 1, nil) }},
}

// TestAbandonedParkIsCancelled: one rule for every call on the wire — a
// call of a kind that can park, once abandoned (its caller cancelled it, or
// it outlived CallTimeout), sends one TS_CANCEL naming it; a call that
// cannot park sends nothing more.
func TestAbandonedParkIsCancelled(t *testing.T) {
	for _, c := range wireCalls {
		t.Run(c.kind.String(), func(t *testing.T) {
			for _, expire := range []bool{false, true} {
				t.Run(fmt.Sprintf("expired=%v", expire), func(t *testing.T) {
					abandoned(t, c.kind, c.parks, c.run, expire)
				})
			}
		})
	}
}

func abandoned(t *testing.T, kind msg.Kind, parks bool, run func(context.Context, *TSWire) error, expire bool) {
	f := &fakeManager{expire: expire}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	want := context.DeadlineExceeded
	if !expire {
		cancel()
		want = context.Canceled
	}
	if err := run(ctx, f.wire()); !errors.Is(err, want) {
		t.Fatalf("abandoned call: %v, want %v", err, want)
	}
	if len(f.calls) != 1 || f.calls[0].Kind != kind {
		t.Fatalf("calls %v, want one %s", f.calls, kind)
	}
	if !parks {
		if len(f.sent) != 0 {
			t.Errorf("a %s that cannot park sent %v when abandoned", kind, f.sent[0].Kind)
		}
		return
	}
	if len(f.sent) != 1 || f.sent[0].Kind != msg.KindTSCancel {
		t.Fatalf("abandoned %s sent %d frames, want one TS_CANCEL", kind, len(f.sent))
	}
	var req TSCancelReq
	if err := Decode(f.sent[0], &req); err != nil {
		t.Fatal(err)
	}
	if req.ReqID != f.calls[0].ID || req.JobID != "j" {
		t.Errorf("cancel %+v, want it to name request %d of job j", req, f.calls[0].ID)
	}
}

// TestParkAsksWhatTheDeadlineLeaves: every kind that can park asks for
// ParkWindow, cut to what the caller's deadline leaves after parkMargin. A
// deadline that leaves no whole millisecond fails an In or Rd unsent; a
// resolve destroys nothing, so it still goes out, asking for the shortest
// window, and a published key resolves.
func TestParkAsksWhatTheDeadlineLeaves(t *testing.T) {
	retryThenNothing := func(f *fakeManager) func(m *msg.Message) *msg.Message {
		return func(m *msg.Message) *msg.Message {
			f.answer = nil // the re-issue parks until the caller gives up
			if m.Kind == msg.KindDataResolve {
				return Reply(m, msg.KindDataLoc, DataLocResp{Retry: true})
			}
			return Reply(m, msg.KindTSReply, TSOpResp{Retry: true})
		}
	}
	for _, c := range wireCalls {
		if !c.parks {
			continue
		}
		t.Run(c.kind.String(), func(t *testing.T) {
			f := &fakeManager{}
			f.answer = retryThenNothing(f)
			ctx, cancel := context.WithTimeout(context.Background(), parkMargin+100*time.Millisecond)
			defer cancel()
			if err := c.run(ctx, f.wire()); err == nil {
				t.Fatal("a call the manager never answered succeeded")
			}
			if len(f.calls) == 0 {
				t.Fatal("nothing was asked")
			}
			for i, m := range f.calls {
				if ms := parkMSOf(t, m); ms < 1 || ms > 100 {
					t.Errorf("attempt %d asked for a %d ms park with 100 ms to spare", i, ms)
				}
			}

			f = &fakeManager{}
			if c.kind == msg.KindDataResolve {
				f.answer = func(m *msg.Message) *msg.Message {
					return Reply(m, msg.KindDataLoc, DataLocResp{Key: "k", Node: "p", Digest: "d", Size: 1})
				}
			}
			ctx, cancel = context.WithTimeout(context.Background(), parkMargin/2)
			defer cancel()
			err := c.run(ctx, f.wire())
			switch {
			case c.kind == msg.KindDataResolve:
				if err != nil || len(f.calls) != 1 || parkMSOf(t, f.calls[0]) != 1 {
					t.Errorf("a resolve of a published key with no room to park: %v after %d calls, want it sent with the shortest window", err, len(f.calls))
				}
			case !errors.Is(err, context.DeadlineExceeded) || len(f.calls) != 0:
				t.Errorf("a park the deadline has no room for: %v after %d calls, want it refused unsent", err, len(f.calls))
			}

			f = &fakeManager{}
			f.answer = retryThenNothing(f)
			ctx, cancel = context.WithCancel(context.Background())
			time.AfterFunc(20*time.Millisecond, cancel)
			c.run(ctx, f.wire())
			if ms := parkMSOf(t, f.calls[0]); ms != ParkWindow.Milliseconds() {
				t.Errorf("with no deadline a park asked for %d ms, want ParkWindow", ms)
			}
		})
	}
}
