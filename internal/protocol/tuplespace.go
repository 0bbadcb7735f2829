// Tuple-space wire protocol: the per-job coordination spaces hosted on
// JobManagers ("CN also supports communication via tuple spaces"). Tuples
// and templates cross the wire as ordered scalar fields; blocking In/Rd
// requests park server-side against the space's waiters (as DATA_RESOLVE
// parks against the broker's, on the same TSWire) and are answered when a
// match arrives, bounded by a park window after which the server replies
// Retry and the caller re-issues — so a dead JobManager fails the
// call at the client-side deadline instead of hanging the task, and a
// tuple matched during the race between timeout and waiter removal is
// still delivered, never lost. Out is the exception to request/response: a
// tuple is sent, not called (TSWire.Out), and only every TSOutWindow-th one
// is acknowledged.

package protocol

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"cn/internal/msg"
	"cn/internal/trace"
	"cn/internal/tuplespace"
)

// ParkWindow is how long a request of a kind that can park — TS_IN, TS_RD,
// DATA_RESOLVE — may wait at the JobManager before it answers Retry and the
// caller re-issues. Shorter windows tighten cancellation latency; longer
// windows cost fewer round trips for long waits.
const ParkWindow = time.Second

// CallTimeout bounds one call on a TSWire. It exceeds ParkWindow by a grace
// margin so a parked call is answered rather than timed out, and it is the
// requester-side deadline that fails the call when the hosting JobManager
// is dead.
const CallTimeout = ParkWindow + 4*time.Second

// parkMargin is how much of the caller's remaining deadline a park must
// leave unspent: the JobManager answers Retry at the window's end and the
// reply still has to cross the wire before the caller gives up. A request
// parked past the caller's deadline would leave a waiter whose answer nobody
// consumes.
const parkMargin = 500 * time.Millisecond

// TSOutWindow is how many Outs a requester sends per acknowledged one: 63
// leave with no reply asked for, the 64th is an ordinary call. The
// acknowledged one is the flow control (a sequential requester never has
// more than TSOutWindow-1 tuples unacknowledged, so 64 such requesters fit
// the 4096-frame control lane of one peer pair before it could shed), the
// barrier (its TS_REPLY travels the same connection, so every earlier Out
// has been applied when it arrives) and the error report (a closed or
// unknown space refuses permanently, so the 64th is refused as the 63 were).
// A constant, not a knob: windows of 16, 64 and 256 measured the same on
// the tuple-space benchmark (CHANGES.md, PR 17).
const TSOutWindow = 64

// Field kind tags: which of a wire field's slots counts (wire.AppendTuple).
const (
	TSString   = "s"    // string value
	TSInt      = "i"    // int value
	TSInt64    = "i64"  // int64 value
	TSFloat    = "f"    // float64 value
	TSBool     = "b"    // bool value
	TSBytes    = "x"    // []byte value
	TSWildcard = "wild" // template: matches any field
	TSTypeOf   = "type" // template: matches any value of the named type
)

// CheckTuple refuses, before anything is sent, an empty tuple or one with a
// field that is not a string, int, int64, float64, bool or []byte.
func CheckTuple(t tuplespace.Tuple) error {
	if len(t) == 0 {
		return fmt.Errorf("protocol: empty tuple")
	}
	for i, v := range t {
		if !tuplespace.Scalar(v) {
			return fmt.Errorf("protocol: tuple field %d: unsupported field type %T", i, v)
		}
	}
	return nil
}

// CheckTemplate refuses a template with a field that is neither a scalar,
// the Wildcard, nor a TypeOf placeholder of a scalar type.
func CheckTemplate(tpl tuplespace.Template) error {
	for i, p := range tpl {
		if name, _ := tuplespace.TypeName(p); name == "" && !tuplespace.Scalar(p) && !tuplespace.IsWildcard(p) {
			return fmt.Errorf("protocol: template field %d: unsupported field type %T", i, p)
		}
	}
	return nil
}

// TSOpReq is the body of the KindTSOut / KindTSIn / KindTSRd / KindTSInP /
// KindTSRdP requests; the job and the requester are the envelope's To and From.
type TSOpReq struct {
	// Tuple is the tuple a TS_OUT stores, or the other kinds' template.
	Tuple tuplespace.Tuple
	// ParkMS is how long a blocking op may park server-side before the
	// JobManager answers Retry (0 = ParkWindow).
	ParkMS int64
	// NoReply marks a one-way TS_OUT: the JobManager applies it and sends
	// nothing back, whatever the outcome. A TS_OUT without it and without
	// a tuple stores nothing and is answered OK or Closed — the barrier
	// behind Flush. Other kinds ignore it.
	NoReply bool

	// Deprecated: JobID and FromTask do not travel; Fields, when Tuple is
	// nil, travels as the tuple it spells.
	JobID, FromTask string
	Fields          []TSField
}

// Deprecated: TSField is one field of TSOpReq.Fields; set TSOpReq.Tuple.
type TSField struct {
	Kind  string
	S     string
	I     int64
	F     float64
	B     bool
	Bytes []byte
}

// TSCancelReq is the body of KindTSCancel (requester -> JobManager): the
// requester of a parked request — TS_IN, TS_RD or DATA_RESOLVE — gave up
// (task cancelled, client context cancelled, node shutting down) and nobody
// will consume the reply. The JobManager withdraws the park; a tuple matched
// in the races around the cancellation is put back into the space instead
// of being sent to a dropped correlation. Best-effort: a lost cancel costs
// at most one park window of stale waiting.
type TSCancelReq struct {
	JobID string
	// ReqID is the original request message's ID; together with the
	// sending node it identifies the parked request.
	ReqID uint64
}

// TSOpResp is the body of KindTSReply. Exactly one of OK / Closed /
// NoMatch / Retry / Err describes the outcome.
type TSOpResp struct {
	OK      bool   // the operation completed; Tuple carries the tuple for In/Rd/InP/RdP
	Closed  bool   // the space is closed (job reached a terminal state)
	NoMatch bool   // a probe found no matching tuple
	Retry   bool   // a blocking op parked past its window; re-issue
	Err     string // request-level failure (unknown job, bad encoding)
	Tuple   tuplespace.Tuple
}

// TSDoFunc performs one tuple-space wire call of the given kind with the
// given request body and returns the decoded reply. Implementations fail
// the call — rather than blocking forever — when the hosting JobManager
// does not answer within CallTimeout.
type TSDoFunc func(kind msg.Kind, req TSOpReq) (*TSOpResp, error)

// TSWire is one requester's wire attachment to a job's JobManager node — the
// single implementation of the send and call contracts of the job's tuple
// space and data-plane broker, which both the task runtime and the client
// API use. A requester builds it once and keeps it until the job's manager
// changes: it carries the requester's Out count, and a wire built for the
// adopter starts a new window. Safe for concurrent use.
type TSWire struct {
	From, To msg.Address // the requester, and the job at its manager's node
	// Trace is the span context calls carry on the envelope; zero when the
	// task is untraced.
	Trace trace.Context
	// Call performs the round trips, passing CallTimeout as within.
	Call CallIntoFunc
	// Send queues a message that waits for no reply: a one-way Out, the
	// best-effort cancel notice.
	Send func(toNode string, m *msg.Message) error

	// outs counts the Outs sent on this wire; concurrent callers share it,
	// so between them at most TSOutWindow-1 tuples are unacknowledged, plus
	// TSOutWindow per caller blocked in an acknowledged Out.
	outs atomic.Uint64
}

// parks reports whether a request of kind can park at the JobManager.
func parks(kind msg.Kind) bool {
	return kind == msg.KindTSIn || kind == msg.KindTSRd || kind == msg.KindDataResolve
}

// parkMS is the ParkMS a request that can park asks for: ParkWindow, cut to
// what ctx's deadline leaves after parkMargin. Under 1 there is no room to
// park: a truncated 0 would read as "use the default window" at the
// JobManager.
func parkMS(ctx context.Context) int64 {
	ms := ParkWindow.Milliseconds()
	if dl, ok := ctx.Deadline(); ok {
		ms = min(ms, (time.Until(dl) - parkMargin).Milliseconds())
	}
	return ms
}

// call performs one acknowledged round trip: body sent as kind, the reply
// decoded into resp. It is abandoned when ctx is done or CallTimeout has
// passed, whichever is first — the Caller keeps the second deadline, and it
// is what fails a call against a dead JobManager. A request of a kind that
// can park, once abandoned, sends a best-effort KindTSCancel naming it, so
// the JobManager withdraws the park — and puts a tuple a TS_IN matched late
// back into the space — instead of answering a dropped correlation.
func (w *TSWire) call(ctx context.Context, kind msg.Kind, body, resp any) error {
	m := Body(kind, w.From, w.To, body)
	m.Trace = w.Trace
	reply, err := w.Call(ctx, w.To.Node, m, nil, CallTimeout)
	if err != nil {
		if parks(kind) {
			cm := Body(msg.KindTSCancel, w.From, w.To, &TSCancelReq{JobID: w.To.Job, ReqID: m.ID})
			_ = w.Send(w.To.Node, cm) // best-effort: a lost cancel costs one park window
		}
		return fmt.Errorf("%s: %w", kind, err)
	}
	if err := Decode(reply, resp); err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	return nil
}

// Do performs one acknowledged tuple-space op. An In or Rd asks for the
// window ctx leaves room for (parkMS); one with no room is refused unsent,
// since an In matched after its caller gave up takes a tuple nobody reads.
func (w *TSWire) Do(ctx context.Context, kind msg.Kind, req TSOpReq) (*TSOpResp, error) {
	if parks(kind) {
		if req.ParkMS = parkMS(ctx); req.ParkMS < 1 {
			return nil, fmt.Errorf("%s: %w", kind, context.DeadlineExceeded)
		}
	}
	var resp TSOpResp
	if err := w.call(ctx, kind, &req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Out sends one tuple, which CheckTuple accepted. It is one-way: the tuple is
// handed to the fabric, nil means it was queued, and the JobManager applies
// it before anything this requester sends it afterwards — except that every
// TSOutWindow-th Out on the wire takes the acknowledged path all other ops
// take, under ctx, and reports what the space answered. A refusal the
// one-way Outs before it met (space closed, job unknown) is permanent, so
// that is where the requester learns of it.
func (w *TSWire) Out(ctx context.Context, t tuplespace.Tuple) error {
	if w.outs.Add(1)%TSOutWindow == 0 {
		return w.outAck(ctx, t)
	}
	m := Body(msg.KindTSOut, w.From, w.To, &TSOpReq{Tuple: t, NoReply: true})
	m.Trace = w.Trace
	if err := w.Send(w.To.Node, m); err != nil {
		return fmt.Errorf("tuple-space %s: %w", msg.KindTSOut, err)
	}
	return nil
}

// Flush is the acknowledged barrier on demand: one round trip that stores
// nothing and counts no op. When it returns nil every earlier Out on this
// wire is in the space; a closed space answers tuplespace.ErrClosed.
func (w *TSWire) Flush(ctx context.Context) error {
	return w.outAck(ctx, nil)
}

// outAck is the acknowledged TS_OUT: the window's closing Out, or without a
// tuple the barrier alone.
func (w *TSWire) outAck(ctx context.Context, t tuplespace.Tuple) error {
	resp, err := w.Do(ctx, msg.KindTSOut, TSOpReq{Tuple: t})
	if err != nil {
		return err
	}
	_, err = tsOutcome(resp)
	return err
}

// TSMatch performs a wire In, Rd, InP or RdP, re-issuing the request each
// time the server's park window lapses without a match (only In and Rd
// park). The loop ends when a tuple arrives, the space closes or holds no
// match for a probe, or do fails (the caller's cancellation and
// dead-JobManager deadlines surface there).
func TSMatch(do TSDoFunc, kind msg.Kind, tpl tuplespace.Template) (tuplespace.Tuple, error) {
	if err := CheckTemplate(tpl); err != nil {
		return nil, err
	}
	for {
		resp, err := do(kind, TSOpReq{Tuple: tuplespace.Tuple(tpl)})
		if err != nil {
			return nil, err
		}
		if resp.Retry {
			continue
		}
		return tsOutcome(resp)
	}
}

// tsOutcome maps a definitive reply onto the tuplespace package's
// sentinel errors so wire and in-process spaces behave identically.
func tsOutcome(resp *TSOpResp) (tuplespace.Tuple, error) {
	switch {
	case resp.Closed:
		return nil, tuplespace.ErrClosed
	case resp.NoMatch:
		return nil, tuplespace.ErrNoMatch
	case resp.Err != "":
		return nil, fmt.Errorf("protocol: tuple-space op: %s", resp.Err)
	case !resp.OK:
		return nil, fmt.Errorf("protocol: tuple-space op: empty reply")
	}
	return resp.Tuple, nil // nil for an Out acknowledgement
}
