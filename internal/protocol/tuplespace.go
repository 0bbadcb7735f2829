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

// TSField kind tags: value fields for tuples, pattern fields for
// templates.
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

// TSField is one scalar field of a tuple or template on the wire.
type TSField struct {
	Kind  string
	S     string // TSString value, or TSTypeOf's type name
	I     int64  // TSInt / TSInt64 value
	F     float64
	B     bool
	Bytes []byte
}

// EncodeTuple flattens a tuple into wire fields. Only scalar field types
// (string, int, int64, float64, bool, []byte) are encodable, and a tuple
// has at least one field: everything a space would refuse a tuple for is
// refused here, before anything is sent.
func EncodeTuple(t tuplespace.Tuple) ([]TSField, error) {
	if len(t) == 0 {
		return nil, fmt.Errorf("protocol: empty tuple")
	}
	out := make([]TSField, len(t))
	for i, v := range t {
		f, err := encodeValue(v)
		if err != nil {
			return nil, fmt.Errorf("protocol: tuple field %d: %w", i, err)
		}
		out[i] = f
	}
	return out, nil
}

// DecodeTuple rebuilds a tuple from wire fields; like EncodeTuple, it
// refuses an empty one.
func DecodeTuple(fields []TSField) (tuplespace.Tuple, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("protocol: empty tuple")
	}
	out := make(tuplespace.Tuple, len(fields))
	for i, f := range fields {
		v, err := decodeValue(f)
		if err != nil {
			return nil, fmt.Errorf("protocol: tuple field %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// EncodeTemplate flattens a template into wire fields: concrete values
// plus Wildcard and TypeOf placeholders.
func EncodeTemplate(tpl tuplespace.Template) ([]TSField, error) {
	out := make([]TSField, len(tpl))
	for i, p := range tpl {
		switch {
		case tuplespace.IsWildcard(p):
			out[i] = TSField{Kind: TSWildcard}
		default:
			if name, ok := tuplespace.TypeName(p); ok {
				if name == "" {
					return nil, fmt.Errorf("protocol: template field %d: TypeOf of a non-scalar type", i)
				}
				out[i] = TSField{Kind: TSTypeOf, S: name}
				continue
			}
			f, err := encodeValue(p)
			if err != nil {
				return nil, fmt.Errorf("protocol: template field %d: %w", i, err)
			}
			out[i] = f
		}
	}
	return out, nil
}

// DecodeTemplate rebuilds a template from wire fields.
func DecodeTemplate(fields []TSField) (tuplespace.Template, error) {
	out := make(tuplespace.Template, len(fields))
	for i, f := range fields {
		switch f.Kind {
		case TSWildcard:
			out[i] = tuplespace.Wildcard
		case TSTypeOf:
			p, ok := tuplespace.TypeFromName(f.S)
			if !ok {
				return nil, fmt.Errorf("protocol: template field %d: unknown type %q", i, f.S)
			}
			out[i] = p
		default:
			v, err := decodeValue(f)
			if err != nil {
				return nil, fmt.Errorf("protocol: template field %d: %w", i, err)
			}
			out[i] = v
		}
	}
	return out, nil
}

func encodeValue(v any) (TSField, error) {
	switch x := v.(type) {
	case string:
		return TSField{Kind: TSString, S: x}, nil
	case int:
		return TSField{Kind: TSInt, I: int64(x)}, nil
	case int64:
		return TSField{Kind: TSInt64, I: x}, nil
	case float64:
		return TSField{Kind: TSFloat, F: x}, nil
	case bool:
		return TSField{Kind: TSBool, B: x}, nil
	case []byte:
		return TSField{Kind: TSBytes, Bytes: x}, nil
	}
	return TSField{}, fmt.Errorf("unsupported field type %T", v)
}

func decodeValue(f TSField) (any, error) {
	switch f.Kind {
	case TSString:
		return f.S, nil
	case TSInt:
		return int(f.I), nil
	case TSInt64:
		return f.I, nil
	case TSFloat:
		return f.F, nil
	case TSBool:
		return f.B, nil
	case TSBytes:
		return f.Bytes, nil
	}
	return nil, fmt.Errorf("unknown field kind %q", f.Kind)
}

// TSOpReq is the body of the KindTSOut / KindTSIn / KindTSRd / KindTSInP /
// KindTSRdP requests.
type TSOpReq struct {
	JobID    string
	FromTask string    // requesting task name, or "client"
	Fields   []TSField // the tuple (TS_OUT) or the template (other kinds)
	// ParkMS is how long a blocking op may park server-side before the
	// JobManager answers Retry (0 = ParkWindow).
	ParkMS int64
	// NoReply marks a one-way TS_OUT: the JobManager applies it and sends
	// nothing back, whatever the outcome. A TS_OUT without it and without
	// Fields stores nothing and is answered OK or Closed — the barrier
	// behind Flush. Other kinds ignore it.
	NoReply bool
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
	OK      bool      // the operation completed; Fields carries the tuple for In/Rd/InP/RdP
	Closed  bool      // the space is closed (job reached a terminal state)
	NoMatch bool      // a probe found no matching tuple
	Retry   bool      // a blocking op parked past its window; re-issue
	Err     string    // request-level failure (unknown job, bad encoding)
	Fields  []TSField // the matched tuple
}

// TSDoFunc performs one tuple-space wire call of the given kind with the
// given request body (JobID/FromTask are filled by the implementation) and
// returns the decoded reply. Implementations fail the call — rather than
// blocking forever — when the hosting JobManager does not answer within
// CallTimeout.
type TSDoFunc func(kind msg.Kind, req TSOpReq) (*TSOpResp, error)

// TSWire is one requester's wire attachment to a job's JobManager node — the
// single implementation of the send and call contracts of the job's tuple
// space and data-plane broker, which both the task runtime and the client
// API use. A requester builds it once and keeps it until the job's manager
// changes: it carries the requester's Out count, and a wire built for the
// adopter starts a new window. Safe for concurrent use.
type TSWire struct {
	JobID    string
	FromTask string
	From, To msg.Address
	// Trace is the span context calls carry on the envelope; zero when the
	// task is untraced.
	Trace trace.Context
	// Call performs the request/response round trip under ctx.
	Call func(ctx context.Context, toNode string, m *msg.Message) (*msg.Message, error)
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
// passed, whichever is first — the one deadline on the path, and what fails
// a call against a dead JobManager. A request of a kind that can park, once
// abandoned, sends a best-effort KindTSCancel naming it, so the JobManager
// withdraws the park — and puts a tuple a TS_IN matched late back into the
// space — instead of answering a dropped correlation.
func (w *TSWire) call(ctx context.Context, kind msg.Kind, body, resp any) error {
	m := Body(kind, w.From, w.To, body)
	m.Trace = w.Trace
	cctx, cancel := context.WithTimeout(ctx, CallTimeout)
	defer cancel()
	reply, err := w.Call(cctx, w.To.Node, m)
	if err != nil {
		if parks(kind) {
			cm := Body(msg.KindTSCancel, w.From, w.To, &TSCancelReq{JobID: w.JobID, ReqID: m.ID})
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
	req.JobID, req.FromTask = w.JobID, w.FromTask
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

// Out sends one tuple (EncodeTuple's output). It is one-way: the tuple is
// handed to the fabric, nil means it was queued, and the JobManager applies
// it before anything this requester sends it afterwards — except that every
// TSOutWindow-th Out on the wire takes the acknowledged path all other ops
// take, under ctx, and reports what the space answered. A refusal the
// one-way Outs before it met (space closed, job unknown) is permanent, so
// that is where the requester learns of it.
func (w *TSWire) Out(ctx context.Context, fields []TSField) error {
	if w.outs.Add(1)%TSOutWindow == 0 {
		return w.outAck(ctx, fields)
	}
	m := Body(msg.KindTSOut, w.From, w.To, &TSOpReq{JobID: w.JobID, FromTask: w.FromTask, Fields: fields, NoReply: true})
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

// outAck is the acknowledged TS_OUT: with fields the window's closing Out,
// without them the barrier alone.
func (w *TSWire) outAck(ctx context.Context, fields []TSField) error {
	resp, err := w.Do(ctx, msg.KindTSOut, TSOpReq{Fields: fields})
	if err != nil {
		return err
	}
	_, err = tsOutcome(resp)
	return err
}

// TSBlocking performs a wire In (KindTSIn) or Rd (KindTSRd), re-issuing
// the request each time the server's park window lapses without a match.
// The loop ends when a tuple arrives, the space closes, or do fails (the
// caller's cancellation and dead-JobManager deadlines surface there).
func TSBlocking(do TSDoFunc, kind msg.Kind, tpl tuplespace.Template) (tuplespace.Tuple, error) {
	fields, err := EncodeTemplate(tpl)
	if err != nil {
		return nil, err
	}
	for {
		resp, err := do(kind, TSOpReq{Fields: fields})
		if err != nil {
			return nil, err
		}
		if resp.Retry {
			continue
		}
		return tsOutcome(resp)
	}
}

// TSProbe performs a wire InP (KindTSInP) or RdP (KindTSRdP).
func TSProbe(do TSDoFunc, kind msg.Kind, tpl tuplespace.Template) (tuplespace.Tuple, error) {
	fields, err := EncodeTemplate(tpl)
	if err != nil {
		return nil, err
	}
	resp, err := do(kind, TSOpReq{Fields: fields})
	if err != nil {
		return nil, err
	}
	return tsOutcome(resp)
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
	if resp.Fields == nil {
		return nil, nil // Out acknowledgement
	}
	return DecodeTuple(resp.Fields)
}
