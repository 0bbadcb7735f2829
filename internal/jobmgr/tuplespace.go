// Tuple-space host side: each job's coordination space lives with its
// JobManager, and every task in the job (plus the client) reaches it over
// the wire through the TS_* request kinds. Every op runs to completion on
// the goroutine that delivered it: Out applies at once and answers only when
// the requester asked (one in protocol.TSOutWindow does), the probes answer
// at once; a blocking In/Rd tries its match and, failing that, registers a
// waiter with the space — no goroutine waits. The registered op is answered later by
// whichever event claims its waiter: the Out that supplies a match (on that
// Out's goroutine), the space closing at job termination (ErrClosed), or
// the park window's timer (Retry, re-issued by the caller).

package jobmgr

import (
	"errors"
	"sync"
	"time"

	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/tuplespace"
)

// Park-window clamps: a caller-supplied window is bounded so a malformed
// request can neither spin the requester's retry loop nor stay parked past
// every caller's wire deadline. The upper bound stays under TSCallTimeout
// with room for the reply to travel — a park that outlives the caller's
// call would answer a dropped correlation, and for TS_IN that destroys the
// matched tuple.
const (
	minTSPark = 10 * time.Millisecond
	maxTSPark = protocol.TSCallTimeout - 2*time.Second
)

// parkTimer bounds one registered park with a single timer. The event that
// answers the park may run before the registering goroutine has started
// the timer; stop-before-start leaves the timer unstarted.
type parkTimer struct {
	mu      sync.Mutex
	t       *time.Timer
	stopped bool
}

// start arms the window unless the park was already answered; lapse runs
// on the timer's goroutine.
func (p *parkTimer) start(window time.Duration, lapse func()) {
	p.mu.Lock()
	if !p.stopped {
		p.t = time.AfterFunc(window, lapse)
	}
	p.mu.Unlock()
}

func (p *parkTimer) stop() {
	p.mu.Lock()
	p.stopped = true
	if p.t != nil {
		p.t.Stop()
	}
	p.mu.Unlock()
}

// tsParkKey identifies a parked op by requester node + request message ID
// (message IDs are only unique per producing process).
type tsParkKey struct {
	node string
	id   uint64
}

// tsPark is one blocking op from registration to answer, indexed so a
// KindTSCancel from the requester can abort it: the requester gave up
// (cancelled task, cancelled client context), nobody holds the correlation
// anymore, and a tuple destructively matched after that point must go back
// into the space rather than onto the wire.
type tsPark struct {
	key   tsParkKey
	j     *jobState
	req   *msg.Message
	take  bool // TS_IN (destructive) vs TS_RD
	timer parkTimer

	// Guarded by tsParks.mu.
	waiter  *tuplespace.Waiter
	aborted bool
}

// tsParks indexes in-flight blocking ops. An op registers on the goroutine
// that delivered it, so on one connection a requester's cancel can no
// longer overtake its own op; across two (a requester that re-dialed in
// between) it still can, and such early cancels are remembered as
// tombstones the op consumes at registration.
type tsParks struct {
	mu      sync.Mutex
	m       map[tsParkKey]*tsPark
	aborted map[tsParkKey]time.Time
}

// tsAbortedCap bounds the early-cancel tombstone set; past it, entries
// older than any in-flight call could be are swept.
const tsAbortedCap = 1024

// add registers an op before it touches the space. It reports true when
// the requester's cancel already arrived; the caller must not match, park
// or reply.
func (ps *tsParks) add(p *tsPark) (preAborted bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.m == nil {
		ps.m = make(map[tsParkKey]*tsPark)
		ps.aborted = make(map[tsParkKey]time.Time)
	}
	if _, ok := ps.aborted[p.key]; ok {
		delete(ps.aborted, p.key)
		return true
	}
	ps.m[p.key] = p
	return false
}

// setWaiter records the space waiter of an op that had to park, so an
// abort can withdraw it. It reports true when the abort already happened
// and found no waiter to withdraw; the caller withdraws it instead.
func (ps *tsParks) setWaiter(p *tsPark, w *tuplespace.Waiter) (aborted bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	p.waiter = w
	return p.aborted
}

// release retires an op that is about to be answered and reports whether
// its requester cancelled it first. The aborted flag is read under the
// same lock abort sets it under, so once abort returns, any answer still
// in flight is guaranteed to observe it and put a destructively taken
// tuple back instead of replying to the dropped correlation.
func (ps *tsParks) release(p *tsPark) (aborted bool) {
	ps.mu.Lock()
	if ps.m[p.key] == p {
		delete(ps.m, p.key)
	}
	aborted = p.aborted
	ps.mu.Unlock()
	p.timer.stop()
	return aborted
}

// abort cancels an op on the requester's behalf. An op not (yet)
// registered leaves a tombstone so an out-of-order registration aborts
// itself immediately.
func (ps *tsParks) abort(key tsParkKey) {
	ps.mu.Lock()
	p, ok := ps.m[key]
	if !ok {
		if ps.aborted == nil {
			ps.aborted = make(map[tsParkKey]time.Time)
		}
		ps.aborted[key] = time.Now()
		if len(ps.aborted) > tsAbortedCap {
			cutoff := time.Now().Add(-2 * protocol.TSCallTimeout)
			for k, at := range ps.aborted {
				if at.Before(cutoff) {
					delete(ps.aborted, k)
				}
			}
		}
		ps.mu.Unlock()
		return
	}
	p.aborted = true
	delete(ps.m, key)
	w := p.waiter
	ps.mu.Unlock()
	p.timer.stop()
	if w != nil {
		// Withdrawn: no answer will ever run. Otherwise one is in flight
		// and sees the aborted flag.
		p.j.space.Cancel(w)
	}
}

// HandleTSOp processes one tuple-space request (KindTSOut, KindTSIn,
// KindTSRd, KindTSInP, KindTSRdP) against the owning job's space and sends
// the KindTSReply itself — at once, or for a blocking op that had to park,
// from whichever goroutine later answers it; a one-way TS_OUT gets none. It
// never blocks: the server runs it on the endpoint's delivering goroutine.
func (jm *JobManager) HandleTSOp(m *msg.Message) {
	var req protocol.TSOpReq
	if err := protocol.Decode(m, &req); err != nil {
		jm.tsReply(nil, m, &protocol.TSOpResp{Err: "bad tuple-space request: " + err.Error()}, nil)
		return
	}
	j, t := jm.lookup(req.JobID)
	if m.Kind == msg.KindTSOut {
		jm.tsOut(j, t != nil, m, &req)
		return
	}
	if j == nil {
		jm.tsReply(nil, m, jm.tsGone(req.JobID, t != nil), nil)
		return
	}

	tpl, err := protocol.DecodeTemplate(req.Fields)
	if err != nil {
		jm.tsReply(j, m, &protocol.TSOpResp{Err: err.Error()}, nil)
		return
	}
	switch m.Kind {
	case msg.KindTSInP:
		t, err := j.space.InP(tpl)
		jm.tsAnswer(j, m, t, err, true)
	case msg.KindTSRdP:
		t, err := j.space.RdP(tpl)
		jm.tsAnswer(j, m, t, err, false)
	case msg.KindTSIn, msg.KindTSRd:
		jm.tsBlocking(j, m, &req, tpl)
	default:
		jm.tsReply(j, m, &protocol.TSOpResp{Err: "unsupported tuple-space kind " + m.Kind.String()}, nil)
	}
}

// tsGone is the answer for a job this manager does not host: a retired
// job's space answers as the closed space it was, any other id is unknown.
func (jm *JobManager) tsGone(jobID string, retired bool) *protocol.TSOpResp {
	if retired {
		return &protocol.TSOpResp{Closed: true}
	}
	return &protocol.TSOpResp{Err: jm.errUnknownJob(jobID).Error()}
}

// tsOut applies a TS_OUT: one pass over the space, which also answers the
// parked ops the tuple satisfies. The requester is answered only if it
// asked. A one-way Out that is refused is dropped with a debug line and not
// counted — the refusals a well-formed Out can meet (space closed, job
// unknown) are permanent, so the requester's next acknowledged op is told
// the same. An acknowledged TS_OUT with no fields is the requester's
// barrier (Flush): on a per-connection FIFO its reply follows every Out
// sent before it; it stores nothing and counts no op.
func (jm *JobManager) tsOut(j *jobState, retired bool, m *msg.Message, req *protocol.TSOpReq) {
	var resp *protocol.TSOpResp
	switch {
	case j == nil:
		resp = jm.tsGone(req.JobID, retired)
	case len(req.Fields) == 0 && !req.NoReply:
		closed := j.space.Closed()
		resp = &protocol.TSOpResp{OK: !closed, Closed: closed}
		j = nil // tsReply counts ops per job; a barrier is not one
	default:
		t, err := protocol.DecodeTuple(req.Fields)
		if err == nil {
			err = j.space.Out(t)
		}
		if err == nil && req.NoReply {
			j.tsOps.Add(1)
			return
		}
		resp = &protocol.TSOpResp{OK: true}
		if err != nil {
			resp = tsErrResp(err)
		}
	}
	if req.NoReply {
		jm.log.Debug("one-way tuple-space out dropped", "job", req.JobID, "from", m.From.Node,
			"closed", resp.Closed, "err", resp.Err)
		return
	}
	jm.tsReply(j, m, resp, nil)
}

// tsBlocking runs a TS_IN/TS_RD: the match attempt and, failing that, the
// waiter and park registration happen here on the delivering goroutine; a
// hit answers at once, a registered waiter is answered by the Out or Close
// that claims it or by the window's timer.
func (jm *JobManager) tsBlocking(j *jobState, m *msg.Message, req *protocol.TSOpReq, tpl tuplespace.Template) {
	p := &tsPark{
		key:  tsParkKey{node: m.From.Node, id: m.ID},
		j:    j,
		req:  m,
		take: m.Kind == msg.KindTSIn,
	}
	if jm.parked.add(p) {
		// The requester's cancel outran the request; don't take, don't
		// park, don't reply.
		return
	}
	t, w, err := j.space.Await(tpl, p.take, func(t tuplespace.Tuple, err error) { jm.tsFinish(p, t, err) })
	if w == nil {
		jm.tsFinish(p, t, err)
		return
	}
	if jm.parked.setWaiter(p, w) {
		j.space.Cancel(w)
		return
	}
	window := time.Duration(req.ParkMS) * time.Millisecond
	if window <= 0 {
		window = protocol.TSParkWindow
	}
	p.timer.start(min(max(window, minTSPark), maxTSPark), func() {
		// Parked past the window without a match; the caller re-issues,
		// which is also its liveness probe against this JobManager.
		if j.space.Cancel(w) && !jm.parked.release(p) {
			jm.tsReply(j, m, &protocol.TSOpResp{Retry: true}, nil)
		}
	})
}

// tsFinish answers a blocking op with the outcome of its match — unless
// its requester cancelled it, in which case nobody holds the correlation:
// a tuple matched in the races around the abort must not leave on the
// wire, and a destructively taken one goes back for the live workers.
func (jm *JobManager) tsFinish(p *tsPark, t tuplespace.Tuple, err error) {
	if jm.parked.release(p) {
		if err == nil && p.take {
			if oerr := p.j.space.Out(t); oerr == nil {
				jm.logf("job %s: returned tuple %s after cancelled park from %s", p.j.id, t, p.key.node)
			}
		}
		return
	}
	jm.tsAnswer(p.j, p.req, t, err, p.take)
}

// tsAnswer replies to a matching op (In/Rd/InP/RdP) with its tuple or its
// error.
func (jm *JobManager) tsAnswer(j *jobState, m *msg.Message, t tuplespace.Tuple, err error, take bool) {
	if err != nil {
		jm.tsReply(j, m, tsErrResp(err), nil)
		return
	}
	var taken tuplespace.Tuple
	if take {
		taken = t
	}
	jm.tsReply(j, m, tsTupleResp(t), taken)
}

// tsReply sends one KindTSReply. taken is the tuple a destructive op
// (TS_IN / TS_INP) removed to produce this reply: when the send itself
// fails — the requester's node died between parking and wakeup, so a stale
// waiter consumed the tuple and the fabric rejected the answer — it goes
// back into the space, or it would be lost to every live worker; with the
// put-back the take degrades to a no-op and a surviving (or re-placed)
// worker matches the tuple instead. A reply lost in flight after a
// successful send is the fabric's documented at-most-once semantics.
func (jm *JobManager) tsReply(j *jobState, m *msg.Message, resp *protocol.TSOpResp, taken tuplespace.Tuple) {
	if j != nil && (resp.OK || resp.NoMatch) {
		j.tsOps.Add(1)
	}
	err := jm.send(m.From.Node, m.Reply(msg.KindTSReply, msg.MustEncode(resp)))
	if err == nil {
		return
	}
	jm.logf("ts reply to %s: %v", m.From.Node, err)
	if taken == nil || !resp.OK {
		return
	}
	// A closed space (job already terminal) rejects the put-back; nothing
	// is waiting on it anymore.
	if oerr := j.space.Out(taken); oerr == nil {
		jm.logf("job %s: returned tuple %s after undeliverable %s reply to %s", j.id, taken, m.Kind, m.From.Node)
	}
}

// HandleTSCancel processes a requester's notice that it abandoned a
// parked blocking op. No reply: the requester already moved on.
func (jm *JobManager) HandleTSCancel(m *msg.Message) {
	var req protocol.TSCancelReq
	if err := protocol.Decode(m, &req); err != nil {
		jm.logf("bad ts-cancel: %v", err)
		return
	}
	jm.parked.abort(tsParkKey{node: m.From.Node, id: req.ReqID})
}

func tsErrResp(err error) *protocol.TSOpResp {
	switch {
	case errors.Is(err, tuplespace.ErrClosed):
		return &protocol.TSOpResp{Closed: true}
	case errors.Is(err, tuplespace.ErrNoMatch):
		return &protocol.TSOpResp{NoMatch: true}
	}
	return &protocol.TSOpResp{Err: err.Error()}
}

func tsTupleResp(t tuplespace.Tuple) *protocol.TSOpResp {
	fields, err := protocol.EncodeTuple(t)
	if err != nil {
		// Stored tuples were wire-encodable on the way in; this is a
		// programming error, surfaced rather than panicking the handler.
		return &protocol.TSOpResp{Err: err.Error()}
	}
	return &protocol.TSOpResp{OK: true, Fields: fields}
}
