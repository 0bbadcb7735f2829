// Tuple-space host side: each job's coordination space lives with its
// JobManager, and every task in the job (plus the client) reaches it over
// the wire through the TS_* request kinds. Every op runs to completion on
// the goroutine that delivered it: Out applies at once and answers only when
// the requester asked (one in protocol.TSOutWindow does), the probes answer
// at once; a blocking In/Rd is a try-then-park request (park.go): it tries
// its match and, failing that, registers a waiter with the space — no
// goroutine waits. The registered op is answered later by whichever event
// claims its waiter: the Out that supplies a match (on that Out's
// goroutine), the space closing at job termination (ErrClosed), or the park
// window's timer (Retry, re-issued by the caller).

package jobmgr

import (
	"errors"

	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/tuplespace"
	"cn/internal/wire"
)

// HandleTSOp processes one tuple-space request (KindTSOut, KindTSIn,
// KindTSRd, KindTSInP, KindTSRdP) against the space of m.To.Job and sends
// the KindTSReply itself — at once, or for a blocking op that had to park,
// from whichever goroutine later answers it; a one-way TS_OUT gets none. It
// never blocks: the server runs it on the endpoint's delivering goroutine.
func (jm *JobManager) HandleTSOp(m *msg.Message) {
	var req protocol.TSOpReq
	if err := wire.UnmarshalTSOpReq(m.Payload, &req); err != nil {
		jm.tsReply(nil, m, &protocol.TSOpResp{Err: "bad tuple-space request: " + err.Error()}, false)
		return
	}
	j, t := jm.lookup(m.To.Job)
	if m.Kind == msg.KindTSOut {
		jm.tsOut(j, t != nil, m, &req)
		return
	}
	if j == nil {
		jm.tsReply(nil, m, jm.tsGone(m.To.Job, t != nil), false)
		return
	}

	tpl := tuplespace.Template(req.Tuple)
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
		jm.tsReply(j, m, &protocol.TSOpResp{Err: "unsupported tuple-space kind " + m.Kind.String()}, false)
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
		resp = jm.tsGone(m.To.Job, retired)
	case len(req.Tuple) == 0 && !req.NoReply:
		closed := j.space.Closed()
		resp = &protocol.TSOpResp{OK: !closed, Closed: closed}
		j = nil // tsReply counts ops per job; a barrier is not one
	default:
		err := protocol.CheckTuple(req.Tuple)
		if err == nil {
			err = j.space.Keep(req.Tuple)
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
		jm.log.Debug("one-way tuple-space out dropped", "job", m.To.Job, "from", m.From.Node,
			"closed", resp.Closed, "err", resp.Err)
		return
	}
	jm.tsReply(j, m, resp, false)
}

// tsBlocking runs a TS_IN/TS_RD: registered in the park table, its match
// attempt and, failing that, its waiter happen here on the delivering
// goroutine; a hit answers at once, a waiter is answered by the Out or Close
// that claims it or by the park window's Retry.
func (jm *JobManager) tsBlocking(j *jobState, m *msg.Message, req *protocol.TSOpReq, tpl tuplespace.Template) {
	p := jm.parked.register(m)
	if p == nil {
		return // the requester's cancel outran the request
	}
	take := m.Kind == msg.KindTSIn
	t, w, err := j.space.Await(tpl, take, func(t tuplespace.Tuple, err error) { jm.tsFinish(p, j, m, t, err, take) })
	if w == nil {
		jm.tsFinish(p, j, m, t, err, take)
		return
	}
	jm.parked.hold(p, req.ParkMS, func() bool { return j.space.Cancel(w) },
		func() { jm.tsReply(j, m, &protocol.TSOpResp{Retry: true}, false) })
}

// tsFinish answers a blocking op with the outcome of its match — unless
// its requester cancelled it, in which case nobody holds the correlation:
// a tuple matched in the races around the cancel must not leave on the
// wire, and a destructively taken one goes back for the live workers.
func (jm *JobManager) tsFinish(p *park, j *jobState, m *msg.Message, t tuplespace.Tuple, err error, take bool) {
	if !jm.parked.done(p) {
		if err == nil && take {
			if oerr := j.space.Keep(t); oerr == nil {
				jm.logf("job %s: returned tuple %s after cancelled park from %s", j.id, t, m.From.Node)
			}
		}
		return
	}
	jm.tsAnswer(j, m, t, err, take)
}

// tsAnswer replies to a matching op (In/Rd/InP/RdP) with its tuple or its
// error.
func (jm *JobManager) tsAnswer(j *jobState, m *msg.Message, t tuplespace.Tuple, err error, take bool) {
	if err != nil {
		jm.tsReply(j, m, tsErrResp(err), false)
		return
	}
	jm.tsReply(j, m, &protocol.TSOpResp{OK: true, Tuple: t}, take)
}

// tsReply sends one KindTSReply. taken says that resp's tuple is one a
// destructive op (TS_IN / TS_INP) removed to produce it: when the send itself
// fails — the requester's node died between parking and wakeup, so a stale
// waiter consumed the tuple and the fabric rejected the answer — it goes
// back into the space, or it would be lost to every live worker; with the
// put-back the take degrades to a no-op and a surviving (or re-placed)
// worker matches the tuple instead. A reply lost in flight after a
// successful send is the fabric's documented at-most-once semantics.
func (jm *JobManager) tsReply(j *jobState, m *msg.Message, resp *protocol.TSOpResp, taken bool) {
	if j != nil && (resp.OK || resp.NoMatch) {
		j.tsOps.Add(1)
	}
	err := jm.send(m.From.Node, protocol.Reply(m, msg.KindTSReply, resp))
	if err == nil {
		return
	}
	jm.logf("ts reply to %s: %v", m.From.Node, err)
	if !taken || !resp.OK {
		return
	}
	// A closed space (job already terminal) rejects the put-back; nothing
	// is waiting on it anymore.
	if oerr := j.space.Keep(resp.Tuple); oerr == nil {
		jm.logf("job %s: returned tuple %s after undeliverable %s reply to %s", j.id, resp.Tuple, m.Kind, m.From.Node)
	}
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
