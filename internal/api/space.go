// Client-side view of a job's coordination tuple space. The space itself
// lives with the hosting JobManager; this handle routes every operation
// over the wire, so the client coordinates with the job's tasks through
// the same space they use among themselves — seeding a bag of tasks,
// collecting results, posting poison pills.

package api

import (
	"context"
	"fmt"

	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/tuplespace"
)

// Space is the client's handle on a job's tuple space. Obtain one with
// Job.Space; it stays valid for the life of the job. Once the handle has
// seen the job reach a terminal state, or was released, every operation
// fails with tuplespace.ErrClosed without sending anything: the space
// closed with the job. All Space values of one job, and every goroutine
// using them, share one attachment to the job's manager and its Out window.
type Space struct {
	job *Job
}

// Space returns the handle on the job's coordination tuple space.
func (j *Job) Space() *Space { return &Space{job: j} }

// tsWire returns the job's protocol.TSWire attachment, built once per
// manager node — each attempt of an operation asks again, so blocking
// retries follow a mid-operation job adoption to the survivor — or
// tuplespace.ErrClosed for a handle whose job is over. The space lives on
// the manager from the job's first frame on, so a job that has not sent one
// sends its header first.
func (j *Job) tsWire() (*protocol.TSWire, error) {
	if j.over() {
		return nil, tuplespace.ErrClosed
	}
	if _, err := j.call(nil, "create job"); err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished || j.released {
		return nil, tuplespace.ErrClosed
	}
	if j.ts == nil || j.ts.To.Node != j.JMNode {
		j.ts = &protocol.TSWire{
			From: msg.Address{Node: j.client.node, Job: j.ID, Task: protocol.ClientTaskName},
			To:   msg.Address{Node: j.JMNode, Job: j.ID},
			Call: j.client.caller.CallInto,
			Send: j.client.ep.Send,
		}
	}
	return j.ts, nil
}

// do performs one acknowledged tuple-space wire call under ctx; the wire
// also bounds each attempt by protocol.CallTimeout, so a dead JobManager
// fails the operation, and asks a blocking op's park to end while ctx's
// deadline still has room for the answer.
func (s *Space) do(ctx context.Context) protocol.TSDoFunc {
	return func(kind msg.Kind, req protocol.TSOpReq) (*protocol.TSOpResp, error) {
		w, err := s.job.tsWire()
		if err != nil {
			return nil, err
		}
		resp, err := w.Do(ctx, kind, req)
		if err != nil {
			return nil, fmt.Errorf("api: %w", err)
		}
		return resp, nil
	}
}

// Out stores a tuple in the job's space. It is one-way: the tuple is
// validated here, handed to the fabric, and Out returns — nil
// means queued, not yet stored. The JobManager applies it before anything
// this client sends afterwards, so a later In, Rd or probe from this client
// sees it; every protocol.TSOutWindow-th Out of the handle is acknowledged
// instead, which is where a refusal (space closed under the handle) or a
// dead manager surfaces. Flush is that acknowledgement on demand.
func (s *Space) Out(t tuplespace.Tuple) error {
	if err := protocol.CheckTuple(t); err != nil {
		return err
	}
	w, err := s.job.tsWire()
	if err != nil {
		return err
	}
	if err := w.Out(context.Background(), t); err != nil {
		return fmt.Errorf("api: %w", err)
	}
	return nil
}

// Flush is one acknowledged round trip that stores nothing: when it returns
// nil, every Out made through this job's handle before the call is in the
// space. It returns tuplespace.ErrClosed when the space closed, or the
// call's failure.
func (s *Space) Flush(ctx context.Context) error {
	w, err := s.job.tsWire()
	if err != nil {
		return err
	}
	if err := w.Flush(ctx); err != nil {
		return fmt.Errorf("api: %w", err)
	}
	return nil
}

// In removes and returns a tuple matching tpl, blocking until one is
// available, ctx is done, or the space closes (tuplespace.ErrClosed).
func (s *Space) In(ctx context.Context, tpl tuplespace.Template) (tuplespace.Tuple, error) {
	return protocol.TSMatch(s.do(ctx), msg.KindTSIn, tpl)
}

// Rd is In without removal.
func (s *Space) Rd(ctx context.Context, tpl tuplespace.Template) (tuplespace.Tuple, error) {
	return protocol.TSMatch(s.do(ctx), msg.KindTSRd, tpl)
}

// InP removes and returns a matching tuple without blocking;
// tuplespace.ErrNoMatch when none is stored.
func (s *Space) InP(tpl tuplespace.Template) (tuplespace.Tuple, error) {
	return protocol.TSMatch(s.do(context.Background()), msg.KindTSInP, tpl)
}

// RdP is InP without removal.
func (s *Space) RdP(tpl tuplespace.Template) (tuplespace.Tuple, error) {
	return protocol.TSMatch(s.do(context.Background()), msg.KindTSRdP, tpl)
}
