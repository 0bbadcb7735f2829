// JobManager side of the direct task-to-task data plane.
//
// Producers advertise each published output with KindDataPut — key, digest,
// size, serving node, and (for payloads at most DataInlineMax) the bytes
// themselves. Consumers look keys up with KindDataResolve; an unpublished
// key registers a waiter with the job's broker and parks in the same table
// as the blocking tuple-space ops (park.go): no goroutine waits, the
// publishing DATA_PUT answers the resolve, a lapsed window answers Retry.
// Either way the JobManager carries locations, not payloads: the bytes move
// producer-to-consumer over KindDataFetch chunk pulls between the two
// TaskManagers, so the manager's data-plane cost per key is one advert and
// one location reply regardless of output size.

package jobmgr

import (
	"fmt"

	"cn/internal/archive"
	"cn/internal/dataplane"
	"cn/internal/msg"
	"cn/internal/protocol"
)

func dataReply(m *msg.Message, resp *protocol.DataLocResp) *msg.Message {
	return protocol.Reply(m, msg.KindDataLoc, resp)
}

// dataNoJob answers a data-plane request that names no live job: a retired
// job's broker answers as the closed broker it was.
func (jm *JobManager) dataNoJob(jobID, key string, t *tombstone) *protocol.DataLocResp {
	if t != nil {
		return &protocol.DataLocResp{Key: key, Closed: true}
	}
	return &protocol.DataLocResp{Key: key, Err: jm.errUnknownJob(jobID).Error()}
}

// HandleDataPut processes a producer's KindDataPut advert and returns the
// KindDataLoc acknowledgement. Inline payloads are digest-verified here —
// the JobManager will serve those bytes as authoritative, so it refuses to
// store a copy that does not match its own advert.
func (jm *JobManager) HandleDataPut(m *msg.Message) *msg.Message {
	var req protocol.DataPutReq
	if err := protocol.Decode(m, &req); err != nil {
		return dataReply(m, &protocol.DataLocResp{Err: "bad data-plane put: " + err.Error()})
	}
	if req.Key == "" || req.Digest == "" {
		return dataReply(m, &protocol.DataLocResp{Key: req.Key, Err: "data-plane put: missing key or digest"})
	}
	// Size 0 is an empty Put; any other size must be one a consumer may
	// allocate, or every resolve of the advert ends in a refused fetch and a
	// re-run of a producer that did nothing wrong.
	if req.Size != 0 {
		if err := protocol.CheckBlobSize(req.Size); err != nil {
			return dataReply(m, &protocol.DataLocResp{Key: req.Key, Err: "data-plane put: " + err.Error()})
		}
	}
	if len(req.Data) > 0 {
		if int64(len(req.Data)) != req.Size || req.Size > protocol.DataInlineMax {
			return dataReply(m, &protocol.DataLocResp{Key: req.Key,
				Err: fmt.Sprintf("data-plane put: inline payload %d bytes, advertised %d (max %d)",
					len(req.Data), req.Size, protocol.DataInlineMax)})
		}
		if archive.DigestBytes(req.Data) != req.Digest {
			return dataReply(m, &protocol.DataLocResp{Key: req.Key, Err: "data-plane put: inline payload digest mismatch"})
		}
	}
	j, t := jm.lookup(req.JobID)
	if j == nil {
		return dataReply(m, jm.dataNoJob(req.JobID, req.Key, t))
	}
	if err := j.broker.Put(locOf(&req)); err != nil {
		return dataReply(m, &protocol.DataLocResp{Key: req.Key, Closed: true})
	}
	return dataReply(m, &protocol.DataLocResp{Key: req.Key, Digest: req.Digest, Node: req.Node, Size: req.Size})
}

// locOf is the location a DATA_PUT advert describes; Inline aliases req.Data.
func locOf(req *protocol.DataPutReq) dataplane.Loc {
	return dataplane.Loc{Key: req.Key, Task: req.Task, Node: req.Node, Digest: req.Digest, Size: req.Size, Inline: req.Data}
}

// HandleDataResolve processes a consumer's KindDataResolve and sends the
// KindDataLoc reply itself: at once for a published key, otherwise — a
// try-then-park request like TS_IN (park.go) — from the DATA_PUT (or broker
// close) that later claims the registered waiter, or with Retry when the
// park window lapses. A consumer that abandons the call withdraws the park
// with TS_CANCEL. It never blocks: the server runs it on the endpoint's
// delivering goroutine.
func (jm *JobManager) HandleDataResolve(m *msg.Message) {
	var req protocol.DataResolveReq
	if err := protocol.Decode(m, &req); err != nil {
		jm.dataSend(m, &protocol.DataLocResp{Err: "bad data-plane resolve: " + err.Error()})
		return
	}
	j, t := jm.lookup(req.JobID)
	if j == nil {
		jm.dataSend(m, jm.dataNoJob(req.JobID, req.Key, t))
		return
	}
	if req.StaleNode != "" {
		// The consumer failed to fetch from this advert (the producer's
		// node died under it); drop the stale location before resolving so
		// it is not served a second time. Inline-backed adverts degrade to
		// JM-served instead of dropping; a genuinely lost payload means its
		// producer must run again — the consumer's hint can land before the
		// node's lease even lapses, so recovery cannot be left to the
		// health monitor's InvalidateNode sweep alone.
		if lost, ok := j.broker.Invalidate(req.Key, req.StaleNode, req.StaleDigest); ok {
			jm.rerunProducer(j, lost)
		}
	}
	p := jm.parked.register(m)
	if p == nil {
		return // the consumer's cancel outran the request
	}
	answer := func(loc dataplane.Loc, err error) {
		if jm.parked.done(p) {
			jm.dataAnswer(m, req.Key, loc, err)
		}
	}
	loc, w, err := j.broker.Await(req.Key, answer)
	if w == nil {
		answer(loc, err)
		return
	}
	jm.parked.hold(p, req.ParkMS, func() bool { return j.broker.Cancel(w) }, func() {
		jm.dpStats.Retries.Add(1)
		jm.dataSend(m, &protocol.DataLocResp{Key: req.Key, Retry: true})
	})
}

// dataAnswer replies to a resolve with the key's location, or with Closed:
// the one failure a broker reports is its own closing (dataplane.ErrClosed).
func (jm *JobManager) dataAnswer(m *msg.Message, key string, loc dataplane.Loc, err error) {
	if err != nil {
		jm.dataSend(m, &protocol.DataLocResp{Key: key, Closed: true})
		return
	}
	resp := &protocol.DataLocResp{Key: loc.Key, Digest: loc.Digest, Node: loc.Node, Size: loc.Size}
	if len(loc.Inline) > 0 {
		resp.Data = loc.Inline
		jm.dpStats.InlineBytes.Add(int64(len(loc.Inline)))
	}
	jm.dataSend(m, resp)
}

func (jm *JobManager) dataSend(m *msg.Message, resp *protocol.DataLocResp) {
	if err := jm.send(m.From.Node, dataReply(m, resp)); err != nil {
		jm.logf("data-plane reply to %s: %v", m.From.Node, err)
	}
}

// rerunProducer routes a completed task whose advertised output was lost
// back through the recovery engine so a consumer parked on the key can
// eventually be answered by the re-published advert. Placement runs on its
// own goroutine — the caller is the resolve handler on the endpoint's
// delivering goroutine, which placement round trips must never block.
func (jm *JobManager) rerunProducer(j *jobState, l dataplane.Loc) {
	j.mu.Lock()
	i, ok := j.index[l.Task]
	rerun := ok && !j.notified && j.Rerun(i)
	j.mu.Unlock()
	if !rerun {
		return
	}

	jm.mu.Lock()
	if jm.closed {
		jm.mu.Unlock()
		return
	}
	jm.wg.Add(1)
	jm.mu.Unlock()
	go func() {
		defer jm.wg.Done()
		jm.retryTasks(j, []string{l.Task},
			fmt.Sprintf("data-plane output %q lost with node %s", l.Key, l.Node),
			map[string]bool{l.Node: true})
	}()
}

// DataplaneStats snapshots the manager's aggregate data-plane broker
// counters across all hosted jobs.
func (jm *JobManager) DataplaneStats() dataplane.StatsSnapshot {
	return jm.dpStats.Snapshot()
}
