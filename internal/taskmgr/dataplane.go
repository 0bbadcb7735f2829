// TaskManager side of the direct task-to-task data plane.
//
// Put publishes a task's output into the node's content-addressed blob
// cache and advertises the location to the job's JobManager (KindDataPut);
// Get resolves a key (KindDataResolve) and pulls the bytes straight from
// the producing TaskManager with KindDataFetch chunk pulls — the same
// framing as the archive BLOB_CHUNK stream, digest-verified on reassembly.
// The JobManager never relays payloads; at most it serves the inline copies
// small adverts carry.

package taskmgr

import (
	"context"
	"fmt"

	"cn/internal/archive"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/trace"
)

// HandleDataFetch answers a peer TaskManager's pull for one chunk of a
// data-plane blob held in this node's cache. The chunk aliases the cached
// bytes (cache entries are immutable) and rides the reply frame's tail, so
// between the cache and the socket write no user-space code copies it. The
// reply holds the blob until the transport is done with that tail
// (msg.Message.TailDone): the producing job may finish, and its entry
// leave, while the frame is still queued.
func (tm *TaskManager) HandleDataFetch(m *msg.Message) *msg.Message {
	ack := func(resp protocol.BlobChunkResp) *msg.Message {
		return protocol.Reply(m, msg.KindBlobChunkAck, resp)
	}
	var req protocol.BlobChunkReq
	if err := protocol.Decode(m, &req); err != nil {
		return ack(protocol.BlobChunkResp{Err: "bad data-fetch request: " + err.Error()})
	}
	b, ok := tm.blobs.Acquire("", req.Digest)
	if !ok {
		return ack(protocol.BlobChunkResp{Digest: req.Digest,
			Err: fmt.Sprintf("blob %.12s… not cached on %s", req.Digest, tm.node)})
	}
	resp := protocol.SliceChunk(&req, b.Bytes())
	tm.dataServedBytes.Add(int64(len(resp.Data)))
	reply := ack(resp)
	if len(reply.Tail) == 0 {
		b.Release() // a refusal aliases nothing
	} else {
		reply.TailDone = b.Release
	}
	return reply
}

// fetchData chunk-pulls one content-addressed data-plane blob from a peer
// TaskManager with the archive pull's client, into a buffer of this node's
// cache, and returns it digest-verified with the creator's hold. A pull
// that fails abandons its buffer: the transport may still write to it.
func (tm *TaskManager) fetchData(ctx context.Context, node, jobID, digest string, size int64) (*archive.Blob, error) {
	if err := protocol.CheckBlobSize(size); err != nil {
		return nil, err
	}
	b := tm.blobs.NewBlob(int(size))
	err := protocol.PullBlob(ctx, tm.call, msg.KindDataFetch,
		msg.Address{Node: tm.node, Job: jobID}, msg.Address{Node: node, Job: jobID}, digest, b.Bytes())
	if err != nil {
		b.Abandon()
		return nil, err
	}
	tm.dataFetchedBytes.Add(size)
	return b, nil
}

// DataServedBytes returns how many data-plane payload bytes this node served
// to peer TaskManagers (the producer side of TM→TM transfers).
func (tm *TaskManager) DataServedBytes() int64 { return tm.dataServedBytes.Load() }

// DataFetchedBytes returns how many data-plane payload bytes this node
// pulled from peer TaskManagers (the consumer side).
func (tm *TaskManager) DataFetchedBytes() int64 { return tm.dataFetchedBytes.Load() }

// dataCtx derives from the caller's ctx a context that additionally ends
// with the task's execution (task cancelled, TaskManager shut down), so a
// parked resolve never outlives its node.
func (c *execContext) dataCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	dctx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(c.a.ctx, cancel)
	return dctx, func() { stop(); cancel() }
}

// Put implements task.Context: publish payload under key. The bytes land in
// the node's blob cache (where peer fetches are served from) and only the
// content-addressed location travels to the JobManager; payloads at most
// protocol.DataInlineMax ride along inline so the advert itself can answer
// consumers. A traced task records the whole publish as a tm.shuffle.put
// span.
func (c *execContext) Put(key string, payload []byte) error {
	pa := c.tm.tracer.StartSpan(c.trace, "tm.shuffle.put").SetJob(c.a.jobID).SetTask(c.a.spec.Name)
	err := c.put(key, payload)
	c.keep(pa.End(err))
	return err
}

func (c *execContext) put(key string, payload []byte) error {
	if key == "" {
		return fmt.Errorf("task %s: put: empty key", c.a.spec.Name)
	}
	if err := c.tsReady(); err != nil {
		return err
	}
	if int64(len(payload)) > protocol.MaxBlobBytes {
		return fmt.Errorf("task %s: put %q: payload %d bytes exceeds max %d",
			c.a.spec.Name, key, len(payload), int64(protocol.MaxBlobBytes))
	}
	// Own copy: the caller may reuse its buffer, but the cache entry (and
	// the chunks served from it) must stay immutable. Exactly len(payload)
	// bytes are written, which is all of the blob: nothing a reused buffer
	// held before is left readable.
	b := c.tm.blobs.NewBlob(len(payload))
	copy(b.Bytes(), payload)
	digest := archive.DigestBytes(b.Bytes())
	held, err := c.publish(digest, b)
	if err != nil {
		return err
	}
	// The advert below may carry the bytes inline: building it encodes
	// them into a payload of its own (protocol.Body), so nothing the
	// broker keeps points into this blob once the hold ends.
	defer held.Release()
	data := held.Bytes()
	var inline []byte
	if len(data) > 0 && len(data) <= protocol.DataInlineMax {
		inline = data
	}
	ctx := c.a.ctx
	for {
		w := c.tsWire()
		err := w.Put(ctx, key, digest, int64(len(data)), inline)
		if err != nil && !c.a.cancelled.Load() && ctx.Err() == nil && c.a.jm() != w.To.Node {
			continue // the job was adopted mid-call; retry at the survivor
		}
		return c.tsDone(err)
	}
}

// publish makes b — filled, its digest verified — an entry of the task's job
// in the node's cache and returns the cached blob with a hold for the caller
// (Cache.Publish), unless the job has already been told to let go: then b
// goes back and the task is stopped. The read lock orders this against
// HandleCancel, which cancels the job's assignments before it releases the
// job's entries under the write lock — so an entry is either there to be
// released, or never made; a task caught mid-pull by the end of its job
// leaves nothing behind.
func (c *execContext) publish(digest string, b *archive.Blob) (*archive.Blob, error) {
	c.tm.releaseMu.RLock()
	defer c.tm.releaseMu.RUnlock()
	if c.a.cancelled.Load() {
		b.Release()
		return nil, task.ErrStopped
	}
	return c.tm.blobs.Publish(c.a.jobID, digest, b), nil
}

// acquire is Cache.Acquire for the task's job under the same ordering as
// publish: a task whose job is over becomes no owner of anything.
func (c *execContext) acquire(digest string) (*archive.Blob, bool) {
	c.tm.releaseMu.RLock()
	defer c.tm.releaseMu.RUnlock()
	if c.a.cancelled.Load() {
		return nil, false
	}
	return c.tm.blobs.Acquire(c.a.jobID, digest)
}

// hold makes the task a holder of b until its Run returns (see execute) and
// returns the bytes to hand it. A Get that comes back after that — from a
// goroutine the task left behind — keeps nothing and reports the task
// stopped.
func (c *execContext) hold(b *archive.Blob) ([]byte, error) {
	c.heldMu.Lock()
	if c.ended {
		c.heldMu.Unlock()
		b.Release()
		return nil, task.ErrStopped
	}
	c.held = append(c.held, b)
	c.heldMu.Unlock()
	c.a.progress.Add(1)
	return b.Bytes(), nil
}

// keep adds a finished span of the task to what its terminal event ships.
// One slot of the cap is left for the tm.exec span end adds last.
func (c *execContext) keep(sp trace.Span, ok bool) {
	if !ok {
		return
	}
	c.heldMu.Lock()
	if !c.ended && len(c.spans) < trace.MaxJobSpans-1 {
		c.spans = append(c.spans, sp)
	}
	c.heldMu.Unlock()
}

// end lets go of everything Get handed the task, ends its tm.exec span ea
// and returns the task's spans, tm.exec last.
func (c *execContext) end(ea *trace.Active, runErr error) []trace.Span {
	c.heldMu.Lock()
	held, spans := c.held, c.spans
	c.held, c.spans, c.ended = nil, nil, true
	c.heldMu.Unlock()
	for _, b := range held {
		b.Release()
	}
	if sp, ok := ea.End(runErr); ok {
		spans = append(spans, sp)
	}
	return spans
}

// Get implements task.Context: resolve key at the JobManager and pull its
// payload. Inline answers and locally cached digests return without a
// TM→TM round trip; otherwise the bytes are chunk-pulled from the
// producing node. A fetch that fails (the producer died under the advert)
// re-resolves with a stale hint — the JobManager drops the dead location
// and parks the resolve until the recovered producer re-publishes. A traced
// task records the whole resolve+pull as a tm.shuffle.get span.
func (c *execContext) Get(ctx context.Context, key string) ([]byte, error) {
	ga := c.tm.tracer.StartSpan(c.trace, "tm.shuffle.get").SetJob(c.a.jobID).SetTask(c.a.spec.Name)
	data, err := c.get(ctx, key)
	c.keep(ga.End(err))
	return data, err
}

func (c *execContext) get(ctx context.Context, key string) ([]byte, error) {
	if key == "" {
		return nil, fmt.Errorf("task %s: get: empty key", c.a.spec.Name)
	}
	if err := c.tsReady(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	dctx, cancel := c.dataCtx(ctx)
	defer cancel()

	staleNode, staleDigest := "", ""
	for {
		w := c.tsWire()
		resp, err := w.Resolve(dctx, key, staleNode, staleDigest)
		if err != nil {
			if !c.a.cancelled.Load() && dctx.Err() == nil && c.a.jm() != w.To.Node {
				continue // the job was adopted mid-call; retry at the survivor
			}
			return nil, c.tsDone(err)
		}
		staleNode, staleDigest = "", ""
		if resp.Size == 0 {
			c.a.progress.Add(1)
			return []byte{}, nil
		}
		if len(resp.Data) > 0 {
			// Inline answer (from the advert or a JM-held survivor copy).
			b := c.tm.blobs.NewBlob(len(resp.Data))
			copy(b.Bytes(), resp.Data)
			if archive.DigestBytes(b.Bytes()) != resp.Digest {
				b.Release()
				return nil, fmt.Errorf("task %s: get %q: inline payload digest mismatch", c.a.spec.Name, key)
			}
			held, err := c.publish(resp.Digest, b)
			if err != nil {
				return nil, err
			}
			return c.hold(held)
		}
		if b, ok := c.acquire(resp.Digest); ok {
			return c.hold(b)
		}
		if resp.Node == "" {
			return nil, fmt.Errorf("task %s: get %q: advert has no serving node", c.a.spec.Name, key)
		}
		b, err := c.tm.fetchData(dctx, resp.Node, c.a.jobID, resp.Digest, resp.Size)
		if err != nil {
			if dctx.Err() != nil {
				if c.a.cancelled.Load() {
					return nil, task.ErrStopped
				}
				return nil, fmt.Errorf("task %s: get %q: %w", c.a.spec.Name, key, dctx.Err())
			}
			c.tm.logf("task %s/%s: fetch %q (%.12s…) from %s failed (%v); re-resolving",
				c.a.jobID, c.a.spec.Name, key, resp.Digest, resp.Node, err)
			staleNode, staleDigest = resp.Node, resp.Digest
			continue
		}
		held, err := c.publish(resp.Digest, b)
		if err != nil {
			return nil, err
		}
		return c.hold(held)
	}
}
