// Direct task-to-task data-plane wire protocol: a producer task publishes
// its output as a content-addressed blob on its own node and advertises the
// location to the JobManager (KindDataPut); a consumer resolves the key
// (KindDataResolve, parking server-side until the producer publishes) and
// pulls the bytes straight from the producer's TaskManager with
// KindDataFetch chunk streams — the JobManager brokers locations, never
// bytes. Small payloads ride inline on the KindDataLoc reply so a tiny
// control value costs one round trip instead of three.

package protocol

import (
	"context"
	"fmt"

	"cn/internal/msg"
)

// DataInlineMax is the largest payload that piggybacks whole on a
// KindDataPut advert and its KindDataLoc replies. Bigger outputs stay on
// the producing node and consumers chunk-pull them TM→TM.
const DataInlineMax = 4 << 10

// DataPutReq is the body of KindDataPut (producer TaskManager ->
// JobManager): advertise that the producing node now serves the keyed
// output identified by Digest. Data carries the payload inline when it is
// at most DataInlineMax bytes; the JobManager then answers resolves from
// its own copy and the key survives the producing node's death.
type DataPutReq struct {
	JobID  string
	Key    string
	Task   string // producing task name
	Node   string // serving node: the TM→TM fetch target
	Digest string
	Size   int64
	Data   []byte // inline payload (Size <= DataInlineMax), else nil
}

// DataResolveReq is the body of KindDataResolve (consumer TaskManager ->
// JobManager): look up a key's location. An unpublished key parks the
// request for up to ParkMS (0 = ParkWindow) before the JobManager answers
// Retry. StaleNode/StaleDigest name an advert the consumer already
// failed to fetch from; the JobManager drops a matching advert before
// resolving, so a crashed producer's stale location is not served twice.
type DataResolveReq struct {
	JobID       string
	Key         string
	Task        string // consuming task name, or "client"
	ParkMS      int64
	StaleNode   string
	StaleDigest string
}

// DataLocResp is the body of KindDataLoc, answering both DATA_PUT (as an
// acknowledgement) and DATA_RESOLVE. Exactly one of the outcome fields
// describes the result: a location (Node/Digest/Size, with Data inlined for
// small payloads), Retry for a lapsed park, Closed for a terminal job, or
// Err for a request-level failure.
type DataLocResp struct {
	Key    string
	Digest string
	Node   string // serving node; empty when Data carries the payload whole
	Size   int64
	Data   []byte
	Retry  bool
	Closed bool
	Err    string
}

// Put advertises a published output to the job's data-plane broker.
func (w *TSWire) Put(ctx context.Context, key, digest string, size int64, inline []byte) error {
	var resp DataLocResp
	err := w.call(ctx, msg.KindDataPut, &DataPutReq{
		JobID:  w.To.Job,
		Key:    key,
		Task:   w.From.Task,
		Node:   w.From.Node,
		Digest: digest,
		Size:   size,
		Data:   inline,
	}, &resp)
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return fmt.Errorf("data-plane put %q: %s", key, resp.Err)
	}
	if resp.Closed {
		return fmt.Errorf("data-plane put %q: job closed", key)
	}
	return nil
}

// Resolve looks up a key's location at the job's data-plane broker,
// re-issuing each time the server's park window lapses unpublished. The loop
// ends when a location arrives, the job closes, or ctx/Call fails; an
// abandoned attempt withdraws its park (see call). staleNode/staleDigest
// (both may be empty) name an advert the caller already failed to fetch
// from.
func (w *TSWire) Resolve(ctx context.Context, key, staleNode, staleDigest string) (*DataLocResp, error) {
	req := DataResolveReq{
		JobID:       w.To.Job,
		Key:         key,
		Task:        w.From.Task,
		StaleNode:   staleNode,
		StaleDigest: staleDigest,
	}
	for {
		// A resolve destroys nothing, so one that ctx leaves no room to park
		// still goes out and asks for the shortest window: a published key
		// answers at once.
		req.ParkMS = max(parkMS(ctx), 1)
		resp := new(DataLocResp)
		if err := w.call(ctx, msg.KindDataResolve, &req, resp); err != nil {
			return nil, err
		}
		if resp.Retry {
			// Only the first issue carries the stale hint; the matching
			// advert is already invalidated.
			req.StaleNode, req.StaleDigest = "", ""
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			continue
		}
		if resp.Closed {
			return nil, fmt.Errorf("data-plane resolve %q: job closed", key)
		}
		if resp.Err != "" {
			return nil, fmt.Errorf("data-plane resolve %q: %s", key, resp.Err)
		}
		return resp, nil
	}
}
