// The chunk protocol, both verbs. A blob moves as a series of acknowledged
// chunk requests of up to BlobChunkBytes each, its bytes in a frame's tail.
//
// Pull — task archives from the JobManager (BLOB_CHUNK), task outputs from
// the producing TaskManager (DATA_FETCH): whoever wants the bytes under a
// digest runs PullBlob, whoever holds them answers each request with
// SliceChunk.
//
// Push — a client's large archive to the JobManager (BLOB_CHUNK with Data):
// the sender runs PushBlob, the receiver feeds each request to the Upload it
// keeps for that uploader and digest.

package protocol

import (
	"context"
	"fmt"
	"time"

	"cn/internal/archive"
	"cn/internal/msg"
)

// ChunkCallTimeout bounds one chunk round trip, pull or push.
const ChunkCallTimeout = 5 * time.Second

// SliceChunk answers one chunk pull out of raw, the bytes the answering
// node holds under req.Digest. The reply's Data aliases raw — held blobs
// are immutable — and from there rides the frame's tail, so serving a chunk
// copies none of it.
func SliceChunk(req *BlobChunkReq, raw []byte) BlobChunkResp {
	max := req.MaxBytes
	if max <= 0 || max > BlobChunkBytes {
		max = BlobChunkBytes
	}
	total := int64(len(raw))
	if req.Offset < 0 || req.Offset >= total {
		return BlobChunkResp{Digest: req.Digest, Total: total,
			Err: fmt.Sprintf("offset %d out of range (blob is %d bytes)", req.Offset, total)}
	}
	end := req.Offset + max
	if end > total {
		end = total
	}
	return BlobChunkResp{Digest: req.Digest, Offset: req.Offset, Total: total, Data: raw[req.Offset:end]}
}

// CallIntoFunc performs one request/response round trip to a node with dst
// posted for the reply's bulk tail: a transport that can, reads the tail
// straight into dst (the reply's Tail then aliases it); one that cannot
// ignores dst. After an error dst may still be written to. It is the shape
// of transport.Caller.CallInto, within its deadline.
type CallIntoFunc func(ctx context.Context, toNode string, m *msg.Message, dst []byte, within time.Duration) (*msg.Message, error)

// chunkCall is one chunk round trip of either verb, bounded by
// ChunkCallTimeout, with dst posted for the reply's tail. A reply that
// carries Err is an error.
func chunkCall(ctx context.Context, call CallIntoFunc, kind msg.Kind, from, to msg.Address, req BlobChunkReq, dst []byte) (BlobChunkResp, error) {
	var resp BlobChunkResp
	reply, err := call(ctx, to.Node, Body(kind, from, to, req), dst, ChunkCallTimeout)
	if err == nil {
		err = Decode(reply, &resp)
	}
	if err == nil && resp.Err != "" {
		err = fmt.Errorf("chunk at %d: %s", req.Offset, resp.Err)
	}
	return resp, err
}

// CheckBlobSize refuses an advertised blob size nobody should allocate for.
func CheckBlobSize(size int64) error {
	if size <= 0 || size > MaxBlobBytes {
		return fmt.Errorf("advertised blob size %d out of bounds", size)
	}
	return nil
}

// PullBlob pulls the len(dst) bytes held under digest on node to.Node into
// dst, one acknowledged chunk request of the given kind per round trip, and
// returns nil once they hash to digest. Each request posts the region its
// chunk belongs in, so on a transport with posted receive the bytes are
// written exactly once, by the socket read; a chunk that arrived elsewhere
// (the in-memory fabric hands over a tail of its own) is copied into place.
// The digest is fed each chunk as it lands, so when the last chunk arrives
// only that chunk is left to hash. dst need not be zeroed: every byte of it
// is written before the digest can match.
//
// Any error abandons dst whole — after a failed call the transport may
// still be writing into the region that call posted — so no region is ever
// posted twice and the caller must neither read nor reuse dst.
func PullBlob(ctx context.Context, call CallIntoFunc, kind msg.Kind, from, to msg.Address, digest string, dst []byte) error {
	size := int64(len(dst))
	if err := CheckBlobSize(size); err != nil {
		return err
	}
	sum := archive.NewDigest()
	for have := int64(0); have < size; {
		end := min(have+BlobChunkBytes, size)
		chunk, err := chunkCall(ctx, call, kind, from, to,
			BlobChunkReq{JobID: to.Job, Digest: digest, Offset: have, MaxBytes: BlobChunkBytes}, dst[have:end])
		if err != nil {
			return err
		}
		n := int64(len(chunk.Data))
		if chunk.Offset != have || chunk.Total != size || n == 0 || n > BlobChunkBytes || have+n > size {
			return fmt.Errorf("chunk reply out of step: offset %d len %d total %d (have %d of %d, asked for %d)",
				chunk.Offset, n, chunk.Total, have, size, int64(BlobChunkBytes))
		}
		if &chunk.Data[0] != &dst[have] {
			copy(dst[have:], chunk.Data)
		}
		sum.Write(dst[have : have+n])
		have += n
	}
	if got := sum.Sum(); got != digest {
		return fmt.Errorf("reassembled blob hashes to %.12s…, want %.12s…", got, digest)
	}
	return nil
}

// PushBlob pushes raw to node to.Node as the blob held under digest, one
// acknowledged BLOB_CHUNK request per round trip, in offset order. Each ack
// names the offset the receiver wants next — past the chunk just sent, or
// the blob's end when the receiver already holds it — and the push follows
// it; an ack that does not advance is an error.
func PushBlob(ctx context.Context, call CallIntoFunc, from, to msg.Address, digest string, raw []byte) error {
	total := int64(len(raw))
	for off := int64(0); off < total; {
		end := min(off+BlobChunkBytes, total)
		ack, err := chunkCall(ctx, call, msg.KindBlobChunk, from, to,
			BlobChunkReq{JobID: to.Job, Digest: digest, Offset: off, Total: total, Data: raw[off:end]}, nil)
		if err != nil {
			return err
		}
		if ack.Offset <= off {
			return fmt.Errorf("chunk at %d: upload did not advance (ack offset %d)", off, ack.Offset)
		}
		off = ack.Offset
	}
	return nil
}

// Upload assembles the chunks one uploader pushes of one blob; its keeper
// holds one per (uploader, digest), so two clients pushing the same digest
// cannot corrupt each other's sequence. The zero Upload is idle, and an
// Upload is idle again after any refusal of a chunk it had a place for and
// after completion.
type Upload struct {
	total int64
	buf   []byte
}

// Len returns the bytes assembled so far: what the upload costs its keeper.
func (u *Upload) Len() int64 { return int64(len(u.buf)) }

// Push applies one pushed chunk and returns its acknowledgement; held is
// what the keeper already holds under req.Digest, nil when nothing. Chunks
// must arrive in offset order (an uploader is sequential); one at offset 0
// starts the sequence over (a retry after a lost ack). A push of a digest
// already held is acknowledged as complete — an idempotent re-push, or
// another uploader finished first. The chunk that completes the blob returns
// it as blob, digest-verified, so corrupted bytes are refused here and never
// become fetchable; every other call returns a nil blob.
func (u *Upload) Push(req *BlobChunkReq, held []byte) (ack BlobChunkResp, blob []byte) {
	fail := func(format string, args ...any) (BlobChunkResp, []byte) {
		return BlobChunkResp{Digest: req.Digest, Err: fmt.Sprintf(format, args...)}, nil
	}
	n := int64(len(req.Data))
	switch {
	case req.Digest == "":
		return fail("chunk push without a digest")
	case req.Total <= 0 || req.Total > MaxBlobBytes:
		return fail("blob size %d out of bounds (max %d)", req.Total, int64(MaxBlobBytes))
	case req.Offset < 0 || req.Offset+n > req.Total:
		return fail("chunk [%d,%d) exceeds declared total %d", req.Offset, req.Offset+n, req.Total)
	}
	if held != nil {
		*u = Upload{}
		return BlobChunkResp{Digest: req.Digest, Offset: int64(len(held)), Total: int64(len(held))}, nil
	}
	switch {
	case req.Offset == 0:
		// The declared total only bounds the upload; capacity grows with
		// the bytes actually received, so a tiny chunk declaring a huge
		// total cannot pre-allocate gigabytes.
		*u = Upload{total: req.Total, buf: make([]byte, 0, min(req.Total, BlobChunkBytes))}
	case u.total == 0:
		return fail("unknown upload: first chunk must start at offset 0, got %d", req.Offset)
	}
	if req.Total != u.total || req.Offset != u.Len() {
		have, total := u.Len(), u.total
		*u = Upload{}
		return fail("out-of-order chunk at %d (have %d of %d); upload reset", req.Offset, have, total)
	}
	u.buf = append(u.buf, req.Data...)
	if u.Len() < u.total {
		return BlobChunkResp{Digest: req.Digest, Offset: u.Len(), Total: u.total}, nil
	}
	blob = u.buf
	*u = Upload{}
	if got := archive.DigestBytes(blob); got != req.Digest {
		return fail("reassembled blob hashes to %.12s…, not the declared %.12s…", got, req.Digest)
	}
	return BlobChunkResp{Digest: req.Digest, Offset: req.Total, Total: req.Total}, blob
}
