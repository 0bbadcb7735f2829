// The chunk protocol's two shared halves. Blobs too large for one frame —
// task archives pulled from the JobManager (BLOB_CHUNK), task outputs
// pulled from the producing TaskManager (DATA_FETCH) — move as a series of
// acknowledged chunk requests, each answered with up to BlobChunkBytes of
// the blob in the reply frame's tail. Whoever holds bytes under a digest
// answers with SliceChunk; whoever wants them runs PullBlob.

package protocol

import (
	"context"
	"fmt"
	"time"

	"cn/internal/archive"
	"cn/internal/msg"
)

// ChunkCallTimeout bounds one chunk-pull round trip.
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
// of transport.Caller.CallInto.
type CallIntoFunc func(ctx context.Context, toNode string, m *msg.Message, dst []byte) (*msg.Message, error)

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
		m := Body(kind, from, to, BlobChunkReq{JobID: to.Job, Digest: digest, Offset: have, MaxBytes: BlobChunkBytes})
		cctx, cancel := context.WithTimeout(ctx, ChunkCallTimeout)
		reply, err := call(cctx, to.Node, m, dst[have:end])
		cancel()
		if err != nil {
			return err
		}
		var chunk BlobChunkResp
		if err := Decode(reply, &chunk); err != nil {
			return err
		}
		if chunk.Err != "" {
			return fmt.Errorf("chunk at %d: %s", have, chunk.Err)
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
