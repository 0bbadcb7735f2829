package taskmgr

import (
	"testing"

	"cn/internal/archive"
	"cn/internal/config"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/wire"
)

// TestServeChunkCopyGuard: serving one 768 KiB chunk — the DATA_FETCH
// handler plus the head-only encode the transport's Send performs —
// allocates the request, the reply and their small payloads, and nothing
// the size of the chunk: the chunk goes from the cache's slice to the
// socket's iovec by reference. (It used to cost a zeroed 768 KiB payload
// buffer, a copy into it and a copy into the frame.)
func TestServeChunkCopyGuard(t *testing.T) {
	tm := New(config.Config{HeartbeatInterval: -1}, "tm0", nil, func(string, *msg.Message) error { return nil }, nil, nil)
	t.Cleanup(tm.Close)
	blob := make([]byte, 3<<20)
	digest := archive.DigestBytes(blob)
	tm.blobs.PutBlob(digest, blob)
	from, to := msg.Address{Node: "tm1", Job: "j"}, msg.Address{Node: "tm0", Job: "j"}
	req := protocol.Body(msg.KindDataFetch, from, to,
		protocol.BlobChunkReq{JobID: "j", Digest: digest, Offset: protocol.BlobChunkBytes, MaxBytes: protocol.BlobChunkBytes})

	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reply := tm.HandleDataFetch(req)
			if len(reply.Tail) != protocol.BlobChunkBytes || &reply.Tail[0] != &blob[protocol.BlobChunkBytes] {
				b.Fatal("the served chunk is not the cache's own bytes")
			}
			buf := wire.GetBuf()
			head, err := wire.AppendFrameHead((*buf)[:0], reply)
			if err != nil || len(head) > 512 {
				b.Fatalf("head-only encode: %v, %d bytes", err, len(head))
			}
			*buf = head
			wire.PutBuf(buf)
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 4<<10 {
		t.Errorf("serving a %d-byte chunk allocates %d bytes (%d allocs), want under 4 KiB",
			protocol.BlobChunkBytes, got, res.AllocsPerOp())
	} else {
		t.Logf("serving a %d-byte chunk allocates %d bytes in %d allocs", protocol.BlobChunkBytes, got, res.AllocsPerOp())
	}
}
