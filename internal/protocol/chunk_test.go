package protocol

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"cn/internal/archive"
	"cn/internal/msg"
)

// keeper is a JobManager reduced to what an upload needs of it: one Upload
// per (uploader, digest), the finished blobs, and the acks it gave — with a
// hook to lose one on the way back.
type keeper struct {
	uploads map[string]*Upload
	held    map[string][]byte
	acks    []BlobChunkResp
	// lose, when set, sees each request after it was applied; returning true
	// drops the ack, as a connection cut between apply and reply would.
	lose func(req *BlobChunkReq) bool
}

func newKeeper() *keeper {
	return &keeper{uploads: make(map[string]*Upload), held: make(map[string][]byte)}
}

func (k *keeper) push(from string, req *BlobChunkReq) BlobChunkResp {
	key := from + "/" + req.Digest
	up := k.uploads[key]
	if up == nil {
		up = new(Upload)
		k.uploads[key] = up
	}
	ack, blob := up.Push(req, k.held[req.Digest])
	if blob != nil {
		k.held[req.Digest] = blob
	}
	k.acks = append(k.acks, ack)
	return ack
}

func (k *keeper) call(_ context.Context, _ string, m *msg.Message, _ []byte, _ time.Duration) (*msg.Message, error) {
	var req BlobChunkReq
	if err := Decode(m, &req); err != nil {
		return nil, err
	}
	ack := k.push(m.From.Node, &req)
	if k.lose != nil && k.lose(&req) {
		return nil, errors.New("ack lost")
	}
	return Reply(m, msg.KindBlobChunkAck, ack), nil
}

func (k *keeper) pushBlob(digest string, raw []byte) error {
	return PushBlob(context.Background(), k.call, msg.Address{Node: "client", Job: "j1"}, msg.Address{Node: "jm", Job: "j1"}, digest, raw)
}

// blobOf returns size bytes that depend on seed, and their digest.
func blobOf(seed byte, size int) (raw []byte, digest string) {
	raw = make([]byte, size)
	for i := range raw {
		raw[i] = seed + byte(i) + byte(i>>9)
	}
	return raw, archive.DigestBytes(raw)
}

// TestPushBlobInOrder: a blob of several chunks, the last one short, arrives
// whole; the acks walk the offsets, and nothing is fetchable before the last.
func TestPushBlobInOrder(t *testing.T) {
	raw, digest := blobOf(1, 2*BlobChunkBytes+1000)
	k := newKeeper()
	if err := k.pushBlob(digest, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k.held[digest], raw) {
		t.Fatal("held blob differs from what was pushed")
	}
	var offsets []int64
	for _, a := range k.acks {
		offsets = append(offsets, a.Offset)
	}
	want := []int64{BlobChunkBytes, 2 * BlobChunkBytes, int64(len(raw))}
	if len(offsets) != 3 || offsets[0] != want[0] || offsets[1] != want[1] || offsets[2] != want[2] {
		t.Errorf("ack offsets %v, want %v", offsets, want)
	}
	if up := k.uploads["client/"+digest]; up.Len() != 0 {
		t.Errorf("finished upload still stages %d bytes", up.Len())
	}
	// One byte is a blob too.
	one, oneDigest := blobOf(2, 1)
	if err := k.pushBlob(oneDigest, one); err != nil || !bytes.Equal(k.held[oneDigest], one) {
		t.Errorf("1-byte blob: %v", err)
	}
}

// TestPushBlobRestartAfterLostAck: the ack of the second chunk is lost, the
// push fails; pushed again from offset 0 the upload starts over on the same
// Upload and lands — the stale half is not kept, appended to, or counted.
func TestPushBlobRestartAfterLostAck(t *testing.T) {
	raw, digest := blobOf(3, 3*BlobChunkBytes)
	k := newKeeper()
	k.lose = func(req *BlobChunkReq) bool { return req.Offset == BlobChunkBytes }
	if err := k.pushBlob(digest, raw); err == nil || k.held[digest] != nil {
		t.Fatalf("push with a lost ack: err %v, held %v", err, k.held[digest] != nil)
	}
	up := k.uploads["client/"+digest]
	if up.Len() != 2*BlobChunkBytes {
		t.Fatalf("after the lost ack the upload stages %d bytes, want two chunks", up.Len())
	}
	k.lose = nil
	if err := k.pushBlob(digest, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k.held[digest], raw) || up.Len() != 0 {
		t.Errorf("restarted upload: held matches %v, staged %d", bytes.Equal(k.held[digest], raw), up.Len())
	}
}

// TestUploadRefusals: each chunk an Upload has no place for is refused with
// its reason, and one that broke a sequence resets it — the next chunk of
// the old sequence is then unknown.
func TestUploadRefusals(t *testing.T) {
	raw, digest := blobOf(4, 3000)
	chunk := func(off, n, total int64) *BlobChunkReq {
		return &BlobChunkReq{JobID: "j1", Digest: digest, Offset: off, Total: total, Data: raw[off : off+n]}
	}
	refused := func(up *Upload, req *BlobChunkReq, held []byte, want string) {
		t.Helper()
		ack, blob := up.Push(req, held)
		if blob != nil || !strings.Contains(ack.Err, want) {
			t.Errorf("chunk [%d,+%d) of %d: ack %+v, want refusal %q", req.Offset, len(req.Data), req.Total, ack, want)
		}
	}
	accepted := func(up *Upload, req *BlobChunkReq, wantNext int64) {
		t.Helper()
		if ack, _ := up.Push(req, nil); ack.Err != "" || ack.Offset != wantNext {
			t.Errorf("chunk [%d,+%d): ack %+v, want next offset %d", req.Offset, len(req.Data), ack, wantNext)
		}
	}
	up := new(Upload)
	refused(up, &BlobChunkReq{Offset: 0, Total: 10, Data: raw[:10]}, nil, "without a digest")
	refused(up, chunk(0, 10, 0), nil, "out of bounds")
	refused(up, chunk(0, 10, MaxBlobBytes+1), nil, "out of bounds")
	refused(up, chunk(2995, 5, 2999), nil, "exceeds declared total")
	refused(up, &BlobChunkReq{Digest: digest, Offset: -1, Total: 3000, Data: raw[:10]}, nil, "exceeds declared total")
	refused(up, chunk(1000, 1000, 3000), nil, "first chunk must start at offset 0")

	// Out of order: a gap, then a repeat; each resets the upload.
	accepted(up, chunk(0, 1000, 3000), 1000)
	refused(up, chunk(2000, 1000, 3000), nil, "out-of-order chunk at 2000 (have 1000 of 3000); upload reset")
	if up.Len() != 0 {
		t.Errorf("reset upload still stages %d bytes", up.Len())
	}
	refused(up, chunk(1000, 1000, 3000), nil, "first chunk must start at offset 0")
	accepted(up, chunk(0, 1000, 3000), 1000)
	accepted(up, chunk(1000, 1000, 3000), 2000)
	refused(up, chunk(1000, 1000, 3000), nil, "out-of-order chunk at 1000 (have 2000 of 3000)")

	// Total mismatch mid-sequence.
	accepted(up, chunk(0, 1000, 3000), 1000)
	refused(up, chunk(1000, 1000, 2500), nil, "out-of-order chunk")
	if up.Len() != 0 {
		t.Errorf("upload whose total changed still stages %d bytes", up.Len())
	}

	// Digest mismatch on completion: the right number of wrong bytes.
	wrong := append([]byte(nil), raw...)
	wrong[1500] ^= 0xff
	accepted(up, chunk(0, 1500, 3000), 1500)
	refused(up, &BlobChunkReq{Digest: digest, Offset: 1500, Total: 3000, Data: wrong[1500:]}, nil, "not the declared")
	if up.Len() != 0 {
		t.Errorf("upload that failed its digest still stages %d bytes", up.Len())
	}
}

// TestPushFinishedBlobAgain: a digest the keeper already holds is
// acknowledged as complete at the first chunk — from the same uploader or
// another, mid-upload or not — and nothing is staged or replaced.
func TestPushFinishedBlobAgain(t *testing.T) {
	raw, digest := blobOf(5, BlobChunkBytes+10)
	k := newKeeper()
	if err := k.pushBlob(digest, raw); err != nil {
		t.Fatal(err)
	}
	first := k.held[digest]
	k.acks = nil
	if err := k.pushBlob(digest, raw); err != nil {
		t.Fatal(err)
	}
	if len(k.acks) != 1 || k.acks[0].Offset != int64(len(raw)) || &k.held[digest][0] != &first[0] {
		t.Errorf("re-push: acks %+v; blob replaced: %v", k.acks, &k.held[digest][0] != &first[0])
	}
	// Another uploader was halfway when the first finished.
	other := new(Upload)
	if ack, _ := other.Push(&BlobChunkReq{Digest: digest, Offset: 0, Total: int64(len(raw)), Data: raw[:BlobChunkBytes]}, nil); ack.Err != "" {
		t.Fatal(ack.Err)
	}
	ack, blob := other.Push(&BlobChunkReq{Digest: digest, Offset: BlobChunkBytes, Total: int64(len(raw)), Data: raw[BlobChunkBytes:]}, first)
	if ack.Err != "" || ack.Offset != int64(len(raw)) || blob != nil || other.Len() != 0 {
		t.Errorf("late uploader: ack %+v, blob %v, staged %d", ack, blob != nil, other.Len())
	}
}

// TestUploadCapacityFollowsBytesReceived: the declared total bounds an
// upload, it does not size it — a 1-byte chunk declaring 1 GiB costs at most
// one chunk of memory. TotalAlloc counts every goroutine's allocations, so
// the least growth of a few uploads is the one read.
func TestUploadCapacityFollowsBytesReceived(t *testing.T) {
	var before, after runtime.MemStats
	grew := uint64(math.MaxUint64)
	for range 3 {
		up := new(Upload)
		runtime.ReadMemStats(&before)
		ack, _ := up.Push(&BlobChunkReq{Digest: "d", Offset: 0, Total: MaxBlobBytes, Data: []byte{7}}, nil)
		runtime.ReadMemStats(&after)
		if ack.Err != "" || ack.Offset != 1 || ack.Total != MaxBlobBytes {
			t.Fatalf("ack %+v", ack)
		}
		if cap(up.buf) > BlobChunkBytes {
			t.Errorf("staging buffer has capacity %d", cap(up.buf))
		}
		grew = min(grew, after.TotalAlloc-before.TotalAlloc)
	}
	if grew > BlobChunkBytes+4096 {
		t.Errorf("a 1-byte chunk declaring 1 GiB allocated %d bytes, want at most one chunk (%d)", grew, BlobChunkBytes)
	}
}

// TestPushBlobStopsOnRefusalOrStall: a refused chunk ends the push with the
// receiver's reason, and an ack that does not advance is an error rather
// than a loop.
func TestPushBlobStopsOnRefusalOrStall(t *testing.T) {
	raw, digest := blobOf(6, 2*BlobChunkBytes)
	k := newKeeper()
	if err := k.pushBlob("not-the-digest", raw); err == nil || !strings.Contains(err.Error(), "not the declared") {
		t.Errorf("wrong digest: %v", err)
	}
	if len(k.held) != 0 {
		t.Error("a blob that failed its digest became fetchable")
	}
	stall := func(_ context.Context, _ string, m *msg.Message, _ []byte, _ time.Duration) (*msg.Message, error) {
		return Reply(m, msg.KindBlobChunkAck, BlobChunkResp{Digest: digest, Offset: 0, Total: int64(len(raw))}), nil
	}
	err := PushBlob(context.Background(), stall, msg.Address{Node: "client"}, msg.Address{Node: "jm", Job: "j1"}, digest, raw)
	if err == nil || !strings.Contains(err.Error(), "did not advance") {
		t.Errorf("stalled receiver: %v", err)
	}
}
