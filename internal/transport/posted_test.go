package transport

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cn/internal/archive"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/wire"
)

// strayLog records the frames a Caller did not consume.
type strayLog struct {
	n    atomic.Int64
	last atomic.Pointer[msg.Message]
}

// callPair attaches "srv", answering every request with what reply
// returns, and "cli" with a Caller; stray records the frames cli's Caller
// did not consume.
func callPair(t testing.TB, n Network, reply func(req *msg.Message) []*msg.Message) (caller *Caller, stray *strayLog) {
	t.Helper()
	var srv Endpoint
	srv, err := n.Attach("srv", func(m *msg.Message) {
		for _, r := range reply(m) {
			if err := srv.Send(m.From.Node, r); err != nil {
				t.Errorf("reply: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	stray = new(strayLog)
	cli, err := n.Attach("cli", func(m *msg.Message) {
		if !caller.Handle(m) {
			stray.last.Store(m)
			stray.n.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewCaller(cli), stray
}

func request() *msg.Message {
	return msg.New(msg.KindDataFetch, msg.Address{Node: "cli"}, msg.Address{Node: "srv"}, nil)
}

// tailReply answers req with tail riding the frame's tail.
func tailReply(req *msg.Message, tail []byte) *msg.Message {
	r := req.Reply(msg.KindBlobChunkAck, nil)
	r.Tail = tail
	return r
}

func pattern(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestPostedReceive: on TCP a reply's tail that fits the posted buffer is
// read straight into it; on the in-memory fabric the message is handed
// over as it is and the posting stays untouched. Either way the caller
// sees the same bytes and tells the cases apart by address.
func TestPostedReceive(t *testing.T) {
	eachNetwork(t, func(t *testing.T, n Network) {
		src := pattern(300<<10, 1)
		caller, _ := callPair(t, n, func(req *msg.Message) []*msg.Message {
			return []*msg.Message{tailReply(req, src)}
		})
		dst := make([]byte, 512<<10)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		reply, err := caller.CallInto(ctx, "srv", request(), dst, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reply.Tail, src) {
			t.Fatal("reply tail differs from what was sent")
		}
		_, tcp := n.(*TCPNetwork)
		if inPlace := &reply.Tail[0] == &dst[0]; inPlace != tcp {
			t.Errorf("tail landed in the posted buffer: %v, want %v", inPlace, tcp)
		}
		if !tcp && &reply.Tail[0] != &src[0] {
			t.Error("in-memory fabric copied the tail")
		}
		if !bytes.Equal(dst[len(src):], make([]byte, len(dst)-len(src))) {
			t.Error("bytes past the tail were written")
		}
	})
}

// TestPostedReceiveTailTooLong: a tail longer than the posting is not
// written into it — it gets memory of its own, exactly as an unposted one.
func TestPostedReceiveTailTooLong(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	src := pattern(8<<10, 2)
	caller, _ := callPair(t, n, func(req *msg.Message) []*msg.Message {
		return []*msg.Message{tailReply(req, src)}
	})
	dst := make([]byte, len(src)-1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := caller.CallInto(ctx, "srv", request(), dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply.Tail, src) {
		t.Error("over-long tail was not delivered whole")
	}
	if !bytes.Equal(dst, make([]byte, len(dst))) {
		t.Error("over-long tail was written into the posted buffer")
	}
}

// TestPostedReceiveClaimedOnce: the first reply to a call claims its
// posting; a duplicate of it and a reply to a call nobody made are read
// into buffers of their own and then dropped by Caller.Handle, and neither
// disturbs what the first one delivered.
func TestPostedReceiveClaimedOnce(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	first, dup, unknown := pattern(64<<10, 3), pattern(64<<10, 4), pattern(64<<10, 5)
	caller, stray := callPair(t, n, func(req *msg.Message) []*msg.Message {
		orphan := tailReply(req, unknown)
		orphan.CorrelID = req.ID + 1<<40
		return []*msg.Message{tailReply(req, first), tailReply(req, dup), orphan}
	})
	dst := make([]byte, 64<<10)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := caller.CallInto(ctx, "srv", request(), dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &reply.Tail[0] != &dst[0] {
		t.Fatal("first reply did not land in the posted buffer")
	}
	waitFor(t, 2*time.Second, func() bool { return stray.n.Load() == 2 }, "the duplicate and the unknown reply to be dropped")
	if !bytes.Equal(dst, first) {
		t.Error("a later reply overwrote the claimed buffer")
	}
	if got := n.Stats().FrameErrors.Load(); got != 0 {
		t.Errorf("%d frame errors", got)
	}
}

// TestCallIntoTimeoutMidTail: a call that gives up while the reader is in
// the middle of its reply's tail returns an error and leaves the reader
// writing into the posted buffer. The caller's side of that contract is to
// let the buffer go, which is all this test does with it — under -race any
// touch would be reported.
func TestCallIntoTimeoutMidTail(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	reqs := make(chan *msg.Message, 1)
	caller, stray := callPair(t, n, func(req *msg.Message) []*msg.Message {
		reqs <- req
		return nil
	})
	dst := make([]byte, 256<<10)
	posted := &dst[0]
	result := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		defer cancel()
		_, err := caller.CallInto(ctx, "srv", request(), dst, 0)
		dst = nil // the caller's whole duty after an error: drop it
		result <- err
	}()

	// A peer that sends the reply's head and half its tail, then stalls.
	src := pattern(256<<10, 6)
	reply := tailReply(<-reqs, src)
	head, err := wire.AppendFrameHead(nil, reply)
	if err != nil {
		t.Fatal(err)
	}
	peer := dialEndpoint(t, n, "cli", "srv")
	defer peer.Close()
	if _, err := peer.Write(append(head, src[:len(src)/2]...)); err != nil {
		t.Fatal(err)
	}
	if err := <-result; err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("CallInto = %v, want a deadline error", err)
	}
	// The rest arrives after the caller left: the reader finishes the frame
	// in the buffer it claimed and the reply, now nobody's, is dropped.
	if _, err := peer.Write(src[len(src)/2:]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return stray.n.Load() == 1 }, "the late reply to be dropped")
	if late := stray.last.Load(); &late.Tail[0] != posted || !bytes.Equal(late.Tail, src) {
		t.Error("the reader did not finish the tail in the buffer it had claimed")
	}
}

// chunkServer answers chunk pulls out of blob, after tamper (when not nil)
// has had its way with the honest reply.
func chunkServer(blob []byte, tamper func(*protocol.BlobChunkResp)) func(*msg.Message) []*msg.Message {
	return func(m *msg.Message) []*msg.Message {
		var req protocol.BlobChunkReq
		if err := protocol.Decode(m, &req); err != nil {
			return []*msg.Message{protocol.Reply(m, msg.KindBlobChunkAck, protocol.BlobChunkResp{Err: err.Error()})}
		}
		resp := protocol.SliceChunk(&req, blob)
		if tamper != nil {
			tamper(&resp)
		}
		return []*msg.Message{protocol.Reply(m, msg.KindBlobChunkAck, resp)}
	}
}

// pull pulls into a destination of its own, as the archive pull does.
func pull(caller *Caller, digest string, size int64) ([]byte, error) {
	if err := protocol.CheckBlobSize(size); err != nil {
		return nil, err
	}
	dst := make([]byte, size)
	if err := pullInto(caller, digest, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

func pullInto(caller *Caller, digest string, dst []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return protocol.PullBlob(ctx, caller.CallInto, msg.KindDataFetch,
		msg.Address{Node: "cli", Job: "j"}, msg.Address{Node: "srv", Job: "j"}, digest, dst)
}

// TestPullBlob: the one chunk client against the one chunk server, on both
// fabrics — a multi-chunk blob arrives byte-identical, and every way a
// producer can step out of line is refused at the chunk it happens on.
func TestPullBlob(t *testing.T) {
	blob := pattern(2*protocol.BlobChunkBytes+12345, 7)
	digest := archive.DigestBytes(blob)
	size := int64(len(blob))
	for name, tc := range map[string]struct {
		tamper  func(*protocol.BlobChunkResp)
		size    int64
		wantErr string
	}{
		"honest": {size: size},
		"chunk longer than asked for": {size: size, wantErr: "out of step",
			tamper: func(r *protocol.BlobChunkResp) {
				if r.Offset == 0 {
					r.Data = blob[:protocol.BlobChunkBytes+1]
				}
			}},
		"chunk runs past the advertised size": {size: size, wantErr: "out of step",
			tamper: func(r *protocol.BlobChunkResp) {
				if r.Offset > protocol.BlobChunkBytes {
					r.Data = append(append([]byte(nil), r.Data...), 0xee)
				}
			}},
		"wrong offset": {size: size, wantErr: "out of step",
			tamper: func(r *protocol.BlobChunkResp) { r.Offset++ }},
		"wrong total": {size: size, wantErr: "out of step",
			tamper: func(r *protocol.BlobChunkResp) { r.Total-- }},
		"empty chunk": {size: size, wantErr: "out of step",
			tamper: func(r *protocol.BlobChunkResp) { r.Data = nil }},
		"flipped byte": {size: size, wantErr: "hashes to",
			tamper: func(r *protocol.BlobChunkResp) {
				if r.Offset == 0 {
					r.Data = append([]byte(nil), r.Data...)
					r.Data[99] ^= 1
				}
			}},
		"size out of bounds": {size: protocol.MaxBlobBytes + 1, wantErr: "out of bounds"},
	} {
		t.Run(name, func(t *testing.T) {
			eachNetwork(t, func(t *testing.T, n Network) {
				caller, _ := callPair(t, n, chunkServer(blob, tc.tamper))
				got, err := pull(caller, digest, tc.size)
				if tc.wantErr == "" {
					if err != nil || !bytes.Equal(got, blob) {
						t.Fatalf("pull: err %v, %d bytes (want %d, identical)", err, len(got), len(blob))
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("pull = %d bytes, %v; want an error containing %q", len(got), err, tc.wantErr)
				}
				if got != nil {
					t.Error("a refused pull returned bytes")
				}
			})
		})
	}
}

// chunkPullBench pulls a 3 MiB blob per iteration over one TCP connection
// pair, as a shuffle consumer does: into a destination it was handed and
// hands on (warm — a buffer off the node cache's free list, not zeroed, not
// allocated), or into a fresh one per pull as the archive pull does.
func chunkPullBench(warm bool) func(b *testing.B) {
	return func(b *testing.B) {
		const size = 3 << 20
		blob := pattern(size, 8)
		digest := archive.DigestBytes(blob)
		n := NewTCPNetwork()
		defer n.Close()
		caller, _ := callPair(b, n, chunkServer(blob, nil))
		dst := make([]byte, size)
		if err := pullInto(caller, digest, dst); err != nil { // dial both ways first
			b.Fatal(err)
		}
		b.SetBytes(size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !warm {
				dst = make([]byte, size)
			}
			if err := pullInto(caller, digest, dst); err != nil {
				b.Fatalf("pull: %v", err)
			}
		}
		b.StopTimer()
		if !bytes.Equal(dst, blob) {
			b.Fatal("the pulled bytes differ")
		}
	}
}

// BenchmarkChunkPull: go test ./internal/transport -run '^$' -bench ChunkPull -benchmem
func BenchmarkChunkPull(b *testing.B) {
	b.Run("fresh", chunkPullBench(false))
	b.Run("warm", chunkPullBench(true))
}

// TestChunkPullCopyGuard: pulling a 3 MiB blob over TCP into a destination
// the caller supplies — request encode, serve, scatter-gather send, posted
// receive, reassembly, the digest taken chunk by chunk, both ends in this
// process — allocates nothing the size of a chunk, let alone of the blob.
// Before the bulk tail it was about three times the blob (a payload and a
// frame buffer per chunk on the way out, a frame body per chunk on the way
// in, the reassembly's own copy); until the destination came from the
// caller it was the blob plus this.
func TestChunkPullCopyGuard(t *testing.T) {
	res := testing.Benchmark(chunkPullBench(true))
	if got := res.AllocedBytesPerOp(); got > 64<<10 {
		t.Errorf("pulling a 3 MiB blob into a supplied destination allocates %d bytes (%d allocs), want under 64 KiB", got, res.AllocsPerOp())
	}
}
