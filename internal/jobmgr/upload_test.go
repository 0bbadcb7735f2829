package jobmgr

import (
	"bytes"
	"strings"
	"testing"

	"cn/internal/archive"
	"cn/internal/config"
	"cn/internal/protocol"
)

// TestStagedUploadBudget: what a job's uploaders have staged between them is
// bounded — abandoned partial uploads under many digests cannot pile up. The
// chunk that would pass the budget is refused and its own upload dropped; the
// others keep their place, a restart does not count the bytes it discards, a
// re-push of a blob the job already holds is acknowledged whatever is in
// flight, and a finished job takes no chunk at all.
func TestStagedUploadBudget(t *testing.T) {
	jm := New(config.Config{HeartbeatInterval: -1}, "n1", nil, noSend, nil, nil)
	defer jm.Close()
	j := openTestJob(t, jm, "uploads")

	const budget = 1000
	blob := bytes.Repeat([]byte{7}, 600)
	digest := archive.DigestBytes(blob)
	push := func(from, digest string, off, n int) protocol.BlobChunkResp {
		return jm.stageChunk(j, from, &protocol.BlobChunkReq{JobID: j.id, Digest: digest, Offset: int64(off), Total: 600, Data: blob[off : off+n]}, budget)
	}
	staged := func() (n int64) {
		j.mu.Lock()
		defer j.mu.Unlock()
		for _, up := range j.staged {
			n += up.Len()
		}
		return n
	}

	// Two abandoned halves under other digests: 800 of 1000 bytes in flight.
	for _, d := range []string{"abandoned-1", "abandoned-2"} {
		if ack := push("c1", d, 0, 400); ack.Err != "" || ack.Offset != 400 {
			t.Fatalf("half upload of %s: %+v", d, ack)
		}
	}
	// A third upload fits its first 200 bytes, not the next 200.
	if ack := push("c2", digest, 0, 200); ack.Err != "" {
		t.Fatalf("chunk within budget refused: %+v", ack)
	}
	ack := push("c2", digest, 200, 200)
	if !strings.Contains(ack.Err, "staged-upload budget exhausted (1000 bytes in flight)") {
		t.Errorf("chunk past the budget: %+v", ack)
	}
	if got := staged(); got != 800 {
		t.Errorf("%d bytes staged after the refusal, want the two abandoned halves (800)", got)
	}
	if ack := push("c2", digest, 200, 200); !strings.Contains(ack.Err, "first chunk must start at offset 0") {
		t.Errorf("the refused upload was kept: %+v", ack)
	}
	// A restart discards what it had: c1 starting abandoned-1 over counts
	// 400 in flight, not 800, and fits.
	if ack := push("c1", "abandoned-1", 0, 600); !strings.Contains(ack.Err, "not the declared") {
		t.Errorf("restarted upload completing with wrong bytes: %+v", ack)
	}
	if got := staged(); got != 400 {
		t.Errorf("%d bytes staged, want abandoned-2's 400", got)
	}
	// The blob lands in one chunk; pushing it again — by anyone, with the
	// budget full — is acknowledged as complete and stages nothing.
	if ack := push("c2", digest, 0, 600); ack.Err != "" || ack.Offset != 600 {
		t.Fatalf("whole blob: %+v", ack)
	}
	if ack := push("c1", "abandoned-3", 0, 400); ack.Err != "" {
		t.Fatal(ack.Err)
	}
	if ack := push("c3", "fresh", 0, 400); !strings.Contains(ack.Err, "budget exhausted (800 bytes in flight)") {
		t.Errorf("a new upload with 800 of 1000 bytes in flight: %+v", ack)
	}
	if ack := push("c3", digest, 0, 400); ack.Err != "" || ack.Offset != 600 || ack.Total != 600 {
		t.Errorf("re-push of a held blob with the budget full: %+v", ack)
	}
	j.mu.Lock()
	held, uploads := j.blobs[digest], len(j.staged)
	j.mu.Unlock()
	if !bytes.Equal(held, blob) || uploads != 2 {
		t.Errorf("held blob intact: %v; %d uploads staged, want 2", bytes.Equal(held, blob), uploads)
	}

	j.mu.Lock()
	j.notified = true
	j.mu.Unlock()
	if ack := push("c2", "late", 0, 100); !strings.Contains(ack.Err, "already finished") {
		t.Errorf("chunk for a finished job: %+v", ack)
	}
}
