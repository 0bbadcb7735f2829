package taskmgr

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cn/internal/archive"
	"cn/internal/config"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/trace"
	"cn/internal/tuplespace"
)

// sink collects messages a TaskManager sends out.
type sink struct {
	mu   sync.Mutex
	msgs []*msg.Message
	// more is closed, and dropped, by the next send: what a waiter that
	// found nothing yet blocks on.
	more chan struct{}
}

func (s *sink) send(toNode string, m *msg.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.msgs = append(s.msgs, m)
	if s.more != nil {
		close(s.more)
		s.more = nil
	}
	return nil
}

// wait blocks until a message sent so far, or sent from now on, matches.
func (s *sink) wait(t *testing.T, what string, match func(*msg.Message) bool) *msg.Message {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		s.mu.Lock()
		for _, m := range s.msgs {
			if match(m) {
				s.mu.Unlock()
				return m
			}
		}
		if s.more == nil {
			s.more = make(chan struct{})
		}
		more := s.more
		s.mu.Unlock()
		select {
		case <-more:
		case <-timeout:
			t.Fatalf("no %s seen", what)
		}
	}
}

func (s *sink) waitKind(t *testing.T, kind msg.Kind) *msg.Message {
	t.Helper()
	return s.wait(t, kind.String()+" message", func(m *msg.Message) bool { return m.Kind == kind })
}

// batches decodes the TASK_EVENTS frames sent so far, in send order.
func (s *sink) batches(t *testing.T) (frames []*msg.Message, out []protocol.TaskEvents) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.msgs {
		if m.Kind != msg.KindTaskEvents {
			continue
		}
		var b protocol.TaskEvents
		if err := protocol.Decode(m, &b); err != nil {
			t.Fatalf("bad TASK_EVENTS frame: %v", err)
		}
		frames, out = append(frames, m), append(out, b)
	}
	return frames, out
}

// waitEvent blocks until a TASK_EVENTS frame has carried the given label
// for the task, and returns that frame and the event.
func (s *sink) waitEvent(t *testing.T, label msg.Kind, taskName string) (*msg.Message, protocol.TaskEventItem) {
	t.Helper()
	var found protocol.TaskEventItem
	m := s.wait(t, label.String()+" of "+taskName, func(m *msg.Message) bool {
		if m.Kind != msg.KindTaskEvents {
			return false
		}
		var b protocol.TaskEvents
		if err := protocol.Decode(m, &b); err != nil {
			return false
		}
		for _, ev := range b.Events {
			if ev.Kind == label && ev.Task == taskName {
				found = ev
				return true
			}
		}
		return false
	})
	return m, found
}

func registry(t *testing.T) *task.Registry {
	t.Helper()
	r := task.NewRegistry()
	r.MustRegister("tm.Noop", func() task.Task {
		return task.Func(func(task.Context) error { return nil })
	})
	return r
}

func solicitMsg(spec *task.Spec) *msg.Message {
	return protocol.Body(msg.KindTaskSolicit,
		msg.Address{Node: "jm", Job: "j1"}, msg.Address{},
		protocol.TaskSolicitReq{JobID: "j1", Spec: spec})
}

func batchMsg(req protocol.AssignTasksReq) *msg.Message {
	return protocol.Body(msg.KindAssignTasks,
		msg.Address{Node: "jm", Job: req.JobID}, msg.Address{Node: "tm1"}, req)
}

// assign sends sp as a one-element ASSIGN_TASKS batch for job j1 and returns
// the rejection reason ("" when accepted). A non-nil archive is seeded into
// the node's blob cache first, as a prior transfer would have left it.
func assign(t *testing.T, tm *TaskManager, sp *task.Spec, ar *archive.Archive) string {
	t.Helper()
	item := protocol.TaskCreate{Spec: sp}
	if ar != nil {
		if err := tm.BlobCache().Put(ar); err != nil {
			t.Fatal(err)
		}
		item.Archive = protocol.ArchiveRef{Name: ar.Name, Digest: ar.Digest()}
	}
	r := tm.HandleAssignBatch(batchMsg(protocol.AssignTasksReq{
		JobID: "j1", JobManager: "jm", ClientNode: "client", Items: []protocol.TaskCreate{item},
	}))
	var resp protocol.AssignTasksResp
	if err := protocol.Decode(r, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Rejected[sp.Name]
}

// mustAssign is assign for assignments the test expects to be accepted.
func mustAssign(t *testing.T, tm *TaskManager, sp *task.Spec) {
	t.Helper()
	if reason := assign(t, tm, sp, nil); reason != "" {
		t.Fatalf("assign %s rejected: %s", sp.Name, reason)
	}
}

// start runs an assigned task of jobID as an EXEC_TASK listing it would,
// under trace context tc, and waits for the node to report it: a TASK_FAILED
// instead of its TASK_STARTED fails the test.
func start(t *testing.T, s *sink, tm *TaskManager, jobID, name string, tc trace.Context) {
	t.Helper()
	tm.HandleExec(jobID, []string{name}, "jm", tc)
	var got protocol.TaskEventItem
	s.wait(t, "start of "+name, func(m *msg.Message) bool {
		var b protocol.TaskEvents
		if m.Kind != msg.KindTaskEvents || protocol.Decode(m, &b) != nil || b.JobID != jobID {
			return false
		}
		for _, ev := range b.Events {
			if ev.Task == name && (ev.Kind == msg.KindTaskStarted || ev.Kind == msg.KindTaskFailed) {
				got = ev
				return true
			}
		}
		return false
	})
	if got.Kind != msg.KindTaskStarted {
		t.Fatalf("%s/%s did not start: %s", jobID, name, got.Err)
	}
}

// labels counts the labels the TASK_EVENTS frames sent so far carried for
// one task.
func (s *sink) labels(t *testing.T, name string) map[msg.Kind]int {
	t.Helper()
	n := make(map[msg.Kind]int)
	_, batches := s.batches(t)
	for _, b := range batches {
		for _, ev := range b.Events {
			if ev.Task == name {
				n[ev.Kind]++
			}
		}
	}
	return n
}

// blockRegistry is registry plus a tm.Block class whose tasks run until
// release is closed.
func blockRegistry(t *testing.T) (*task.Registry, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	reg := registry(t)
	reg.MustRegister("tm.Block", func() task.Task {
		return task.Func(func(task.Context) error { <-release; return nil })
	})
	return reg, release
}

func spec(name string, memMB int) *task.Spec {
	return &task.Spec{Name: name, Class: "tm.Noop",
		Req: task.Requirements{MemoryMB: memMB, RunModel: task.RunAsThreadInTM}}
}

func TestSolicitRespectsMemory(t *testing.T) {
	s := &sink{}
	tm := New(config.Config{MemoryMB: 500, Registry: registry(t)}, "tm1", nil, s.send, nil, nil)
	defer tm.Close()
	if r := tm.HandleSolicit(solicitMsg(spec("big", 1000))); r != nil {
		t.Error("over-capacity solicit answered")
	}
	r := tm.HandleSolicit(solicitMsg(spec("fits", 400)))
	if r == nil {
		t.Fatal("fitting solicit unanswered")
	}
	var offer protocol.TMOffer
	if err := protocol.Decode(r, &offer); err != nil {
		t.Fatal(err)
	}
	if offer.Node != "tm1" || offer.FreeMemoryMB != 500 {
		t.Errorf("offer = %+v", offer)
	}
}

// TestFramesCarryTheNodesFigure: the offer, the assignment reply and the
// event batch each carry the node's figure as the frame was built, under a
// sequence that grows with every figure read: the reply counts the batch's
// reservation and the start of its run list, and the batch that reports the
// task's end counts the memory it released.
func TestFramesCarryTheNodesFigure(t *testing.T) {
	s := &sink{}
	reg, release := blockRegistry(t)
	tm := New(config.Config{MemoryMB: 1000, Registry: reg, HeartbeatInterval: -1}, "tm1", nil, s.send, nil, nil)
	defer tm.Close()
	var offer protocol.TMOffer
	if err := protocol.Decode(tm.HandleSolicit(solicitMsg(spec("probe", 0))), &offer); err != nil {
		t.Fatal(err)
	}
	if offer.Seq == 0 || offer.FreeMemoryMB != 1000 || offer.RunningTasks != 0 {
		t.Errorf("offer %+v, want a sequenced 1000 MB / 0 running", offer)
	}
	sp := spec("t1", 400)
	sp.Class = "tm.Block"
	r := tm.HandleAssignBatch(batchMsg(protocol.AssignTasksReq{JobID: "j1", JobManager: "jm", ClientNode: "client",
		Items: []protocol.TaskCreate{{Spec: sp}}, Run: []string{"t1"}}))
	var resp protocol.AssignTasksResp
	if err := protocol.Decode(r, &resp); err != nil {
		t.Fatal(err)
	}
	if c := resp.Capacity; c.Seq <= offer.Seq || c.FreeMemoryMB != 600 || c.RunningTasks != 1 {
		t.Errorf("reply figure %+v after the offer's %d, want a later 600 MB / 1 running", c, offer.Seq)
	}
	close(release)
	m, _ := s.waitEvent(t, msg.KindTaskCompleted, "t1")
	var b protocol.TaskEvents
	if err := protocol.Decode(m, &b); err != nil {
		t.Fatal(err)
	}
	if c := b.Capacity; c.Seq <= resp.Capacity.Seq || c.FreeMemoryMB != 1000 || c.RunningTasks != 0 {
		t.Errorf("figure of the batch reporting the end %+v after the reply's %d, want a later 1000 MB / 0 running", c, resp.Capacity.Seq)
	}
}

func TestAssignReservesAndReleasesMemory(t *testing.T) {
	s := &sink{}
	tm := New(config.Config{MemoryMB: 1000, Registry: registry(t)}, "tm1", nil, s.send, nil, nil)
	defer tm.Close()
	sp := spec("t1", 400)
	mustAssign(t, tm, sp)
	if tm.FreeMemoryMB() != 600 {
		t.Errorf("free = %d after reservation", tm.FreeMemoryMB())
	}
	start(t, s, tm, "j1", "t1", trace.Context{})
	// The terminal event is posted after the reservation is returned.
	s.waitEvent(t, msg.KindTaskCompleted, "t1")
	if tm.FreeMemoryMB() != 1000 {
		t.Errorf("free = %d after completion, want 1000", tm.FreeMemoryMB())
	}
}

func TestAssignRejections(t *testing.T) {
	s := &sink{}
	tm := New(config.Config{MemoryMB: 500, Registry: registry(t)}, "tm1", nil, s.send, nil, nil)
	defer tm.Close()

	check := func(sp *task.Spec, ar *archive.Archive, wantReason string) {
		t.Helper()
		reason := assign(t, tm, sp, ar)
		if reason == "" {
			t.Fatalf("assign accepted, wanted rejection %q", wantReason)
		}
		if !strings.Contains(reason, wantReason) {
			t.Errorf("reason = %q, want %q", reason, wantReason)
		}
	}

	check(spec("big", 900), nil, "insufficient memory")
	check(&task.Spec{Name: "x", Class: "tm.Unknown",
		Req: task.Requirements{MemoryMB: 10}}, nil, "not deployable")

	// Duplicate assignment.
	mustAssign(t, tm, spec("dup", 10))
	check(spec("dup", 10), nil, "already assigned")

	// Archive whose manifest class does not match the spec.
	bad, err := archive.NewBuilder("bad.jar", "tm.SomethingElse").Build()
	if err != nil {
		t.Fatal(err)
	}
	check(spec("pkg", 10), bad, "does not match")
}

// blobHolder is the JobManager as ensureBlobs sees it through New's call:
// it answers BLOB_CHUNK pulls out of the bytes it holds per digest, the way
// jobmgr.HandleBlobChunk does, and counts them.
type blobHolder struct {
	mu    sync.Mutex
	blobs map[string][]byte
	pulls map[string]int // digest -> chunk requests answered
}

func (h *blobHolder) call(_ context.Context, toNode string, m *msg.Message, dst []byte, _ time.Duration) (*msg.Message, error) {
	if m.Kind != msg.KindBlobChunk {
		return nil, errors.New("blobHolder: unexpected " + m.Kind.String())
	}
	var req protocol.BlobChunkReq
	if err := protocol.Decode(m, &req); err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.pulls == nil {
		h.pulls = make(map[string]int)
	}
	h.pulls[req.Digest]++
	raw, ok := h.blobs[req.Digest]
	if !ok {
		return protocol.Reply(m, msg.KindBlobChunkAck, protocol.BlobChunkResp{Digest: req.Digest, Err: "not held"}), nil
	}
	return protocol.Reply(m, msg.KindBlobChunkAck, protocol.SliceChunk(&req, raw)), nil
}

// total is how many chunk requests the holder answered, over all digests.
func (h *blobHolder) total() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, c := range h.pulls {
		n += c
	}
	return n
}

// noopArchive builds a small archive of class tm.Noop whose digest depends
// on name, and the ref a JobManager holding it would send.
func noopArchive(t *testing.T, name string) (*archive.Archive, protocol.ArchiveRef) {
	t.Helper()
	ar, err := archive.NewBuilder(name, "tm.Noop").AddFile("id", []byte(name)).Build()
	if err != nil {
		t.Fatal(err)
	}
	return ar, protocol.ArchiveRef{Name: ar.Name, Digest: ar.Digest(), Size: int64(len(ar.Bytes()))}
}

// assignBatch sends items as one ASSIGN_TASKS for job and decodes the answer.
func assignBatch(t *testing.T, tm *TaskManager, job string, items ...protocol.TaskCreate) protocol.AssignTasksResp {
	t.Helper()
	r := tm.HandleAssignBatch(batchMsg(protocol.AssignTasksReq{JobID: job, JobManager: "jm", ClientNode: "client", Items: items}))
	var resp protocol.AssignTasksResp
	if err := protocol.Decode(r, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAssignRejectsDigestMismatch: pulled bytes that do not hash to the
// digest the assignment references are discarded, and only the items that
// reference that digest are rejected.
func TestAssignRejectsDigestMismatch(t *testing.T) {
	good, goodRef := noopArchive(t, "good.jar")
	other, otherRef := noopArchive(t, "other.jar")
	// The holder serves good's bytes under other's digest too.
	holder := &blobHolder{blobs: map[string][]byte{goodRef.Digest: good.Bytes(), otherRef.Digest: good.Bytes()}}
	otherRef.Size = goodRef.Size
	s := &sink{}
	tm := New(config.Config{MemoryMB: 500, Registry: registry(t)}, "tm1", nil, s.send, holder.call, nil)
	defer tm.Close()
	resp := assignBatch(t, tm, "j1",
		protocol.TaskCreate{Spec: spec("dig", 10), Archive: otherRef},
		protocol.TaskCreate{Spec: spec("fine", 10), Archive: goodRef},
		protocol.TaskCreate{Spec: spec("bare", 10)})
	if !strings.Contains(resp.Rejected["dig"], "hashes to") || len(resp.Rejected) != 1 {
		t.Errorf("rejections = %v, want a digest mismatch for dig alone", resp.Rejected)
	}
	if resp.Fetched != 1 || tm.BlobCache().Has(other.Digest()) || !tm.BlobCache().Has(good.Digest()) {
		t.Errorf("fetched %d; mismatching blob cached: %v; good blob cached: %v",
			resp.Fetched, tm.BlobCache().Has(other.Digest()), tm.BlobCache().Has(good.Digest()))
	}
}

// TestAssignRefusesAdvertisedSizeBeforePulling: a ref whose Size nobody
// should allocate for — zero, negative, past MaxBlobBytes — costs no round
// trip and no buffer, and rejects its items alone.
func TestAssignRefusesAdvertisedSizeBeforePulling(t *testing.T) {
	ar, ref := noopArchive(t, "sized.jar")
	holder := &blobHolder{blobs: map[string][]byte{ref.Digest: ar.Bytes()}}
	s := &sink{}
	tm := New(config.Config{MemoryMB: 500, Registry: registry(t)}, "tm1", nil, s.send, holder.call, nil)
	defer tm.Close()
	for _, size := range []int64{0, -1, protocol.MaxBlobBytes + 1} {
		bad := ref
		bad.Size = size
		var resp protocol.AssignTasksResp
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		resp = assignBatch(t, tm, "j1",
			protocol.TaskCreate{Spec: spec("sized", 10), Archive: bad},
			protocol.TaskCreate{Spec: spec("bare", 10)})
		runtime.ReadMemStats(&ms1)
		if !strings.Contains(resp.Rejected["sized"], "out of bounds") || len(resp.Rejected) != 1 {
			t.Errorf("size %d: rejections = %v, want sized alone refused as out of bounds", size, resp.Rejected)
		}
		if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 1<<20 {
			t.Errorf("size %d: refusing it allocated %d bytes", size, grew)
		}
		tm.HandleCancel("j1")
	}
	if holder.total() != 0 || tm.BlobCache().Has(ref.Digest) {
		t.Errorf("%d chunk requests went out for refused sizes; cached: %v", holder.total(), tm.BlobCache().Has(ref.Digest))
	}
	// A size that is in bounds but not the blob's is caught by the pull.
	short := ref
	short.Size--
	if resp := assignBatch(t, tm, "j1", protocol.TaskCreate{Spec: spec("sized", 10), Archive: short}); !strings.Contains(resp.Rejected["sized"], "out of step") {
		t.Errorf("understated size: rejections = %v, want the pull out of step", resp.Rejected)
	}
}

// TestAssignDigestNotHeldRejectsItsItemsAlone: a digest the JobManager does
// not hold loses the items that name it; the rest of the batch — another
// archive, no archive — lands.
func TestAssignDigestNotHeldRejectsItsItemsAlone(t *testing.T) {
	held, heldRef := noopArchive(t, "held.jar")
	_, goneRef := noopArchive(t, "gone.jar")
	holder := &blobHolder{blobs: map[string][]byte{heldRef.Digest: held.Bytes()}}
	s := &sink{}
	tm := New(config.Config{MemoryMB: 500, Registry: registry(t)}, "tm1", nil, s.send, holder.call, nil)
	defer tm.Close()
	resp := assignBatch(t, tm, "j1",
		protocol.TaskCreate{Spec: spec("g1", 10), Archive: goneRef},
		protocol.TaskCreate{Spec: spec("h1", 10), Archive: heldRef},
		protocol.TaskCreate{Spec: spec("g2", 10), Archive: goneRef},
		protocol.TaskCreate{Spec: spec("bare", 10)})
	if len(resp.Rejected) != 2 || !strings.Contains(resp.Rejected["g1"], "not held") || resp.Rejected["g2"] != resp.Rejected["g1"] {
		t.Errorf("rejections = %v, want g1 and g2 refused as not held", resp.Rejected)
	}
	if resp.Fetched != 1 || holder.pulls[goneRef.Digest] != 1 {
		t.Errorf("fetched %d, %d requests for the missing digest; want 1 and 1", resp.Fetched, holder.pulls[goneRef.Digest])
	}
	// Without a call path nothing can be pulled: a digest not cached rejects.
	bare := New(config.Config{MemoryMB: 500, Registry: registry(t)}, "tm2", nil, s.send, nil, nil)
	defer bare.Close()
	if resp := assignBatch(t, bare, "j1", protocol.TaskCreate{Spec: spec("h1", 10), Archive: heldRef}); !strings.Contains(resp.Rejected["h1"], "no call path") {
		t.Errorf("no call path: rejections = %v", resp.Rejected)
	}
}

// TestStartErrors: an exec list naming a task never assigned here fails that
// task, and a second exec list naming a running task leaves it alone — no
// second TASK_STARTED, no TASK_FAILED — so it ends once, as it would have.
func TestStartErrors(t *testing.T) {
	s := &sink{}
	reg, release := blockRegistry(t)
	tm := New(config.Config{Registry: reg}, "tm1", nil, s.send, nil, nil)
	defer tm.Close()
	tm.HandleExec("j1", []string{"ghost"}, "jm", trace.Context{})
	if _, ev := s.waitEvent(t, msg.KindTaskFailed, "ghost"); !strings.Contains(ev.Err, "not assigned") {
		t.Errorf("unassigned task failed with %q, want \"not assigned\"", ev.Err)
	}
	sp := spec("t", 10)
	sp.Class = "tm.Block"
	mustAssign(t, tm, sp)
	start(t, s, tm, "j1", "t", trace.Context{})
	tm.HandleExec("j1", []string{"t"}, "jm", trace.Context{})
	close(release)
	s.waitEvent(t, msg.KindTaskCompleted, "t")
	if n := s.labels(t, "t"); n[msg.KindTaskStarted] != 1 || n[msg.KindTaskFailed] != 0 || n[msg.KindTaskCompleted] != 1 {
		t.Errorf("labels of t: %v, want one start and one completion", n)
	}
}

func TestCancelReleasesUnstarted(t *testing.T) {
	s := &sink{}
	tm := New(config.Config{MemoryMB: 1000, Registry: registry(t)}, "tm1", nil, s.send, nil, nil)
	defer tm.Close()
	mustAssign(t, tm, spec("idle", 300))
	if tm.FreeMemoryMB() != 700 {
		t.Fatalf("free = %d", tm.FreeMemoryMB())
	}
	tm.HandleCancel("j1")
	if tm.FreeMemoryMB() != 1000 {
		t.Errorf("free = %d after cancel, want 1000", tm.FreeMemoryMB())
	}
}

func TestBatchAssignSharedDigestFetchesOnce(t *testing.T) {
	// Two tasks referencing the same digest on one node must trigger
	// exactly one blob transfer.
	ar, ref := noopArchive(t, "shared.jar")
	holder := &blobHolder{blobs: map[string][]byte{ref.Digest: ar.Bytes()}}
	s := &sink{}
	tm := New(config.Config{MemoryMB: 1000, Registry: registry(t)}, "tm1", nil, s.send, holder.call, nil)
	defer tm.Close()

	resp := assignBatch(t, tm, "j1",
		protocol.TaskCreate{Spec: spec("t1", 100), Archive: ref},
		protocol.TaskCreate{Spec: spec("t2", 100), Archive: ref})
	if len(resp.Rejected) != 0 {
		t.Fatalf("rejections: %v", resp.Rejected)
	}
	if resp.Fetched != 1 {
		t.Errorf("fetched = %d blobs, want 1 for a shared digest", resp.Fetched)
	}
	if holder.total() != 1 {
		t.Errorf("chunk requests = %v, want one round trip for one small digest", holder.pulls)
	}
	if tm.BlobCache().Transfers() != 1 {
		t.Errorf("cache transfers = %d, want 1", tm.BlobCache().Transfers())
	}

	// A later batch (another job) reusing the digest costs zero transfers.
	again := assignBatch(t, tm, "j2", protocol.TaskCreate{Spec: spec("t1", 100), Archive: ref})
	if len(again.Rejected) != 0 || again.Fetched != 0 {
		t.Errorf("cross-job reuse: rejected=%v fetched=%d, want clean cache hit", again.Rejected, again.Fetched)
	}
	if holder.total() != 1 {
		t.Errorf("chunk requests = %v after cross-job reuse, want still 1", holder.pulls)
	}
}

// TestBatchAssignPullsEachMissingDigestOnce: k distinct missing digests cost
// k pulls — one round trip each while they fit a chunk — and a cached one
// costs none, whatever the order and however many items name each.
func TestBatchAssignPullsEachMissingDigestOnce(t *testing.T) {
	holder := &blobHolder{blobs: make(map[string][]byte)}
	s := &sink{}
	tm := New(config.Config{MemoryMB: 1000, Registry: registry(t)}, "tm1", nil, s.send, holder.call, nil)
	defer tm.Close()
	var items []protocol.TaskCreate
	refs := make([]protocol.ArchiveRef, 4)
	for i := range refs {
		var ar *archive.Archive
		ar, refs[i] = noopArchive(t, string(rune('a'+i))+".jar")
		holder.blobs[refs[i].Digest] = ar.Bytes()
		if i == 0 {
			if err := tm.BlobCache().Put(ar); err != nil { // cached before the batch
				t.Fatal(err)
			}
		}
	}
	for i, ref := range []protocol.ArchiveRef{refs[1], refs[0], refs[2], refs[1], refs[3], refs[2], refs[0]} {
		items = append(items, protocol.TaskCreate{Spec: spec("t"+string(rune('0'+i)), 10), Archive: ref})
	}
	resp := assignBatch(t, tm, "j1", items...)
	if len(resp.Rejected) != 0 || resp.Fetched != 3 {
		t.Fatalf("rejected %v, fetched %d; want none and 3", resp.Rejected, resp.Fetched)
	}
	for i, ref := range refs {
		want := 1
		if i == 0 {
			want = 0
		}
		if got := holder.pulls[ref.Digest]; got != want {
			t.Errorf("digest %d: %d chunk requests, want %d", i, got, want)
		}
	}
}

func TestCacheHitAssignmentWithRefOnlyExecutes(t *testing.T) {
	// An assignment carrying only an ArchiveRef — no bytes, no call path —
	// must execute correctly when the blob is already cached.
	ar, err := archive.NewBuilder("cached.jar", "tm.Noop").Build()
	if err != nil {
		t.Fatal(err)
	}
	s := &sink{}
	tm := New(config.Config{MemoryMB: 1000, Registry: registry(t)}, "tm1", nil, s.send, nil, nil) // no Call configured
	defer tm.Close()

	// Seed the cache as an earlier assignment's transfer would have.
	if reason := assign(t, tm, spec("seed", 10), ar); reason != "" {
		t.Fatal(reason)
	}

	// Ref-only assignment of a second task sharing the digest.
	r := tm.HandleAssignBatch(batchMsg(protocol.AssignTasksReq{
		JobID: "j1", JobManager: "jm", ClientNode: "client",
		Items: []protocol.TaskCreate{
			{Spec: spec("hit", 10), Archive: protocol.ArchiveRef{Name: ar.Name, Digest: ar.Digest()}},
		},
	}))
	var resp protocol.AssignTasksResp
	if err := protocol.Decode(r, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rejected) != 0 || resp.Fetched != 0 {
		t.Fatalf("ref-only assignment: rejected=%v fetched=%d, want cache hit", resp.Rejected, resp.Fetched)
	}
	if tm.BlobCache().Transfers() != 1 {
		t.Errorf("transfers = %d, want 1 (the seed only)", tm.BlobCache().Transfers())
	}
	start(t, s, tm, "j1", "hit", trace.Context{})
	s.waitEvent(t, msg.KindTaskCompleted, "hit")
}

func TestBatchAssignRejectsIndividually(t *testing.T) {
	// One oversubscribed task must reject alone; the rest of the batch
	// lands.
	s := &sink{}
	tm := New(config.Config{MemoryMB: 500, Registry: registry(t)}, "tm1", nil, s.send, nil, nil)
	defer tm.Close()
	r := tm.HandleAssignBatch(batchMsg(protocol.AssignTasksReq{
		JobID: "j1", JobManager: "jm", ClientNode: "client",
		Items: []protocol.TaskCreate{
			{Spec: spec("fits", 400)},
			{Spec: spec("nofit", 400)},
			{Spec: &task.Spec{Name: "badclass", Class: "tm.Unknown", Req: task.Requirements{MemoryMB: 10}}},
		},
	}))
	var resp protocol.AssignTasksResp
	if err := protocol.Decode(r, &resp); err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.Rejected["fits"]; ok {
		t.Errorf("fits rejected: %v", resp.Rejected)
	}
	if reason := resp.Rejected["nofit"]; !strings.Contains(reason, "insufficient memory") {
		t.Errorf("nofit reason = %q", reason)
	}
	if reason := resp.Rejected["badclass"]; !strings.Contains(reason, "not deployable") {
		t.Errorf("badclass reason = %q", reason)
	}
	if tm.FreeMemoryMB() != 100 {
		t.Errorf("free = %d, want 100 after one 400 MB reservation", tm.FreeMemoryMB())
	}
}

func TestBatchAssignMissingBlobRejectsOnlyAffected(t *testing.T) {
	// No call path and an uncached digest: only the referencing task is
	// rejected; archive-less tasks in the same batch still land.
	s := &sink{}
	tm := New(config.Config{MemoryMB: 1000, Registry: registry(t)}, "tm1", nil, s.send, nil, nil)
	defer tm.Close()
	r := tm.HandleAssignBatch(batchMsg(protocol.AssignTasksReq{
		JobID: "j1", JobManager: "jm", ClientNode: "client",
		Items: []protocol.TaskCreate{
			{Spec: spec("plain", 10)},
			{Spec: spec("needsblob", 10), Archive: protocol.ArchiveRef{Name: "x.jar", Digest: "feedfacedeadbeef"}},
		},
	}))
	var resp protocol.AssignTasksResp
	if err := protocol.Decode(r, &resp); err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.Rejected["plain"]; ok {
		t.Errorf("plain rejected: %v", resp.Rejected)
	}
	if _, ok := resp.Rejected["needsblob"]; !ok {
		t.Error("needsblob accepted without its blob")
	}
}

func TestUserDeliveryUnknownTask(t *testing.T) {
	s := &sink{}
	tm := New(config.Config{Registry: registry(t)}, "tm1", nil, s.send, nil, nil)
	defer tm.Close()
	m := protocol.Body(msg.KindUser, msg.Address{}, msg.Address{},
		protocol.UserPayload{JobID: "j1", ToTask: "ghost"})
	if err := tm.HandleUser(m); err == nil {
		t.Error("delivery to unknown task accepted")
	}
}

func TestCloseIdempotentAndRejectsWork(t *testing.T) {
	s := &sink{}
	tm := New(config.Config{Registry: registry(t)}, "tm1", nil, s.send, nil, nil)
	tm.Close()
	tm.Close()
	if r := tm.HandleSolicit(solicitMsg(spec("t", 10))); r != nil {
		t.Error("closed TM answered solicit")
	}
	tm.HandleExec("j1", []string{"t"}, "jm", trace.Context{})
	if frames, _ := s.batches(t); len(frames) != 0 {
		t.Errorf("closed TM reported %d event batches for an exec list, want none", len(frames))
	}
}

func TestHeartbeatCarriesTaskBeats(t *testing.T) {
	s := &sink{}
	tm := New(config.Config{MemoryMB: 1000, Registry: registry(t), HeartbeatInterval: 5 * time.Millisecond}, "tm1", nil, s.send, nil, nil)
	defer tm.Close()
	mustAssign(t, tm, spec("t1", 100))
	m := s.waitKind(t, msg.KindHeartbeat)
	var hb protocol.Heartbeat
	if err := protocol.Decode(m, &hb); err != nil {
		t.Fatal(err)
	}
	if hb.Node != "tm1" {
		t.Errorf("heartbeat node = %q", hb.Node)
	}
	if m.To.Node != "jm" {
		t.Errorf("heartbeat addressed to %q, want the assigning JobManager", m.To.Node)
	}
	// Wait for a beat that includes the assignment (the first beat may have
	// raced the assign call).
	s.wait(t, "heartbeat carrying the assignment's beat", func(mm *msg.Message) bool {
		var b protocol.Heartbeat
		if mm.Kind != msg.KindHeartbeat || protocol.Decode(mm, &b) != nil {
			return false
		}
		for _, tb := range b.Beats {
			if tb.JobID == "j1" && tb.Task == "t1" && !tb.Running {
				return true
			}
		}
		return false
	})
}

func TestHeartbeatAckUnknownJobReleasesAssignments(t *testing.T) {
	s := &sink{}
	tm := New(config.Config{MemoryMB: 1000, Registry: registry(t), HeartbeatInterval: -1}, "tm1", nil, s.send, nil, nil)
	defer tm.Close()
	mustAssign(t, tm, spec("t1", 400))
	if tm.FreeMemoryMB() != 600 {
		t.Fatalf("free = %d after reservation", tm.FreeMemoryMB())
	}
	ack := protocol.Body(msg.KindHeartbeatAck,
		msg.Address{Node: "jm"}, msg.Address{Node: "tm1"},
		protocol.HeartbeatAck{Node: "jm", UnknownJobs: []string{"j1"}})
	tm.HandleHeartbeatAck(ack)
	if tm.FreeMemoryMB() != 1000 {
		t.Errorf("free = %d after unknown-job ack, want 1000", tm.FreeMemoryMB())
	}
}

func TestReleaseIfUnstarted(t *testing.T) {
	s := &sink{}
	tm := New(config.Config{MemoryMB: 1000, Registry: registry(t), HeartbeatInterval: -1}, "tm1", nil, s.send, nil, nil)
	defer tm.Close()
	mustAssign(t, tm, spec("t1", 400))
	if !tm.ReleaseIfUnstarted("j1", "t1") {
		t.Fatal("release of an unstarted assignment refused")
	}
	if tm.FreeMemoryMB() != 1000 {
		t.Errorf("free = %d after release, want 1000", tm.FreeMemoryMB())
	}
	// Unknown and started tasks are left alone.
	if tm.ReleaseIfUnstarted("j1", "t1") {
		t.Error("double release succeeded")
	}
	mustAssign(t, tm, spec("t2", 400))
	start(t, s, tm, "j1", "t2", trace.Context{})
	if tm.ReleaseIfUnstarted("j1", "t2") {
		t.Error("release of a started task succeeded")
	}
	s.waitEvent(t, msg.KindTaskCompleted, "t2")
}

// TestTaskOutIsOneWayAndStoppedIsLocal drives a task's tuple-space ops
// against a scripted JobManager: 1 Out in protocol.TSOutWindow and every
// Flush is a call, the rest are sends marked NoReply; progress counts an Out
// when it is sent; shape is checked before anything else; and once the task
// is cancelled every op fails with ErrStopped and nothing leaves the node.
func TestTaskOutIsOneWayAndStoppedIsLocal(t *testing.T) {
	const outs = 2*protocol.TSOutWindow + 2
	var (
		mu    sync.Mutex
		calls []protocol.TSOpReq
	)
	call := func(_ context.Context, toNode string, m *msg.Message, _ []byte, _ time.Duration) (*msg.Message, error) {
		var req protocol.TSOpReq
		if err := protocol.Decode(m, &req); err != nil {
			return nil, err
		}
		mu.Lock()
		calls = append(calls, req)
		mu.Unlock()
		return protocol.Reply(m, msg.KindTSReply, protocol.TSOpResp{OK: true}), nil
	}
	sent, stopped := make(chan struct{}), make(chan []error, 1)
	reg := registry(t)
	reg.MustRegister("tm.Emitter", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			for i := 0; i < outs; i++ {
				if err := ctx.Out(tuplespace.Tuple{"n", i}); err != nil {
					return err
				}
			}
			if err := ctx.Flush(); err != nil {
				return err
			}
			close(sent)
			ctx.Recv() // returns once the cancel closes the mailbox
			_, inErr := ctx.InP(tuplespace.Template{"n", 0})
			stopped <- []error{ctx.Out(tuplespace.Tuple{"n", 0}), ctx.Flush(), inErr, ctx.Out(tuplespace.Tuple{})}
			return nil
		})
	})
	s := &sink{}
	tm := New(config.Config{MemoryMB: 1000, Registry: reg, HeartbeatInterval: -1}, "tm1", nil, s.send, call, nil)
	defer tm.Close()
	sp := spec("e", 100)
	sp.Class = "tm.Emitter"
	mustAssign(t, tm, sp)
	start(t, s, tm, "j1", "e", trace.Context{})
	select {
	case <-sent:
	case <-time.After(5 * time.Second):
		t.Fatal("the task never finished its Outs")
	}

	tsSends := func() (n int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, m := range s.msgs {
			if m.Kind != msg.KindTSOut {
				continue
			}
			n++
			var req protocol.TSOpReq
			if err := protocol.Decode(m, &req); err != nil || !req.NoReply || len(req.Tuple) != 2 || m.To.Node != "jm" {
				t.Errorf("sent TS_OUT %+v to %s (%v), want a one-way tuple to jm", req, m.To.Node, err)
			}
		}
		return n
	}
	acked := outs / protocol.TSOutWindow
	if got := tsSends(); got != outs-acked {
		t.Errorf("%d one-way TS_OUT sent for %d Outs, want %d", got, outs, outs-acked)
	}
	mu.Lock()
	if len(calls) != acked+1 {
		t.Errorf("%d calls for %d Outs and a Flush, want %d", len(calls), outs, acked+1)
	}
	for i, req := range calls {
		if flush := i == len(calls)-1; req.NoReply || (len(req.Tuple) == 0) != flush {
			t.Errorf("call %d of %d carried %+v", i+1, len(calls), req)
		}
	}
	made := len(calls)
	mu.Unlock()
	tm.mu.Lock()
	progress := tm.assigned[key("j1", "e")].progress.Load()
	tm.mu.Unlock()
	if progress != outs+1 {
		t.Errorf("progress = %d after %d Outs and a Flush", progress, outs)
	}

	tm.HandleCancel("j1")
	select {
	case errs := <-stopped:
		for i, err := range errs[:3] {
			if !errors.Is(err, task.ErrStopped) {
				t.Errorf("op %d of a cancelled task: %v, want ErrStopped", i, err)
			}
		}
		if err := errs[3]; err == nil || errors.Is(err, task.ErrStopped) {
			t.Errorf("empty tuple from a cancelled task: %v, want the shape error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled task never ran its ops")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != made || tsSends() != outs-acked {
		t.Errorf("a cancelled task's ops left the node: %d calls (had %d), %d sends (had %d)",
			len(calls), made, tsSends(), outs-acked)
	}
}
