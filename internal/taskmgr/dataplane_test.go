package taskmgr

// The TaskManager's part of docs/DATAPLANE.md's "Lifetime of a shuffled
// byte", as tests: who holds a blob and until when. Under the race detector
// the node caches poison every buffer the moment it is freed, so "right
// bytes" below also means "not freed under the reader".

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"cn/internal/archive"
	"cn/internal/config"
	"cn/internal/msg"
	"cn/internal/protocol"
	"cn/internal/task"
	"cn/internal/trace"
)

// dpFabric wires TaskManagers to each other and to a scripted broker: it is
// the CallFunc of each. Adverts are kept per job and key; a chunk pull is
// served by the named node's HandleDataFetch and delivered the way TCP
// delivers it — the tail lands in the region the call posted, and the
// reply's TailDone fires once it has been "written".
type dpFabric struct {
	mu  sync.Mutex
	tms map[string]*TaskManager
	// locs holds, per advert, the DATA_LOC message that answers a resolve
	// of it. The caller gets the stored message itself: nothing here
	// correlates replies, and the allocation guard below measures the
	// TaskManager, not this script.
	locs   map[dpKey]*msg.Message
	closed map[string]bool
	// beforeServe, when set, runs before each chunk request is served.
	beforeServe func(req protocol.BlobChunkReq)
}

type dpKey struct{ job, key string }

// dpAck answers every DATA_PUT: the producer reads only Err and Closed.
var dpAck = protocol.Body(msg.KindDataLoc, msg.Address{Node: "jm"}, msg.Address{}, protocol.DataLocResp{})

func newDPFabric() *dpFabric {
	return &dpFabric{tms: make(map[string]*TaskManager), locs: make(map[dpKey]*msg.Message), closed: make(map[string]bool)}
}

// node boots a TaskManager on the fabric; its lifecycle events go to the
// returned sink.
func (f *dpFabric) node(t *testing.T, name string, reg *task.Registry) (*TaskManager, *sink) {
	t.Helper()
	return f.tracedNode(t, name, reg, nil)
}

// tracedNode is node with a tracer: a traced task's spans ride its terminal
// event.
func (f *dpFabric) tracedNode(t *testing.T, name string, reg *task.Registry, tracer *trace.Tracer) (*TaskManager, *sink) {
	t.Helper()
	s := &sink{}
	tm := New(config.Config{MemoryMB: 1000, Registry: reg, HeartbeatInterval: -1}, name, tracer, s.send, f.call, nil)
	t.Cleanup(tm.Close)
	f.mu.Lock()
	f.tms[name] = tm
	f.mu.Unlock()
	return tm, s
}

// finish is what a job's end looks like from here: its broker closes and
// every node gets the CANCEL_JOB without a task list.
func (f *dpFabric) finish(jobID string) {
	f.mu.Lock()
	f.closed[jobID] = true
	tms := make([]*TaskManager, 0, len(f.tms))
	for _, tm := range f.tms {
		tms = append(tms, tm)
	}
	f.mu.Unlock()
	for _, tm := range tms {
		tm.HandleCancel(jobID)
	}
}

func (f *dpFabric) call(_ context.Context, toNode string, m *msg.Message, dst []byte, _ time.Duration) (*msg.Message, error) {
	loc := func(resp protocol.DataLocResp) (*msg.Message, error) {
		return protocol.Reply(m, msg.KindDataLoc, resp), nil
	}
	switch m.Kind {
	case msg.KindDataPut:
		var req protocol.DataPutReq
		if err := protocol.Decode(m, &req); err != nil {
			return nil, err
		}
		answer := protocol.Body(msg.KindDataLoc, m.To, m.From,
			protocol.DataLocResp{Key: req.Key, Digest: req.Digest, Node: req.Node, Size: req.Size, Data: req.Data})
		f.mu.Lock()
		f.locs[dpKey{req.JobID, req.Key}] = answer
		f.mu.Unlock()
		return dpAck, nil
	case msg.KindDataResolve:
		var req protocol.DataResolveReq
		if err := protocol.Decode(m, &req); err != nil {
			return nil, err
		}
		f.mu.Lock()
		answer, ok := f.locs[dpKey{req.JobID, req.Key}]
		closed := f.closed[req.JobID]
		f.mu.Unlock()
		switch {
		case closed:
			return loc(protocol.DataLocResp{Key: req.Key, Closed: true})
		case !ok:
			return loc(protocol.DataLocResp{Key: req.Key, Err: "not published"})
		}
		return answer, nil
	case msg.KindDataFetch:
		var req protocol.BlobChunkReq
		if err := protocol.Decode(m, &req); err != nil {
			return nil, err
		}
		f.mu.Lock()
		peer, before := f.tms[toNode], f.beforeServe
		f.mu.Unlock()
		if before != nil {
			before(req)
		}
		reply := peer.HandleDataFetch(m)
		wire := *reply
		wire.Tail, wire.TailDone = dst[:copy(dst, reply.Tail)], nil
		if reply.TailDone != nil {
			reply.TailDone()
		}
		return &wire, nil
	}
	return nil, fmt.Errorf("dpFabric: unexpected %s", m.Kind)
}

// dpBlob is a payload whose every byte depends on seed.
func dpBlob(seed, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(seed*31 + i + i>>8)
	}
	return p
}

// runTask assigns and starts one task of class on tm for job, and returns
// once its terminal event has been posted, with that event.
func runTask(t *testing.T, tm *TaskManager, s *sink, jobID, name, class string) protocol.TaskEventItem {
	t.Helper()
	startTask(t, tm, jobID, name, class)
	return waitTerminal(t, s, name)
}

func startTask(t *testing.T, tm *TaskManager, jobID, name, class string) {
	t.Helper()
	startTraced(t, tm, jobID, name, class, trace.Context{})
}

// startTraced is startTask for a task dispatched under trace context tc.
func startTraced(t *testing.T, tm *TaskManager, jobID, name, class string, tc trace.Context) {
	t.Helper()
	sp := spec(name, 10)
	sp.Class = class
	r := tm.HandleAssignBatch(batchMsg(protocol.AssignTasksReq{
		JobID: jobID, JobManager: "jm", ClientNode: "client", Items: []protocol.TaskCreate{{Spec: sp}},
	}))
	var resp protocol.AssignTasksResp
	if err := protocol.Decode(r, &resp); err != nil || len(resp.Rejected) != 0 {
		t.Fatalf("assign %s/%s: %v, rejected %v", jobID, name, err, resp.Rejected)
	}
	tm.HandleExec(jobID, []string{name}, "jm", tc)
}

func waitTerminal(t *testing.T, s *sink, name string) protocol.TaskEventItem {
	t.Helper()
	var found protocol.TaskEventItem
	s.wait(t, "terminal event of "+name, func(m *msg.Message) bool {
		if m.Kind != msg.KindTaskEvents {
			return false
		}
		var b protocol.TaskEvents
		if err := protocol.Decode(m, &b); err != nil {
			return false
		}
		for _, ev := range b.Events {
			if ev.Task == name && ev.Kind != msg.KindTaskStarted {
				found = ev
				return true
			}
		}
		return false
	})
	return found
}

// putter registers a class whose task puts payload under key.
func putter(reg *task.Registry, class, key string, payload []byte) {
	reg.MustRegister(class, func() task.Task {
		return task.Func(func(ctx task.Context) error { return ctx.Put(key, payload) })
	})
}

// TestTaskHoldsWhatGetReturnedUntilRunReturns: the slice Get hands a task is
// the cache's own buffer, clipped to its length, and stays the task's for as
// long as its Run runs — even if the job's entries leave the cache meanwhile.
// By the time the task's terminal event has been posted nothing holds the
// buffer any more.
func TestTaskHoldsWhatGetReturnedUntilRunReturns(t *testing.T) {
	const size = 1 << 20
	want := dpBlob(1, size)
	f := newDPFabric()
	reg := registry(t)
	putter(reg, "dp.Put", "k", want)
	got, gate := make(chan []byte), make(chan struct{})
	reg.MustRegister("dp.GetAndWait", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			data, err := ctx.Get(context.Background(), "k")
			if err != nil {
				return err
			}
			got <- data
			<-gate
			if !bytes.Equal(data, want) {
				return fmt.Errorf("the bytes changed while the task held them")
			}
			return nil
		})
	})
	a, sa := f.node(t, "a", reg)
	b, sb := f.node(t, "b", reg)
	if ev := runTask(t, a, sa, "j1", "p", "dp.Put"); ev.Kind != msg.KindTaskCompleted {
		t.Fatalf("producer: %+v", ev)
	}
	if a.blobs.LiveBlobs() != 1 || a.blobs.OwnedBy("j1") != 1 {
		t.Fatalf("producer node: %d live blobs, job owns %d; want the entry's hold alone", a.blobs.LiveBlobs(), a.blobs.OwnedBy("j1"))
	}

	startTask(t, b, "j1", "c", "dp.GetAndWait")
	data := <-got
	if len(data) != size || cap(data) != size {
		t.Errorf("Get returned len %d cap %d, want the blob clipped to its %d bytes", len(data), cap(data), size)
	}
	// The entries leave under the running task (a lost copy of the job
	// finished elsewhere): the task's hold is what keeps the bytes.
	a.blobs.ReleaseJob("j1")
	b.blobs.ReleaseJob("j1")
	if a.blobs.LiveBlobs() != 0 {
		t.Errorf("producer node: %d live blobs after the job's release; no reply frame is in flight", a.blobs.LiveBlobs())
	}
	if b.blobs.LiveBlobs() != 1 || b.blobs.Len() != 0 {
		t.Errorf("consumer node: %d live blobs, %d entries; want the task's hold alone", b.blobs.LiveBlobs(), b.blobs.Len())
	}
	close(gate)
	if ev := waitTerminal(t, sb, "c"); ev.Kind != msg.KindTaskCompleted {
		t.Fatalf("consumer: %+v", ev)
	}
	if n := b.blobs.LiveBlobs(); n != 0 {
		t.Errorf("%d live blobs on the consumer node once its terminal event was posted", n)
	}
	if b.blobs.FreeBytes() != size {
		t.Errorf("consumer node's free list holds %d bytes, want the released buffer", b.blobs.FreeBytes())
	}
}

// TestBatchRollbackKeepsBlobsJobEndReleasesThem: CANCEL_JOB with a task list
// undoes a placement batch and says nothing about the job; without one it is
// the job's end, and what the job put into this node's cache leaves with it.
func TestBatchRollbackKeepsBlobsJobEndReleasesThem(t *testing.T) {
	f := newDPFabric()
	reg := registry(t)
	putter(reg, "dp.Put", "k", dpBlob(2, 256<<10))
	tm, s := f.node(t, "a", reg)
	runTask(t, tm, s, "j1", "p", "dp.Put")
	mustAssign(t, tm, spec("unstarted", 10)) // job j1, never started

	tm.HandleCancel("j1", "unstarted")
	if tm.blobs.OwnedBy("j1") != 1 || tm.blobs.Len() != 1 {
		t.Fatalf("a batch rollback released the job's blobs: owns %d, %d entries", tm.blobs.OwnedBy("j1"), tm.blobs.Len())
	}
	if free := tm.FreeMemoryMB(); free != 1000 {
		t.Errorf("free memory %d MB after the rollback, want the reservation back", free)
	}
	tm.HandleCancel("j1")
	if tm.blobs.OwnedBy("j1") != 0 || tm.blobs.Len() != 0 || tm.blobs.LiveBlobs() != 0 {
		t.Errorf("after the job's end: owns %d, %d entries, %d live blobs", tm.blobs.OwnedBy("j1"), tm.blobs.Len(), tm.blobs.LiveBlobs())
	}
	if tm.blobs.FreeBytes() != 256<<10 {
		t.Errorf("free list holds %d bytes, want the job's one buffer", tm.blobs.FreeBytes())
	}
}

// TestFirstJobToFinishLeavesSharedBytes: two jobs put identical bytes on one
// node; the first finishes before the second's consumers have read them.
// Both the remote consumer and the local one still get them.
func TestFirstJobToFinishLeavesSharedBytes(t *testing.T) {
	want := dpBlob(3, 1<<20)
	f := newDPFabric()
	reg := registry(t)
	putter(reg, "dp.Put", "k", want)
	reg.MustRegister("dp.Check", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			data, err := ctx.Get(context.Background(), "k")
			if err != nil {
				return err
			}
			if !bytes.Equal(data, want) {
				return fmt.Errorf("wrong bytes")
			}
			return nil
		})
	})
	a, sa := f.node(t, "a", reg)
	b, sb := f.node(t, "b", reg)
	runTask(t, a, sa, "j1", "p1", "dp.Put")
	runTask(t, a, sa, "j2", "p2", "dp.Put")
	if a.blobs.Len() != 1 || a.blobs.OwnedBy("j1") != 1 || a.blobs.OwnedBy("j2") != 1 {
		t.Fatalf("%d entries; j1 owns %d, j2 owns %d; want one entry with two owners", a.blobs.Len(), a.blobs.OwnedBy("j1"), a.blobs.OwnedBy("j2"))
	}
	f.finish("j1")
	if ev := runTask(t, b, sb, "j2", "remote", "dp.Check"); ev.Kind != msg.KindTaskCompleted {
		t.Errorf("the second job's remote consumer: %+v", ev)
	}
	if ev := runTask(t, a, sa, "j2", "local", "dp.Check"); ev.Kind != msg.KindTaskCompleted {
		t.Errorf("the second job's local consumer: %+v", ev)
	}
	f.finish("j2")
	for name, tm := range map[string]*TaskManager{"a": a, "b": b} {
		if tm.blobs.Len() != 0 || tm.blobs.LiveBlobs() != 0 {
			t.Errorf("node %s after both jobs: %d entries, %d live blobs", name, tm.blobs.Len(), tm.blobs.LiveBlobs())
		}
	}
}

// TestJobEndingMidPullNeverYieldsWrongBytes: a consumer is part-way through a
// four-chunk pull when its job ends under it (it is the copy that lost a
// speculative race: the job completed without it). Whichever chunk the end
// lands before, the consumer gets the right bytes or an error — never bytes
// of a buffer that was let go — and afterwards neither node holds anything.
func TestJobEndingMidPullNeverYieldsWrongBytes(t *testing.T) {
	const size = 3 << 20
	want := dpBlob(4, size)
	sum := crc32.ChecksumIEEE(want)
	for cut := 0; cut <= 4; cut++ {
		t.Run(fmt.Sprintf("before chunk %d", cut), func(t *testing.T) {
			f := newDPFabric()
			reg := registry(t)
			putter(reg, "dp.Put", "k", want)
			outcome := make(chan error, 1)
			reg.MustRegister("dp.Pull", func() task.Task {
				return task.Func(func(ctx task.Context) error {
					data, err := ctx.Get(context.Background(), "k")
					if err == nil && (len(data) != size || crc32.ChecksumIEEE(data) != sum) {
						outcome <- fmt.Errorf("Get returned wrong bytes")
						return nil
					}
					outcome <- nil
					return err
				})
			})
			a, sa := f.node(t, "a", reg)
			b, sb := f.node(t, "b", reg)
			runTask(t, a, sa, "j1", "p", "dp.Put")
			served := 0
			f.mu.Lock()
			f.beforeServe = func(protocol.BlobChunkReq) {
				if served == cut {
					f.finish("j1")
				}
				served++
			}
			f.mu.Unlock()
			startTask(t, b, "j1", "c", "dp.Pull")
			if err := <-outcome; err != nil {
				t.Error(err)
			}
			waitTerminal(t, sb, "c")
			if cut == 4 {
				f.finish("j1") // the pull was over before anything ended the job
			}
			for name, tm := range map[string]*TaskManager{"a": a, "b": b} {
				if tm.blobs.LiveBlobs() != 0 || tm.blobs.OwnedBy("j1") != 0 {
					t.Errorf("node %s: %d live blobs, job owns %d", name, tm.blobs.LiveBlobs(), tm.blobs.OwnedBy("j1"))
				}
			}
		})
	}
}

// TestGetAfterRunReturnedHoldsNothing: a goroutine the task left behind gets
// ErrStopped from Get and leaves no hold.
func TestGetAfterRunReturnedHoldsNothing(t *testing.T) {
	f := newDPFabric()
	reg := registry(t)
	putter(reg, "dp.Put", "k", dpBlob(5, 128<<10))
	leaked, late := make(chan task.Context, 1), make(chan error, 1)
	reg.MustRegister("dp.Leak", func() task.Task {
		return task.Func(func(ctx task.Context) error { leaked <- ctx; return nil })
	})
	tm, s := f.node(t, "a", reg)
	runTask(t, tm, s, "j1", "p", "dp.Put")
	runTask(t, tm, s, "j1", "l", "dp.Leak")
	ctx := <-leaked
	go func() {
		_, err := ctx.Get(context.Background(), "k")
		late <- err
	}()
	select {
	case err := <-late:
		if err == nil {
			t.Error("Get after Run returned handed out a buffer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late Get hung")
	}
	tm.HandleCancel("j1")
	if n := tm.blobs.LiveBlobs(); n != 0 {
		t.Errorf("%d live blobs: the late Get kept a hold", n)
	}
}

// TestGetNearItsDeadlineResolvesPublishedKey: a Get with less than the park
// margin left on its deadline still resolves — a resolve destroys nothing,
// so it goes out with the shortest window — and a published key answers.
func TestGetNearItsDeadlineResolvesPublishedKey(t *testing.T) {
	want := dpBlob(7, 64<<10)
	f := newDPFabric()
	reg := registry(t)
	putter(reg, "dp.Put", "k", want)
	reg.MustRegister("dp.GetSoon", func() task.Task {
		return task.Func(func(ctx task.Context) error {
			dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			data, err := ctx.Get(dctx, "k")
			if err == nil && !bytes.Equal(data, want) {
				err = fmt.Errorf("wrong bytes")
			}
			return err
		})
	})
	a, sa := f.node(t, "a", reg)
	b, sb := f.node(t, "b", reg)
	runTask(t, a, sa, "j1", "p", "dp.Put")
	if ev := runTask(t, b, sb, "j1", "c", "dp.GetSoon"); ev.Kind != msg.KindTaskCompleted {
		t.Fatalf("a Get with 100 ms left on a published key: %+v", ev)
	}
	f.finish("j1")
}

// TestWarmPutGetAllocs: once the node's free list has a buffer of the class,
// putting a 3 MiB blob and getting it back — the copy in, the digest, the
// advert and the resolve (two broker calls, answered here from two canned
// messages so the script adds nothing), the job's release — allocates
// nothing near the size of the blob. A reintroduced per-blob allocation
// reads 3 MiB.
func TestWarmPutGetAllocs(t *testing.T) {
	payload := dpBlob(6, 3<<20)
	where := protocol.Body(msg.KindDataLoc, msg.Address{Node: "jm"}, msg.Address{},
		protocol.DataLocResp{Key: "k", Digest: archive.DigestBytes(payload), Node: "a", Size: int64(len(payload))})
	call := func(_ context.Context, _ string, m *msg.Message, _ []byte, _ time.Duration) (*msg.Message, error) {
		if m.Kind == msg.KindDataPut {
			return dpAck, nil
		}
		return where, nil
	}
	tm := New(config.Config{HeartbeatInterval: -1}, "a", nil, (&sink{}).send, call, nil)
	t.Cleanup(tm.Close)
	a := newAssignment("j1", "jm", "client", spec("t", 10))
	round := func() {
		c := &execContext{tm: tm, a: a, self: msg.Address{Node: "a", Job: "j1", Task: "t"}}
		if err := c.put("k", payload); err != nil {
			t.Fatal(err)
		}
		data, err := c.get(context.Background(), "k")
		if err != nil || len(data) != len(payload) {
			t.Fatalf("get: %d bytes, %v", len(data), err)
		}
		c.end(nil, nil)
		tm.HandleCancel("j1")
	}
	round() // allocates the one buffer
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			round()
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 4<<10 {
		t.Errorf("a warm put + Get of 3 MiB allocates %d bytes (%d allocs), want under 4 KiB", got, res.AllocsPerOp())
	} else {
		t.Logf("a warm put + Get of 3 MiB allocates %d bytes in %d allocs", got, res.AllocsPerOp())
	}
	if tm.blobs.LiveBlobs() != 0 || tm.blobs.FreeBytes() != 3<<20 {
		t.Errorf("%d live blobs, %d free bytes; want none and the one buffer", tm.blobs.LiveBlobs(), tm.blobs.FreeBytes())
	}
}
